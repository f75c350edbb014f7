#ifndef PROPELLER_SUPPORT_BYTES_H
#define PROPELLER_SUPPORT_BYTES_H

/**
 * @file
 * The byte codec every persisted and wire format writes and reads
 * through: ULEB128 integers, 8-byte little-endian words, length-prefixed
 * strings and byte runs, and one bounded reader.
 *
 * ULEB128 carries the compact formats (object files, the .bb_addr_map
 * section, LBR profiles): the real SHT_LLVM_BB_ADDR_MAP encodes offsets
 * and sizes that way, so the binary-size numbers in Figure 6 carry
 * realistic metadata overhead.  Fixed little-endian words carry the
 * checksum footers and the build system's own storage (encoded
 * layouts, the cache image, the journal); they read the same on any
 * host.
 *
 * Decoders run on every relink (each cache hit deserializes an object),
 * so ByteReader is a pointer pair whose reads return false on
 * truncation; the decoder names the field only on its error path.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace propeller {

/** Append the ULEB128 encoding of @p value to @p out. */
inline void
encodeUleb128(uint64_t value, std::vector<uint8_t> &out)
{
    do {
        uint8_t byte = value & 0x7f;
        value >>= 7;
        if (value != 0)
            byte |= 0x80;
        out.push_back(byte);
    } while (value != 0);
}

/** Size in bytes of the ULEB128 encoding of @p value. */
inline size_t
uleb128Size(uint64_t value)
{
    size_t n = 1;
    while (value >>= 7)
        ++n;
    return n;
}

/** Write @p v as 8 little-endian bytes at @p out. */
inline void
putLe64(uint64_t v, uint8_t *out)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(out, &v, sizeof v);
}

/** Append @p v as 8 little-endian bytes. */
inline void
putLe64(uint64_t v, std::vector<uint8_t> &out)
{
    out.resize(out.size() + 8);
    putLe64(v, out.data() + out.size() - 8);
}

/** Read 8 little-endian bytes at @p p. */
inline uint64_t
getLe64(const uint8_t *p)
{
    uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Append @p s with its ULEB128 length in front. */
inline void
putString(std::string_view s, std::vector<uint8_t> &out)
{
    encodeUleb128(s.size(), out);
    out.insert(out.end(), s.begin(), s.end());
}

/** Append @p b with its ULEB128 length in front. */
inline void
putBytes(std::span<const uint8_t> b, std::vector<uint8_t> &out)
{
    encodeUleb128(b.size(), out);
    out.insert(out.end(), b.begin(), b.end());
}

/**
 * Bounded field reader over [p, end).  Every read returns false, and
 * leaves its output alone, when the field runs past @p end.  A format
 * with a trailing footer pulls @p end in before it (footer()), so a
 * field that runs into the footer is truncation, not data.
 */
struct ByteReader
{
    const uint8_t *p;
    const uint8_t *end;

    explicit ByteReader(std::span<const uint8_t> data)
        : p(data.data()), end(data.data() + data.size())
    {
    }

    /** Bytes left; an upper bound on any count still to be decoded. */
    uint64_t
    left() const
    {
        return p < end ? static_cast<uint64_t>(end - p) : 0;
    }

    /** Whether every byte up to @p end was read. */
    bool done() const { return p == end; }

    /**
     * One ULEB128 field in its minimal encoding, the only one
     * encodeUleb128() writes.  False when truncated, when a zero final
     * byte pads a continuation byte (0x80 0x00 for zero), or when the
     * field carries bits past bit 63 (a tenth byte above 0x01).
     */
    bool
    uleb(uint64_t &out)
    {
        uint64_t v = 0;
        for (unsigned shift = 0; p < end; shift += 7) {
            uint8_t byte = *p++;
            if (shift == 63 && byte > 1)
                return false;
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                if (byte == 0 && shift != 0)
                    return false;
                out = v;
                return true;
            }
        }
        return false;
    }

    /** One byte. */
    bool
    u8(uint8_t &out)
    {
        if (p >= end)
            return false;
        out = *p++;
        return true;
    }

    /** One 8-byte little-endian word. */
    bool
    le64(uint64_t &out)
    {
        if (left() < 8)
            return false;
        out = getLe64(p);
        p += 8;
        return true;
    }

    /** The next @p n bytes, as a view into the input. */
    bool
    bytes(uint64_t n, std::span<const uint8_t> &out)
    {
        if (n > left())
            return false;
        out = {p, static_cast<size_t>(n)};
        p += n;
        return true;
    }

    /** A string with its ULEB128 length in front. */
    bool
    str(std::string &out)
    {
        uint64_t len = 0;
        std::span<const uint8_t> run;
        if (!uleb(len) || !bytes(len, run))
            return false;
        out.assign(reinterpret_cast<const char *>(run.data()), run.size());
        return true;
    }

    /** The literal @p want (a format magic). */
    bool
    magic(std::string_view want)
    {
        if (want.size() > left() ||
            std::memcmp(p, want.data(), want.size()) != 0)
            return false;
        p += want.size();
        return true;
    }

    /** Pull @p end in before a trailing 8-byte little-endian word and
     *  read it; false when fewer than 8 bytes are left. */
    bool
    footer(uint64_t &out)
    {
        if (left() < 8)
            return false;
        end -= 8;
        out = getLe64(end);
        return true;
    }
};

} // namespace propeller

#endif // PROPELLER_SUPPORT_BYTES_H
