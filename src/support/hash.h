#ifndef PROPELLER_SUPPORT_HASH_H
#define PROPELLER_SUPPORT_HASH_H

/**
 * @file
 * Content hashing: keys and fingerprints, and storage checksums.
 *
 * The build system substrate (src/build) keys artifacts by content hash,
 * mirroring the content-addressed caching the paper's distributed build
 * system relies on.  FNV-1a/64 is sufficient for our artifact counts and is
 * fully deterministic; it stays wherever its value is a key, a fingerprint
 * or an identity, or sits in a shipped or wire format (action and layout
 * keys, identityHash, the integrity-check table, the .bb_addr_map and
 * profile shard checksums), so those values never move.
 *
 * FNV-1a is byte-serial, though.  The checksums that guard the build
 * system's own storage, which only this program writes and reads back
 * (ArtifactCache entry hashes, the cache image footer and the journal
 * footer), use XXH64 instead: it consumes 32 bytes per step on four
 * independent lanes, many times faster on megabyte images.
 */

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace propeller {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over a byte range, chained from @p seed. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t seed = kFnvOffset)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over a string view. */
inline uint64_t
fnv1a(std::string_view s, uint64_t seed = kFnvOffset)
{
    return fnv1a(s.data(), s.size(), seed);
}

/** FNV-1a over a byte vector. */
inline uint64_t
fnv1a(const std::vector<uint8_t> &v, uint64_t seed = kFnvOffset)
{
    return fnv1a(v.data(), v.size(), seed);
}

/**
 * Chain a 64-bit value into a running hash: FNV-1a over the value's 8
 * bytes in memory order.  A zero byte's FNV-1a step is a bare multiply
 * by the prime, so the zero bytes that end the value in memory (its
 * high bytes, on a little-endian host) fold into one multiply by a
 * power of the prime: a small value costs a few dependent multiplies,
 * not eight.
 */
inline uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    static constexpr std::array<uint64_t, 9> primePow = [] {
        std::array<uint64_t, 9> pow{1};
        for (size_t k = 1; k < pow.size(); ++k)
            pow[k] = pow[k - 1] * kFnvPrime;
        return pow;
    }();
    // The memory-order bytes, first byte lowest.
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    const auto bytes = static_cast<int>((std::bit_width(v) + 7) / 8);
    for (int i = 0; i < bytes; ++i, v >>= 8)
        h = (h ^ (v & 0xff)) * kFnvPrime;
    return h * primePow[8 - bytes];
}

/**
 * XXH64 (seed 0) over a byte range, per the public xxHash
 * specification: 32-byte stripes on four accumulator lanes, then the
 * 8/4/1-byte tail and the final avalanche.  Words are read
 * little-endian on any host, so a checksum is host-independent.
 */
inline uint64_t
xxh64(const void *data, size_t len)
{
    constexpr uint64_t p1 = 0x9e3779b185ebca87ull;
    constexpr uint64_t p2 = 0xc2b2ae3d27d4eb4full;
    constexpr uint64_t p3 = 0x165667b19e3779f9ull;
    constexpr uint64_t p4 = 0x85ebca77c2b2ae63ull;
    constexpr uint64_t p5 = 0x27d4eb2f165667c5ull;
    auto read = [](const uint8_t *p, size_t bytes) {
        uint64_t v = 0;
        std::memcpy(&v, p, bytes);
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap64(v);
        return v;
    };
    auto round = [](uint64_t acc, uint64_t lane) {
        return std::rotl(acc + lane * p2, 31) * p1;
    };
    const auto *p = static_cast<const uint8_t *>(data);
    const uint8_t *end = p + len;
    uint64_t h = p5;
    if (len >= 32) {
        uint64_t v[4] = {p1 + p2, p2, 0, 0 - p1};
        for (; end - p >= 32; p += 32)
            for (int i = 0; i < 4; ++i)
                v[i] = round(v[i], read(p + 8 * i, 8));
        h = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
            std::rotl(v[2], 12) + std::rotl(v[3], 18);
        for (uint64_t lane : v)
            h = (h ^ round(0, lane)) * p1 + p4;
    }
    h += len;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ round(0, read(p, 8)), 27) * p1 + p4;
    if (end - p >= 4) {
        h = std::rotl(h ^ read(p, 4) * p1, 23) * p2 + p3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ *p * p5, 11) * p1;
    h = (h ^ (h >> 33)) * p2;
    h = (h ^ (h >> 29)) * p3;
    return h ^ (h >> 32);
}

/** Render a hash as a fixed-width hex digest for cache keys. */
inline std::string
hashDigest(uint64_t h)
{
    static const char *digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[i] = digits[h & 0xf];
        h >>= 4;
    }
    return s;
}

} // namespace propeller

#endif // PROPELLER_SUPPORT_HASH_H
