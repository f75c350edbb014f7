#include "build/journal.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "support/check.h"
#include "support/hash.h"

namespace propeller::buildsys {

namespace {

constexpr char kMagic[4] = {'P', 'F', 'J', '2'};

void
putU64(uint8_t *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint64_t
getU64(const uint8_t *in)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(in[i]) << (8 * i);
    return v;
}

} // namespace

void
encodeJournal(uint64_t generation, std::vector<uint8_t> &buf)
{
    PROPELLER_CHECK(buf.size() >= kJournalHeaderBytes,
                    "journal buffer lacks its reserved header");
    std::memcpy(buf.data(), kMagic, sizeof kMagic);
    putU64(buf.data() + 4, generation);
    putU64(buf.data() + 12, buf.size() - kJournalHeaderBytes);
    uint8_t footer[kJournalFooterBytes];
    putU64(footer, xxh64(buf.data(), buf.size()));
    buf.insert(buf.end(), footer, footer + kJournalFooterBytes);
}

bool
decodeJournal(std::span<const uint8_t> file, uint64_t *generation,
              std::span<const uint8_t> *payload)
{
    if (file.size() < kJournalHeaderBytes + kJournalFooterBytes ||
        std::memcmp(file.data(), kMagic, sizeof kMagic) != 0)
        return false;
    uint64_t gen = getU64(file.data() + 4);
    uint64_t size = getU64(file.data() + 12);
    // The declared length must tile the file exactly: anything shorter
    // is a torn write, anything longer is trailing garbage.
    if (size != file.size() - kJournalHeaderBytes - kJournalFooterBytes)
        return false;
    size_t tail = file.size() - kJournalFooterBytes;
    if (xxh64(file.data(), tail) != getU64(file.data() + tail))
        return false;
    if (generation)
        *generation = gen;
    if (payload)
        *payload = file.subspan(kJournalHeaderBytes, size);
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::vector<uint8_t> &bytes,
                long crashAtByte)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    size_t toWrite = bytes.size();
    if (crashAtByte >= 0)
        toWrite = std::min(toWrite, static_cast<size_t>(crashAtByte));
    size_t written =
        toWrite == 0 ? 0 : std::fwrite(bytes.data(), 1, toWrite, f);
    bool ok = written == toWrite;
    ok = std::fclose(f) == 0 && ok;
    if (crashAtByte >= 0)
        return false; // Crashed mid-save: the torn temp file stays put.
    if (!ok)
        return false;
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool
readFile(const std::string &path, std::vector<uint8_t> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    // Size the buffer from the open file, then read it in one call.
    struct stat st;
    bool ok = fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode);
    if (ok) {
        out.resize(static_cast<size_t>(st.st_size));
        ok = out.empty() ||
             std::fread(out.data(), 1, out.size(), f) == out.size();
    }
    std::fclose(f);
    return ok;
}

} // namespace propeller::buildsys
