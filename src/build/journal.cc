#include "build/journal.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "support/bytes.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::buildsys {

namespace {

constexpr char kMagic[4] = {'P', 'F', 'J', '2'};

} // namespace

void
encodeJournal(uint64_t generation, std::vector<uint8_t> &buf)
{
    PROPELLER_CHECK(buf.size() >= kJournalHeaderBytes,
                    "journal buffer lacks its reserved header");
    std::memcpy(buf.data(), kMagic, sizeof kMagic);
    putLe64(generation, buf.data() + 4);
    putLe64(buf.size() - kJournalHeaderBytes, buf.data() + 12);
    putLe64(xxh64(buf.data(), buf.size()), buf);
}

bool
decodeJournal(std::span<const uint8_t> file, uint64_t *generation,
              std::span<const uint8_t> *payload)
{
    ByteReader in(file);
    uint64_t gen = 0;
    uint64_t size = 0;
    uint64_t footer = 0;
    // The declared length must tile the file exactly: anything shorter
    // is a torn write, anything longer is trailing garbage.
    if (!in.magic({kMagic, sizeof kMagic}) || !in.le64(gen) ||
        !in.le64(size) || !in.footer(footer) || size != in.left() ||
        xxh64(file.data(), file.size() - kJournalFooterBytes) != footer)
        return false;
    if (generation)
        *generation = gen;
    if (payload)
        *payload = {in.p, in.end};
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
