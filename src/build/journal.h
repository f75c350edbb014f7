#ifndef PROPELLER_BUILD_JOURNAL_H
#define PROPELLER_BUILD_JOURNAL_H

/**
 * @file
 * Crash-safe persistence for cache images (and any other byte payload
 * the build system wants to survive a mid-write crash).
 *
 * The continuous-relink loop persists the ArtifactCache across relinks
 * and service restarts; a crash during that save must never leave an
 * image a later cold start trips over.  Two mechanisms compose:
 *
 *  1. A *journal container* wrapping the payload: fixed magic ("PFJ2"),
 *     a generation stamp (which relink generation wrote this image),
 *     the payload length, and a trailing XXH64 checksum over everything
 *     before it.  Any torn or bit-damaged file — truncated inside the
 *     header, the payload or the footer, or mutated anywhere — fails
 *     decodeJournal() and reads as "no image": the caller cold-starts
 *     instead of aborting or half-loading.  A "PFJ1" container (FNV-1a
 *     footer) reads as "no image" too.
 *
 *  2. An *atomic write*: the image is written to `<path>.tmp` in full
 *     and rename(2)d over the destination, so the destination always
 *     holds either the previous complete image or the new complete
 *     image, never a prefix of the new one.  A crash between write and
 *     rename leaves only a stale `.tmp` the next save overwrites.
 *
 * The container is framed and checked in place: the writer serializes
 * its payload after kJournalHeaderBytes of reserved space and
 * encodeJournal() fills the header and appends the footer, and
 * decodeJournal() hands back a view of the payload inside the file
 * buffer, so a multi-megabyte image is never copied to be framed.
 *
 * atomicWriteFile() exposes a crash seam (`crashAtByte`) so the
 * crash-point sweep tests can kill the save at every byte boundary
 * class and prove both properties without process-level fault tools.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace propeller::buildsys {

/** Journal container framing overhead: magic + generation + length
 *  header, plus the trailing checksum footer. */
constexpr size_t kJournalHeaderBytes = 4 + 8 + 8;
constexpr size_t kJournalFooterBytes = 8;

/**
 * Frame @p buf as a journal container stamped @p generation, in place.
 * On entry @p buf holds kJournalHeaderBytes of reserved space followed
 * by the payload; the header is written over the reserved bytes and
 * the footer appended (reserve kJournalFooterBytes of spare capacity
 * to keep that append from reallocating).
 */
void encodeJournal(uint64_t generation, std::vector<uint8_t> &buf);

/**
 * Decode a journal container.  Returns false — without touching the
 * outputs — on any structural damage: short file, wrong magic, length
 * mismatch (a torn write), or footer checksum mismatch (bit damage).
 * On success @p payload views the payload inside @p file (valid while
 * @p file is).  @p generation and @p payload may be nullptr when not
 * wanted.
 */
bool decodeJournal(std::span<const uint8_t> file, uint64_t *generation,
                   std::span<const uint8_t> *payload);

/**
 * Write @p bytes to @p path atomically: the full image goes to
 * `<path>.tmp` first and is renamed over @p path only once complete, so
 * a reader never observes a prefix.  Returns false on any I/O failure
 * (the destination is untouched in that case).
 *
 * @p crashAtByte is the crash-point seam: when >= 0 the write "crashes"
 * after that many bytes reached the temp file — the function returns
 * false, the destination is untouched, and the torn temp file is left
 * behind exactly as a killed process would leave it.
 */
bool atomicWriteFile(const std::string &path,
                     const std::vector<uint8_t> &bytes,
                     long crashAtByte = -1);

/** Read @p path fully in one sized read; returns false if it cannot be
 *  opened or read. */
bool readFile(const std::string &path, std::vector<uint8_t> &out);

} // namespace propeller::buildsys

#endif // PROPELLER_BUILD_JOURNAL_H
