#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * Clocks, memory probes and the in-memory span recorder of the benchmark.
 *
 * Spans are recorded only around calls the benchmark itself makes into
 * the repository's public functions; nothing inside src/ is
 * instrumented.  A disabled Trace records nothing, so the untraced run
 * pays for one branch per span.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall-clock seconds. */
double wallNow();

/** CPU seconds consumed by every thread of this process. */
double cpuNow();

/** VmHWM (peak resident set) of this process, MiB. */
double peakRssMb();

/** VmRSS (current resident set) of this process, MiB. */
double currentRssMb();

/**
 * Reset VmHWM to the current RSS (writes "5" to /proc/self/clear_refs).
 * Returns false where the kernel refuses, in which case peak-RSS growth
 * readings are upper bounds.
 */
bool resetPeakRss();

/** Hand the heap's free pages back to the kernel (malloc_trim). */
void trimHeap();

/** One timed interval of a traced run. */
struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0: a root span.
    uint32_t op = 0;     ///< The op (or epoch) the span belongs to.
    std::string name;
    double start = 0.0;  ///< Wall seconds since the trace began.
    double end = 0.0;
    double cpu = 0.0;    ///< Process CPU seconds over the span.
    double rssMb = -1.0; ///< VmHWM growth across the span (-1: unmeasured).
};

/** A count recorded where the work happened, against an op. */
struct Counter
{
    uint32_t op = 0;
    std::string name;
    double value = 0.0;
};

class Trace
{
  public:
    explicit Trace(bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Open a span; returns its id (0 when disabled).  With @p rss the
     * span also measures its VmHWM growth, after trimming the heap and
     * resetting VmHWM.
     */
    uint32_t open(const std::string &name, uint32_t op, uint32_t parent,
                  bool rss = false);

    /** Close span @p id (no-op for id 0). */
    void close(uint32_t id);

    /** Record a counter (no-op when disabled). */
    void count(uint32_t op, const std::string &name, double value);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Counter> &counters() const { return counters_; }

  private:
    struct Open
    {
        double cpu0 = 0.0;
        double rss0 = 0.0;
        bool rss = false;
    };

    bool enabled_;
    double t0_;
    std::vector<Span> spans_;
    std::map<uint32_t, Open> open_;
    std::vector<Counter> counters_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Trace &trace, const std::string &name, uint32_t op,
          uint32_t parent, bool rss = false)
        : trace_(trace), id_(trace.open(name, op, parent, rss))
    {
    }
    ~Scope() { trace_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint32_t id() const { return id_; }

  private:
    Trace &trace_;
    uint32_t id_;
};

/** Wall-clock stopwatch for the untraced timings. */
class Stopwatch
{
  public:
    Stopwatch() : t0_(wallNow()) {}
    double seconds() const { return wallNow() - t0_; }

  private:
    double t0_;
};

/** JSON string literal for @p s. */
std::string jsonString(const std::string &s);

/** JSON number with every significant digit of @p v. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
