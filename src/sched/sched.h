#ifndef PROPELLER_SCHED_SCHED_H
#define PROPELLER_SCHED_SCHED_H

/**
 * @file
 * Work-stealing task-graph scheduler for the relink pipeline.
 *
 * The engine separates two concerns:
 *
 *  - **Real execution.** Tasks run on a pool of workers with per-worker
 *    deques ordered by critical-path priority (upward rank): owners pop
 *    the highest-rank task first, thieves steal the low-rank half from
 *    the front, so the longest dependency chains drain first and the
 *    makespan tracks the critical-path bound. A task becomes runnable
 *    the moment its last dependency completes — topological release, no
 *    phase barriers. Wall-clock speedup comes from here.
 *
 *  - **Modelled time.** Steal order is nondeterministic, so modelled
 *    spans and makespan are produced by a deterministic virtual-time
 *    list-scheduling simulation over the same graph after execution:
 *    priority = longest path to exit (critical-path scheduling),
 *    tie-break by task id, on `SchedulerOptions::modelWorkers` virtual
 *    workers. The simulation depends only on the graph shape and task
 *    costs, never on thread interleaving, so every schedule metric in
 *    `ScheduleReport` is reproducible at any thread count.
 *
 * Tasks may grow the graph while it runs: `add(fn, opts, deps)` and
 * `addEdge` are callable from inside a task body, which is how the
 * workflow turns "how many functions are hot" — only known once the
 * profile is ingested — into per-function layout tasks on the same
 * schedule. Two contracts keep this sound: (a) an edge added at run
 * time must target a task that is still unreleased (held by a static
 * edge from the adding task), and (b) for the modelled schedule to stay
 * deterministic, dynamic tasks must be created in a deterministic order
 * (in practice: by a single adder task).
 *
 * Determinism of *results* is the caller's contract: tasks write into
 * preallocated slots or commit through an `OrderedSink`, which runs
 * commit closures in strict sequence order regardless of completion
 * order.
 *
 * This is the program's one parallel runtime: every `--jobs` loop
 * outside the relink graph (codegen fan-out, profile aggregation,
 * record resolution, the per-function layout loop) runs through
 * `parallelFor`, which is a small graph of drain tasks on a Scheduler.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace propeller::sched {

/** Resolve a thread-count request: 0 means "all hardware threads". */
unsigned resolveThreadCount(unsigned requested);

using TaskId = uint32_t;

constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();

/** Static description attached to a task at creation time. */
struct TaskOptions
{
    /** Display label, e.g. "codegen:mod07". */
    std::string label;
    /** Phase bucket for report grouping, e.g. "phase4.codegen". */
    std::string phase;
    /**
     * Modelled cost in seconds. Tasks whose cost is only known after
     * running (cache hit vs miss, retries) may refine it from inside
     * the task body via TaskGraph::setCost.
     */
    double costSec = 0.0;
};

/** One task's placement in the modelled (virtual-time) schedule. */
struct TaskSpan
{
    TaskId id = kInvalidTask;
    std::string label;
    std::string phase;
    double costSec = 0.0;
    double startSec = 0.0;
    double endSec = 0.0;
    /** Virtual worker the simulation placed the task on. */
    uint32_t worker = 0;
};

/** Deterministic schedule metrics plus real-execution counters. */
struct ScheduleReport
{
    /** Modelled end-to-end time on `modelWorkers` virtual workers. */
    double makespanSec = 0.0;
    /** Longest cost-weighted dependency chain through the graph. */
    double criticalPathSec = 0.0;
    /** Sum of all task costs. */
    double totalWorkSec = 0.0;
    /**
     * Best provable bound on any schedule's makespan: the classical
     * max(criticalPathSec, totalWorkSec / modelWorkers), strengthened
     * by the ancestor-work bound — for every task, its transitive
     * ancestors' total work divided by the worker count plus the
     * longest chain from the task to an exit.  The last term charges
     * for structurally serial epilogues (a final link depending on
     * every compile) that the classical bound treats as free.
     */
    double lowerBoundSec = 0.0;
    /** totalWorkSec / (modelWorkers * makespanSec); 1.0 = no idle. */
    double parallelEfficiency = 0.0;
    uint32_t modelWorkers = 0;
    uint32_t tasksExecuted = 0;

    /** Real execution-side counters (informational; nondeterministic). */
    unsigned realThreads = 0;
    uint64_t steals = 0;
    uint64_t stealAttempts = 0;
    /** Wall-clock seconds each real worker spent waiting for work. */
    std::vector<double> workerIdleSec;

    /** Per-task modelled spans, in task-id order. */
    std::vector<TaskSpan> spans;

    /** makespan / lower bound; 1.0 is a perfect schedule. */
    double
    criticalPathRatio() const
    {
        return lowerBoundSec > 0.0 ? makespanSec / lowerBoundSec : 1.0;
    }

    /** steals / stealAttempts; 1.0 when every probe found work. */
    double
    stealHitRate() const
    {
        return stealAttempts > 0
                   ? static_cast<double>(steals) /
                         static_cast<double>(stealAttempts)
                   : 1.0;
    }

    /** [min start, max end] over the spans of one phase bucket. */
    struct Window
    {
        double startSec = 0.0;
        double endSec = 0.0;
        bool any = false;
        double
        lengthSec() const
        {
            return any ? endSec - startSec : 0.0;
        }
    };
    Window phaseWindow(const std::string &phase) const;
};

namespace detail {
struct ExecState;
}

/**
 * A dependency graph of runnable tasks. Build the static graph up front
 * (add tasks, then edges), hand it to Scheduler::run; task bodies may
 * extend the graph while it runs via the dependency-taking `add`
 * overload and `addEdge`. Not reusable: a graph runs once.
 */
class TaskGraph
{
  public:
    /** Add a task; returns its id (ids are dense, in creation order). */
    TaskId add(std::function<void()> fn, TaskOptions opts = {});

    /**
     * Add a task depending on `deps`. Callable from inside a running
     * task body: dependencies that already finished count as satisfied,
     * and if all have, the task is enqueued on the calling worker
     * immediately. Listing the currently running task as a dependency
     * is the idiomatic way to release the new task only after its adder
     * finishes (and after any addEdge calls that gate it further).
     */
    TaskId add(std::function<void()> fn, TaskOptions opts,
               const std::vector<TaskId> &deps);

    /**
     * `after` cannot start until `before` has finished. Callable while
     * the graph runs, provided `after` is still unreleased — in
     * practice `after` must hold a pending edge from the task doing the
     * adding. If `before` already finished, the edge is recorded for
     * the model but is immediately satisfied.
     */
    void addEdge(TaskId before, TaskId after);

    /**
     * Refine a task's modelled cost. Safe from inside the task's own
     * body while the graph is running (single writer per task; readers
     * only look after the run joins).
     */
    void setCost(TaskId id, double costSec);

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tasks_.size();
    }
    double cost(TaskId id) const { return tasks_[id].costSec; }
    const std::string &phase(TaskId id) const { return tasks_[id].phase; }

    /** Internal task record; public so scheduler helpers can see it. */
    struct Task
    {
        std::function<void()> fn;
        std::string label;
        std::string phase;
        double costSec = 0.0;
        std::vector<TaskId> dependents;
        /** Total dependency count, for the model's indegree. */
        uint32_t dependencyCount = 0;
        /** Unfinished dependencies left; 0 = released to a queue. */
        uint32_t pendingRuntime = 0;
        /** Upward rank (cost + longest dependent chain), the steal
         *  priority. Exact for the static graph, refined one level per
         *  addEdge for tasks added at run time. */
        double rank = 0.0;
        bool done = false;
    };

  private:
    friend class Scheduler;
    friend struct detail::ExecState;
    /** Deque so Task references stay valid across run-time adds. */
    std::deque<Task> tasks_;
    mutable std::mutex mu_;
    /** Live execution state while Scheduler::run is active. */
    detail::ExecState *exec_ = nullptr;
};

struct SchedulerOptions
{
    /** Real execution threads; 0 = hardware concurrency, 1 = inline. */
    unsigned threads = 0;
    /** Virtual workers for the deterministic schedule model. */
    unsigned modelWorkers = 8;
};

/**
 * Executes a TaskGraph with work stealing, then replays it through the
 * deterministic virtual-time simulation to produce the ScheduleReport.
 * The first exception thrown by a task is rethrown from run() after
 * the graph drains (downstream task bodies are skipped, not run
 * against missing inputs).
 */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions opts = {}) : opts_(opts) {}

    ScheduleReport run(TaskGraph &graph);

  private:
    SchedulerOptions opts_;
};

/**
 * Run fn(i) for every i in [0, n) on up to @p threads threads (0 =
 * hardware concurrency): min(threads, n) drain tasks on a Scheduler
 * claim indices from one shared counter.  With one thread or at most
 * one index the loop runs inline on the caller, in index order.
 * Determinism is the caller's: write results to slot i and merge in
 * index order.  The first exception thrown by fn is rethrown once the
 * run drains; a drain that has not started by then is skipped.  Each
 * call runs its own Scheduler, so a call from inside a loop body or a
 * graph task completes.
 */
void parallelFor(unsigned threads, size_t n,
                 const std::function<void(size_t)> &fn);

/**
 * Commits results in strict sequence order: `submit(seq, fn)` may be
 * called from any thread in any order, but the closures run exactly in
 * increasing `seq` order (0,1,2,...), each under the sink's lock.
 * This is the determinism keystone: side effects that are order
 * sensitive (cache population, failure attribution, report lines) go
 * through the sink, so shipped bytes and reports are identical at any
 * thread count.
 */
class OrderedSink
{
  public:
    explicit OrderedSink(uint64_t firstSeq = 0) : next_(firstSeq) {}

    void submit(uint64_t seq, std::function<void()> commit);

    /** Sequence number the sink is waiting for next. */
    uint64_t
    committed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return next_;
    }

  private:
    mutable std::mutex mu_;
    std::map<uint64_t, std::function<void()>> pending_;
    uint64_t next_ = 0;
};

/**
 * Write the modelled spans as Chrome trace_event JSON ("X" complete
 * events, ts/dur in microseconds, tid = virtual worker) loadable in
 * chrome://tracing or Perfetto. Returns false if the file cannot be
 * written.
 */
bool writeChromeTrace(const ScheduleReport &report,
                      const std::string &path);

/**
 * Compact multi-line text rendering of a ScheduleReport (the statusz
 * "last relink" block): makespan vs the lower bound, critical path,
 * parallel efficiency, task count and steal counters.  Only modelled
 * (deterministic) quantities — the real steal counters are labelled as
 * such so fleet statusz diffs stay meaningful across runs.
 */
std::string summarizeSchedule(const ScheduleReport &report);

} // namespace propeller::sched

#endif // PROPELLER_SCHED_SCHED_H
