/**
 * @file
 * Work-stealing execution (critical-path priority deques, run-time
 * graph growth), deterministic virtual-time simulation, and
 * parallelFor on top of both.
 */

#include "sched/sched.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

namespace propeller::sched {

namespace {

/** Worker index of the current thread while a run is active. */
thread_local size_t tlWorker = 0;

} // namespace

namespace detail {

/** Shared state for the real (multithreaded) execution. */
struct ExecState
{
    using Entry = std::pair<double, TaskId>; // (rank, id)

    TaskGraph *graph = nullptr;
    std::atomic<size_t> remaining{0};
    std::atomic<bool> failed{false};
    std::mutex errorMu;
    std::exception_ptr error;

    struct WorkerQueue
    {
        std::mutex mu;
        /** Ascending rank: the owner pops the back (the highest
         *  rank), thieves take the low-rank front. */
        std::deque<Entry> q;
    };
    std::vector<WorkerQueue> queues;
    std::mutex idleMu;
    std::condition_variable idleCv;
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> stealAttempts{0};
    std::vector<double> idleSec;

    ExecState(TaskGraph &g, size_t workers)
        : graph(&g), queues(workers), idleSec(workers, 0.0)
    {
    }

    void
    insertSorted(std::deque<Entry> &q, Entry e)
    {
        auto pos = std::upper_bound(
            q.begin(), q.end(), e.first,
            [](double rank, const Entry &other) {
                return rank < other.first;
            });
        q.insert(pos, e);
    }

    /**
     * Wake idle workers.  The notify runs under idleMu, where an idle
     * worker re-checks the queues and `remaining` before it waits, so a
     * wake-up cannot land between that check and the wait and be lost.
     */
    void
    wakeIdle()
    {
        std::lock_guard<std::mutex> lock(idleMu);
        idleCv.notify_all();
    }

    /** True if any worker deque holds a task. */
    bool
    anyQueued()
    {
        for (WorkerQueue &wq : queues) {
            std::lock_guard<std::mutex> lock(wq.mu);
            if (!wq.q.empty())
                return true;
        }
        return false;
    }

    void
    pushLocal(size_t worker, Entry e)
    {
        {
            std::lock_guard<std::mutex> lock(queues[worker].mu);
            insertSorted(queues[worker].q, e);
        }
        wakeIdle();
    }

    bool
    popLocal(size_t worker, Entry &out)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        if (queues[worker].q.empty())
            return false;
        out = queues[worker].q.back();
        queues[worker].q.pop_back();
        return true;
    }

    /**
     * Steal half of a victim's deque from the front — its lowest-rank
     * tasks (the owner keeps the critical path) — keep one to run and
     * queue the rest locally.
     */
    bool
    trySteal(size_t thief, Entry &out)
    {
        size_t n = queues.size();
        for (size_t hop = 1; hop < n; ++hop) {
            size_t victim = (thief + hop) % n;
            stealAttempts.fetch_add(1, std::memory_order_relaxed);
            std::vector<Entry> grabbed;
            {
                std::lock_guard<std::mutex> lock(queues[victim].mu);
                auto &q = queues[victim].q;
                if (q.empty())
                    continue;
                size_t take = (q.size() + 1) / 2;
                grabbed.assign(q.begin(),
                               q.begin() + static_cast<long>(take));
                q.erase(q.begin(), q.begin() + static_cast<long>(take));
            }
            steals.fetch_add(1, std::memory_order_relaxed);
            out = grabbed.front();
            if (grabbed.size() > 1) {
                {
                    std::lock_guard<std::mutex> lock(queues[thief].mu);
                    for (size_t i = 1; i < grabbed.size(); ++i)
                        insertSorted(queues[thief].q, grabbed[i]);
                }
                wakeIdle();
            }
            return true;
        }
        return false;
    }

    /** Release a task created at run time whose dependencies are all
     *  satisfied; runs under the graph lock (called from add). */
    void
    enqueueFromAdd(double rank, TaskId id)
    {
        size_t worker = tlWorker < queues.size() ? tlWorker : 0;
        pushLocal(worker, {rank, id});
    }

    void
    execute(size_t worker, TaskId id)
    {
        TaskGraph::Task *task;
        {
            // Deque element references are stable, but operator[]
            // itself races with run-time emplace_back — take the
            // pointer under the graph lock.
            std::lock_guard<std::mutex> lock(graph->mu_);
            task = &graph->tasks_[id];
        }
        if (!failed.load(std::memory_order_acquire)) {
            try {
                if (task->fn)
                    task->fn();
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
        }
        std::vector<Entry> ready;
        {
            // done + dependent release are one critical section, so an
            // addEdge that observes done == false is guaranteed its
            // increment is seen by this release loop.
            std::lock_guard<std::mutex> lock(graph->mu_);
            task->done = true;
            for (TaskId dep : task->dependents) {
                TaskGraph::Task &d = graph->tasks_[dep];
                if (d.pendingRuntime > 0 && --d.pendingRuntime == 0)
                    ready.push_back({d.rank, dep});
            }
        }
        for (const Entry &e : ready)
            pushLocal(worker, e);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
            wakeIdle();
    }

    void
    workerLoop(size_t worker)
    {
        // A nested run (parallelFor inside a task) reuses this thread;
        // restore the outer run's index when it returns.
        const size_t outer = tlWorker;
        tlWorker = worker;
        while (remaining.load(std::memory_order_acquire) > 0) {
            Entry e{0.0, kInvalidTask};
            if (popLocal(worker, e) || trySteal(worker, e)) {
                execute(worker, e.second);
                continue;
            }
            auto t0 = std::chrono::steady_clock::now();
            {
                std::unique_lock<std::mutex> lock(idleMu);
                if (remaining.load(std::memory_order_acquire) > 0 &&
                    !anyQueued())
                    idleCv.wait_for(lock, std::chrono::microseconds(200));
            }
            idleSec[worker] +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
        tlWorker = outer;
    }
};

} // namespace detail

ScheduleReport::Window
ScheduleReport::phaseWindow(const std::string &phase) const
{
    Window w;
    for (const TaskSpan &span : spans) {
        if (span.phase != phase)
            continue;
        if (!w.any) {
            w.startSec = span.startSec;
            w.endSec = span.endSec;
            w.any = true;
        } else {
            w.startSec = std::min(w.startSec, span.startSec);
            w.endSec = std::max(w.endSec, span.endSec);
        }
    }
    return w;
}

TaskId
TaskGraph::add(std::function<void()> fn, TaskOptions opts)
{
    return add(std::move(fn), std::move(opts), {});
}

TaskId
TaskGraph::add(std::function<void()> fn, TaskOptions opts,
               const std::vector<TaskId> &deps)
{
    std::lock_guard<std::mutex> lock(mu_);
    TaskId id = static_cast<TaskId>(tasks_.size());
    tasks_.emplace_back();
    Task &task = tasks_.back();
    task.fn = std::move(fn);
    task.label = std::move(opts.label);
    task.phase = std::move(opts.phase);
    task.costSec = opts.costSec;
    task.rank = opts.costSec;
    for (TaskId dep : deps) {
        tasks_[dep].dependents.push_back(id);
        ++task.dependencyCount;
        if (!tasks_[dep].done)
            ++task.pendingRuntime;
    }
    if (exec_) {
        exec_->remaining.fetch_add(1, std::memory_order_acq_rel);
        if (task.pendingRuntime == 0)
            exec_->enqueueFromAdd(task.rank, id);
    }
    return id;
}

void
TaskGraph::addEdge(TaskId before, TaskId after)
{
    std::lock_guard<std::mutex> lock(mu_);
    Task &b = tasks_[before];
    Task &a = tasks_[after];
    b.dependents.push_back(after);
    ++a.dependencyCount;
    if (!b.done) {
        if (exec_ && a.pendingRuntime == 0)
            throw std::logic_error(
                "TaskGraph::addEdge at run time targets a task that "
                "was already released");
        ++a.pendingRuntime;
    }
    // One-level rank refinement: edges added at run time lift their
    // upstream task's steal priority by the downstream chain.
    b.rank = std::max(b.rank, b.costSec + a.rank);
}

void
TaskGraph::setCost(TaskId id, double costSec)
{
    std::lock_guard<std::mutex> lock(mu_);
    tasks_[id].costSec = costSec;
}

void
OrderedSink::submit(uint64_t seq, std::function<void()> commit)
{
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace(seq, std::move(commit));
    while (!pending_.empty() && pending_.begin()->first == next_) {
        auto fn = std::move(pending_.begin()->second);
        pending_.erase(pending_.begin());
        // Run under the lock: commits are strictly single file, in
        // sequence order, which is the whole point of the sink.
        fn();
        ++next_;
    }
}

namespace {

/** Kahn topological order; throws if the graph has a cycle. */
std::vector<TaskId>
topologicalOrder(const std::deque<TaskGraph::Task> &tasks)
{
    std::vector<uint32_t> indeg(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i)
        indeg[i] = tasks[i].dependencyCount;
    std::vector<TaskId> order;
    order.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i)
        if (indeg[i] == 0)
            order.push_back(static_cast<TaskId>(i));
    for (size_t head = 0; head < order.size(); ++head) {
        for (TaskId dep : tasks[order[head]].dependents)
            if (--indeg[dep] == 0)
                order.push_back(dep);
    }
    if (order.size() != tasks.size())
        throw std::logic_error("TaskGraph contains a dependency cycle");
    return order;
}

/** Deterministic critical-path list scheduling on virtual workers. */
void
simulate(const std::deque<TaskGraph::Task> &tasks,
         const std::vector<TaskId> &topo, unsigned workers,
         ScheduleReport &report)
{
    size_t n = tasks.size();
    report.spans.assign(n, TaskSpan{});
    if (n == 0 || workers == 0)
        return;

    // Priority: longest cost-weighted path from the task to any exit,
    // including the task itself. Computed in reverse topological order.
    std::vector<double> toExit(n, 0.0);
    for (size_t i = n; i-- > 0;) {
        TaskId id = topo[i];
        double best = 0.0;
        for (TaskId dep : tasks[id].dependents)
            best = std::max(best, toExit[dep]);
        toExit[id] = tasks[id].costSec + best;
    }
    double criticalPath = 0.0;
    double totalWork = 0.0;
    for (size_t i = 0; i < n; ++i) {
        criticalPath = std::max(criticalPath, toExit[i]);
        totalWork += tasks[i].costSec;
    }

    // Ready set ordered by (priority desc, id asc) — fully
    // deterministic, independent of real thread interleaving.
    struct ReadyLess
    {
        bool
        operator()(const std::pair<double, TaskId> &a,
                   const std::pair<double, TaskId> &b) const
        {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        }
    };
    std::set<std::pair<double, TaskId>, ReadyLess> ready;

    std::vector<uint32_t> indeg(n);
    for (size_t i = 0; i < n; ++i) {
        indeg[i] = tasks[i].dependencyCount;
        if (indeg[i] == 0)
            ready.insert({toExit[i], static_cast<TaskId>(i)});
    }

    // Idle workers by id; busy workers as (endTime, workerId, taskId)
    // events popped smallest-first with deterministic tie-breaks.
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        idle;
    for (uint32_t w = 0; w < workers; ++w)
        idle.push(w);
    using Event = std::tuple<double, uint32_t, TaskId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        busy;

    double now = 0.0;
    double makespan = 0.0;
    size_t scheduled = 0;
    while (scheduled < n) {
        while (!idle.empty() && !ready.empty()) {
            auto [pri, id] = *ready.begin();
            ready.erase(ready.begin());
            uint32_t w = idle.top();
            idle.pop();
            TaskSpan &span = report.spans[id];
            span.id = id;
            span.label = tasks[id].label;
            span.phase = tasks[id].phase;
            span.costSec = tasks[id].costSec;
            span.startSec = now;
            span.endSec = now + tasks[id].costSec;
            span.worker = w;
            makespan = std::max(makespan, span.endSec);
            busy.push({span.endSec, w, id});
            ++scheduled;
        }
        if (busy.empty())
            break;
        auto [end, w, id] = busy.top();
        busy.pop();
        now = end;
        idle.push(w);
        for (TaskId dep : tasks[id].dependents)
            if (--indeg[dep] == 0)
                ready.insert({toExit[dep], dep});
    }

    // Refined bound: every transitive ancestor of a task must finish
    // before it starts (on at most `workers` workers), and the longest
    // chain below it runs strictly after, so for any task t
    //     makespan >= ancestorWork(t) / workers + toExit(t).
    // Unlike max(CP, work/W) this sees structurally serial epilogues —
    // e.g. a final link task that depends on every compile — whose idle
    // cost no schedule can avoid.  Ancestor sets are exact (bitset
    // transitive closure); skipped for very large graphs where the
    // closure would dominate, falling back to the classical bound.
    double refined = 0.0;
    if (n <= 8192) {
        const size_t words = (n + 63) / 64;
        std::vector<uint64_t> anc(n * words, 0);
        for (TaskId id : topo) {
            const uint64_t *self = &anc[static_cast<size_t>(id) * words];
            for (TaskId dep : tasks[id].dependents) {
                uint64_t *dst = &anc[static_cast<size_t>(dep) * words];
                for (size_t w = 0; w < words; ++w)
                    dst[w] |= self[w];
                dst[id / 64] |= uint64_t(1) << (id % 64);
            }
        }
        for (size_t i = 0; i < n; ++i) {
            double ancWork = 0.0;
            const uint64_t *row = &anc[i * words];
            for (size_t w = 0; w < words; ++w) {
                uint64_t bits = row[w];
                while (bits != 0) {
                    size_t b = static_cast<size_t>(std::countr_zero(bits));
                    bits &= bits - 1;
                    ancWork += tasks[w * 64 + b].costSec;
                }
            }
            refined = std::max(refined, ancWork / workers + toExit[i]);
        }
    }

    report.makespanSec = makespan;
    report.criticalPathSec = criticalPath;
    report.totalWorkSec = totalWork;
    report.lowerBoundSec =
        std::max({criticalPath, totalWork / workers, refined});
    report.parallelEfficiency =
        makespan > 0.0 ? totalWork / (workers * makespan) : 1.0;
    report.modelWorkers = workers;
    report.tasksExecuted = static_cast<uint32_t>(n);
}

} // namespace

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

ScheduleReport
Scheduler::run(TaskGraph &graph)
{
    auto &tasks = graph.tasks_;
    // Cycle check over the static graph (run-time additions are
    // acyclic by the unreleased-target contract) and exact upward
    // ranks for the steal priority.
    std::vector<TaskId> topo = topologicalOrder(tasks);
    for (size_t i = topo.size(); i-- > 0;) {
        TaskId id = topo[i];
        double best = 0.0;
        for (TaskId dep : tasks[id].dependents)
            best = std::max(best, tasks[dep].rank);
        tasks[id].rank = tasks[id].costSec + best;
    }

    unsigned threads = resolveThreadCount(opts_.threads);
    if (!tasks.empty())
        threads = std::min<unsigned>(
            threads, static_cast<unsigned>(tasks.size()));
    threads = std::max(threads, 1u);

    ScheduleReport report;
    report.realThreads = threads;

    detail::ExecState state(graph, threads);
    state.remaining.store(tasks.size(), std::memory_order_relaxed);
    graph.exec_ = &state;
    // Seed the roots round-robin across worker deques, in id order,
    // so every worker starts with local work.
    {
        size_t next = 0;
        for (size_t i = 0; i < tasks.size(); ++i) {
            if (tasks[i].pendingRuntime == 0) {
                std::lock_guard<std::mutex> lock(
                    state.queues[next].mu);
                state.insertSorted(
                    state.queues[next].q,
                    {tasks[i].rank, static_cast<TaskId>(i)});
                next = (next + 1) % threads;
            }
        }
    }
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        pool.emplace_back([&state, w] { state.workerLoop(w); });
    state.workerLoop(0);
    for (auto &t : pool)
        t.join();
    graph.exec_ = nullptr;
    report.steals = state.steals.load();
    report.stealAttempts = state.stealAttempts.load();
    report.workerIdleSec = state.idleSec;
    if (state.error)
        std::rethrow_exception(state.error);

    // Costs may have been refined and tasks added from inside task
    // bodies; the joins above order those writes before this read.
    std::vector<TaskId> finalTopo = topologicalOrder(tasks);
    simulate(tasks, finalTopo, std::max(opts_.modelWorkers, 1u),
             report);
    return report;
}

void
parallelFor(unsigned threads, size_t n,
            const std::function<void(size_t)> &fn)
{
    const size_t drains = std::min<size_t>(resolveThreadCount(threads), n);
    if (drains <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    TaskGraph graph;
    for (size_t d = 0; d < drains; ++d) {
        graph.add([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    }
    SchedulerOptions opts;
    opts.threads = static_cast<unsigned>(drains);
    Scheduler(opts).run(graph);
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            out += "?";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

bool
writeChromeTrace(const ScheduleReport &report, const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n");
    std::fprintf(f, " \"traceEvents\": [\n");
    bool first = true;
    for (uint32_t w = 0; w < report.modelWorkers; ++w) {
        std::fprintf(f,
                     "%s  {\"name\": \"thread_name\", \"ph\": \"M\", "
                     "\"pid\": 0, \"tid\": %u, \"args\": {\"name\": "
                     "\"worker %u\"}}",
                     first ? "" : ",\n", w, w);
        first = false;
    }
    for (const TaskSpan &span : report.spans) {
        if (span.id == kInvalidTask)
            continue;
        std::fprintf(
            f,
            "%s  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 0, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}",
            first ? "" : ",\n", jsonEscape(span.label).c_str(),
            jsonEscape(span.phase).c_str(), span.worker,
            span.startSec * 1e6, span.costSec * 1e6);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
}

std::string
summarizeSchedule(const ScheduleReport &report)
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof buf,
                  "makespan %.3fs (%.3fx lower bound %.3fs)\n",
                  report.makespanSec,
                  report.lowerBoundSec > 0.0
                      ? report.makespanSec / report.lowerBoundSec
                      : 0.0,
                  report.lowerBoundSec);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "critical path %.3fs, total work %.3fs, "
                  "efficiency %.3f on %u model workers\n",
                  report.criticalPathSec, report.totalWorkSec,
                  report.parallelEfficiency, report.modelWorkers);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "tasks %llu; real: %u threads, steals %llu/%llu "
                  "(hit rate %.3f)\n",
                  static_cast<unsigned long long>(report.tasksExecuted),
                  report.realThreads,
                  static_cast<unsigned long long>(report.steals),
                  static_cast<unsigned long long>(report.stealAttempts),
                  report.stealHitRate());
    out += buf;
    return out;
}

} // namespace propeller::sched
