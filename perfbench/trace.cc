#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <malloc.h>

namespace perfbench {

namespace {

/** A "Vm...:  <n> kB" line of /proc/self/status, in MiB (-1: absent). */
double
statusMb(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return -1.0;
    char line[256];
    double mb = -1.0;
    const size_t n = std::strlen(key);
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
            unsigned long long kb = 0;
            if (std::sscanf(line + n + 1, "%llu", &kb) == 1)
                mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

} // namespace

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    return statusMb("VmHWM");
}

double
currentRssMb()
{
    return statusMb("VmRSS");
}

bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    bool ok = std::fputs("5", f) >= 0;
    ok = std::fclose(f) == 0 && ok;
    return ok;
}

void
trimHeap()
{
    malloc_trim(0);
}

Trace::Trace(bool enabled) : enabled_(enabled), t0_(wallNow()) {}

uint32_t
Trace::open(const std::string &name, uint32_t op, uint32_t parent,
            bool rss)
{
    if (!enabled_)
        return 0;
    Open o;
    o.rss = rss;
    if (rss) {
        // Hand freed heap back first, so the span's allocations fault in
        // fresh pages instead of reusing ones an earlier span left.
        trimHeap();
        resetPeakRss();
        o.rss0 = currentRssMb();
    }
    Span s;
    s.id = static_cast<uint32_t>(spans_.size()) + 1;
    s.parent = parent;
    s.op = op;
    s.name = name;
    o.cpu0 = cpuNow();
    s.start = wallNow() - t0_;
    spans_.push_back(std::move(s));
    open_[spans_.back().id] = o;
    return spans_.back().id;
}

void
Trace::close(uint32_t id)
{
    if (id == 0)
        return;
    Span &s = spans_[id - 1];
    s.end = wallNow() - t0_;
    const Open &o = open_[id];
    s.cpu = cpuNow() - o.cpu0;
    if (o.rss)
        s.rssMb = peakRssMb() - o.rss0;
    open_.erase(id);
}

void
Trace::count(uint32_t op, const std::string &name, double value)
{
    if (enabled_)
        counters_.push_back({op, name, value});
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
