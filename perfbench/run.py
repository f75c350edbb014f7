#!/usr/bin/env python3
"""Build and run the perfbench binary and print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload release|fleet \
      --seed N --seconds S --trace 0|1

Builds perfbench/ (which links the repository's src/ libraries) into
.bench_build/, runs one workload for S seconds and reduces the raw
measurements to the metrics BENCHMARK.json names: the end-to-end metrics
untraced (--trace 0), the per-layer metrics traced (--trace 1).  Prints a
readable report, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  Exits 1 when an output check
failed and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_LIMIT_S = 170.0  # A run, after the build, ends within this.


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no Propeller sources at {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(BUILD), "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_binary(args, raw, deadline):
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--raw", str(raw),
           "--workdir", str(raw.with_suffix(".work"))]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("perfbench overran its time limit")
    if rc.returncode != 0:
        die(f"perfbench exited with {rc.returncode}")
    return json.loads(raw.read_text())


class Ops:
    """Per-op views of a traced run's spans and counters."""

    def __init__(self, raw):
        spans = raw["spans"]
        self_s = stats.self_times(spans)
        self.spans = defaultdict(lambda: defaultdict(list))
        for s in spans:
            self.spans[s["op"]][s["name"]].append(
                dict(s, self=self_s[s["id"]], dur=s["end"] - s["start"]))
        self.counters = defaultdict(lambda: defaultdict(float))
        for c in raw["counters"]:
            self.counters[c["op"]][c["name"]] += c["value"]

    def per_op(self, fn):
        """fn(op) for every op where it is not None."""
        ops = set(self.spans) | set(self.counters)
        return [v for v in (fn(op) for op in sorted(ops)) if v is not None]

    def total(self, op, name, key):
        found = self.spans[op].get(name)
        return sum(s[key] for s in found) if found else None


def overhead(raw):
    """Traced / untraced median latency - 1 over the traced run's
    alternating ops (relink epochs left out)."""
    samples = raw["samples"]
    relinked = samples.get("epoch_relinked", [0] * len(samples["epoch_ms"]))
    lat = {0: [], 1: []}
    for ms, traced, rl in zip(samples["epoch_ms"], samples["op_traced"],
                              relinked):
        if not rl:
            lat[int(traced)].append(ms)
    if not lat[0] or not lat[1]:
        return None
    return stats.median(lat[1]) / stats.median(lat[0]) - 1.0


def schedules(raw, xs):
    """Split per-epoch samples by fleet schedule (one group elsewhere)."""
    tags = raw["samples"].get("epoch_schedule")
    if tags is None or len(tags) != len(xs):
        return [xs]
    groups = defaultdict(list)
    for tag, x in zip(tags, xs):
        groups[tag].append(x)
    return list(groups.values())


def reduce_metric(spec, raw, ops):
    """One metric's value, or None when the run holds no sample of it."""
    samples, values = raw["samples"], raw["values"]
    scale = spec.get("scale", 1.0)
    if "sample" in spec:
        xs = samples.get(spec["sample"], [])
        if not xs:
            return None
        pct = 90 if spec["stat"] == "p90" else 50
        return stats.median([stats.percentile(g, pct)
                             for g in schedules(raw, xs)]) * scale
    if "rate" in spec and isinstance(spec["rate"], str):
        n = len(samples.get(spec["rate"], []))
        return n / values["measured_s"] if n else None
    if "value" in spec:
        v = values.get(spec["value"])
        return None if v is None else v * scale
    if "overhead" in spec:
        return overhead(raw)
    if "span" in spec or "duration" in spec:
        name = spec.get("span") or spec["duration"]
        key = "self" if "span" in spec else "dur"
        xs = ops.per_op(lambda op: ops.total(op, name, key))
        return stats.median(xs) * 1e3 if xs else None
    if "counter" in spec:
        xs = ops.per_op(lambda op: ops.counters[op].get(spec["counter"]))
        return stats.median(xs) * scale if xs else None
    if "rate" in spec:
        counter, span = spec["rate"]

        def rate(op):
            secs = ops.total(op, span, "dur")
            n = ops.counters[op].get(counter)
            return n / secs if secs and n is not None else None
        xs = ops.per_op(rate)
        return stats.median(xs) * scale if xs else None
    if "rss" in spec:
        def peak(op):
            found = ops.spans[op].get(spec["rss"])
            return max(s["rss_mb"] for s in found) if found else None
        xs = ops.per_op(peak)
        return stats.median(xs) if xs else None
    if "step_self" in spec:
        def step_self(op):
            step = ops.total(op, "step", "dur")
            if step is None or "build" in ops.spans[op]:
                return None
            replayed = sum(ops.total(op, g, "dur") or 0.0
                           for g in spec["step_self"])
            return step - replayed
        xs = ops.per_op(step_self)
        return stats.median(xs) * 1e3 if xs else None
    raise ValueError(f"unknown reduction {spec}")


def model_table(ops):
    """Each relink phase's modelled share of the relink beside its
    measured share (the Workflow pulls).  The cost model's error is
    reported, never gated on."""
    rows = [("phase3.wpa", ["phase3.wpa"], "build.wpa"),
            ("phase4.codegen+link", ["phase4.codegen", "phase4.link"],
             "build.propeller_binary"),
            ("phase5.verify", ["phase5.verify"], "build.verify")]
    modelled = defaultdict(list)
    measured = defaultdict(list)
    for op in sorted(ops.counters):
        model = [sum(ops.counters[op].get("model." + p, 0.0) for p in ps)
                 for _, ps, _ in rows]
        meas = [ops.total(op, span, "dur") for _, _, span in rows]
        if sum(model) <= 0 or None in meas:
            continue
        for (label, _, _), m, w in zip(rows, model, meas):
            modelled[label].append(m / sum(model))
            measured[label].append(w / sum(meas))
    if not modelled:
        return []
    lines = ["relink phase           modelled  measured  model error"]
    for label, _, _ in rows:
        m = stats.median(modelled[label])
        w = stats.median(measured[label])
        lines.append(f"  {label:<20} {m:8.1%}  {w:8.1%}  {m - w:+10.1%}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    catalog = json.loads((HERE / "metrics.json").read_text())
    if args.workload not in catalog["workloads"]:
        die(f"unknown workload {args.workload!r}")
    if args.seconds < 1 or args.seed < 0:
        die("--seconds must be >= 1 and --seed >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = bench[kind]
    for m in declared:
        if not stats.valid_name(m["name"]):
            die(f"invalid metric name {m['name']!r}")

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    raw = run_binary(args, runs / f"{args.workload}-{args.seed}-"
                     f"trace{args.trace}.json", deadline)
    ops = Ops(raw)

    ctx = raw["context"]
    print(f"perfbench {args.workload}: seed {ctx['seed']}, holdout seed "
          f"{catalog['holdout_seed']}, jobs {ctx['jobs']} of nproc "
          f"{ctx['nproc']}, {ctx['compiler']} {ctx['build_type']}")
    print(f"  {ctx['app']}, LBR period {ctx['lbr_period']}"
          + (f", {ctx['fleet']}" if "fleet" in ctx else ""))
    print(f"  ops {raw['ops']}, failed {raw['failed_ops']}")
    for line in raw["failures"]:
        print(f"  FAILED {line}")

    metrics = {}
    for m in declared:
        value = reduce_metric(catalog[kind][m["name"]]["reduce"], raw, ops)
        if value is None:
            die(f"{args.workload} measured no sample of {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<28} {value:14.6g} {m['unit']}")

    epochs = raw["samples"]["epoch_ms"]
    if not args.trace:
        print(f"  simulated speedup of the PO "
              f"{raw['values']['speedup_pct']:17.4f} %")
        print(f"  samples: setup {len(raw['samples']['setup_s'])}, relink "
              f"{len(raw['samples']['relink_s'])}, epochs {len(epochs)}")
        mixed = raw["samples"].get("epoch_mixed", [0] * len(epochs))
        for group in schedules(raw, list(zip(epochs, mixed))):
            n = len(group)
            ranked = sorted(group)
            at = {p: "mixed" if ranked[stats.percentile_rank(n, p)][1]
                  else "converged" for p in (50, 90)}
            print(f"  {n} epochs: {stats.beyond(n, 90)} beyond p90 (tail "
                  f"rule {'met' if stats.tail_supported(n, 90) else 'unmet'})"
                  + (f", p50 {at[50]}, p90 {at[90]}"
                     if "epoch_mixed" in raw["samples"] else ""))
    else:
        for line in model_table(ops):
            print("  " + line)
        print(f"  spans: {len(raw['spans'])} in {runs}")

    result = {"correct": raw["failed_ops"] == 0,
              "attempted": raw["ops"], "failed": raw["failed_ops"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
