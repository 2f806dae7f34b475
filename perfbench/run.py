#!/usr/bin/env python3
"""The pglrep benchmark.

    python3 perfbench/run.py --workload realize_all --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from the
seed, sets up (import pglrep, turn the inputs into program objects or files,
one warm-up item) in seven fresh processes and reports the median, then runs
passes over the items, one at a time, for --seconds, checking
every output against an answer the benchmark knows independently.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass over the same items and prints the per-layer metrics.  Both
print a report, then one JSON line with the metrics BENCHMARK.json names,
and write a run record with an environment block under perfbench/_work.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = "perfbench/_work"  # relative to ROOT, the working directory of a run
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
MIN_ITEMS = 100


# ---------------------------------------------------------------------------
# Running items
# ---------------------------------------------------------------------------


class Outcomes:
    """Latency and pass/fail of every item attempted in one loop."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.child_maxrss_kb = 0
        self.wall_s = 0.0

    def run(self, workload, item):
        start = time.perf_counter()
        try:
            result = workload.call(item)
        except Exception:  # a raised item is a failed item; keep measuring
            self.latencies.append(time.perf_counter() - start)
            self._fail(traceback.format_exc())
            return
        self.latencies.append(time.perf_counter() - start)
        self.child_maxrss_kb = max(self.child_maxrss_kb, getattr(result, "maxrss_kb", 0))
        if not workload.check(item, result):
            self._fail(f"wrong answer for {item!r:.300}")

    def _fail(self, detail):
        self.failed += 1
        if self.failed == 1:
            print(f"item failed: {detail}", file=sys.stderr)

    @property
    def attempted(self):
        return len(self.latencies)


def run_passes(workload, items, seconds, min_items, on_item=None):
    """Passes over items until `seconds` have gone by and min_items are done.

    The loop stops after the item in flight at the deadline, so every run
    measures the same length of time.  The generator orders the items so
    that every prefix of a pass holds each of the workload's groups in
    proportion, which keeps the mix of a part-pass.  With `seconds` 0 it
    stops at the end of the first pass that reaches min_items.  Successive
    items run on alternate CPUs.
    """
    out = Outcomes()
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            for index, item in enumerate(items):
                if on_item is not None:
                    on_item(index)
                use_cpu(out.attempted)
                out.run(workload, item)
                if seconds and out.attempted >= min_items and time.perf_counter() >= deadline:
                    break
            if out.attempted >= min_items and time.perf_counter() >= deadline:
                break
    finally:
        use_cpu(None)
    out.wall_s = time.perf_counter() - start
    return out


def use_cpu(k):
    """Move this process, and the children it starts, to the k-th CPU (all if None).

    On a shared host each CPU has slow spells of its own, lasting seconds.
    Left to the scheduler, a run stays on one CPU and is fast or slow as a
    whole; alternating spreads every run evenly over the CPUs.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if k is None else {CPUS[k % len(CPUS)]})


def timed_setup(workload, inputs):
    """Seconds to set up and run one warm-up item, the items, and the warm-up's outcome."""
    warm = Outcomes()
    start = time.perf_counter()
    items = workload.setup(inputs, ROOT, WORKDIR)
    warm.run(workload, items[0])
    return time.perf_counter() - start, items, warm


def setup_probe(args):
    """Child process: one set-up from pickled inputs; prints seconds and outcome."""
    with open(args.setup_probe, "rb") as fh:
        inputs = pickle.load(fh)
    seconds, _, warm = timed_setup(workloads.WORKLOADS[args.workload](), inputs)
    print(json.dumps({"setup_s": seconds, "failed": warm.failed}))
    return 0


def probe_setups(workload_name, inputs_path, count):
    samples, failed = [], 0
    for k in range(count):
        use_cpu(k)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--setup-probe", inputs_path],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        failed += probe["failed"]
    use_cpu(count)
    return samples, failed


def fresh_interpreter_ms(session, argv, count):
    """Median wall ms of a fresh `python argv` and the outputs it printed."""
    walls, outputs = [], []
    for _ in range(count):
        start = time.perf_counter()
        result = session.run_child([sys.executable, *argv])
        walls.append((time.perf_counter() - start) * 1000)
        if result.code != 0:
            raise RuntimeError(f"{argv} exited with {result.code}: {result.stderr[-500:]!r}")
        outputs.append(result.stdout)
    return statistics.median(walls), outputs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(out, setup_samples, peak_rss_kb, attempted, failed):
    lat = out.latencies
    n = len(lat)
    return {
        "items_per_s": (n / out.wall_s, "items/s", n),
        "item_ms_p50": (statistics.median(lat) * 1000, "ms", n),
        "item_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1000 if n > 1 else lat[0] * 1000, "ms", n),
        "error_rate": (failed / attempted, "fraction", attempted),
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "reference_loop_s": reference_loop_s(),
        "unix_time": time.time(),
    }


def reference_loop_s():
    """Median time of a fixed pure-Python loop: host-speed metadata, never a scale."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for k in range(300_000):
            x = (x * 31 + k) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(args, inputs, inputs_path):
    workload = workloads.WORKLOADS[args.workload]()
    samples, failed = probe_setups(args.workload, inputs_path, SETUP_SAMPLES - 1)
    seconds, items, warm = timed_setup(workload, inputs)
    samples.append(seconds)
    min_items = MIN_ITEMS if args.limit is None else 1
    out = run_passes(workload, items, args.seconds, min_items)
    if args.workload == "cli_session":
        peak_kb = out.child_maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = out.attempted + warm.attempted + SETUP_SAMPLES - 1
    failed += out.failed + warm.failed
    return end_to_end(out, samples, peak_kb, attempted, failed), attempted, failed


def traced_run(args, inputs):
    from spans import Tracer

    untraced_workload = workloads.WORKLOADS[args.workload]()
    _, items, warm = timed_setup(untraced_workload, inputs)
    untraced = run_passes(untraced_workload, items, 0, 1)
    traced_workload = untraced_workload
    if args.workload == "cli_session":
        traced_workload = workloads.CliSession(in_process=True)
        items = traced_workload.setup(inputs, ROOT, WORKDIR)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(traced_workload, items, 0, 1, on_item=lambda i: setattr(tracer, "item", i))
    finally:
        tracer.uninstall()
    tracer.write_spans(ROOT / WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = {k: (v, unit, 1) for k, (v, unit) in tracer.metrics().items()}
    untraced_ips = untraced.attempted / untraced.wall_s
    traced_ips = traced.attempted / traced.wall_s
    metrics["trace.untraced_items_per_s"] = (untraced_ips, "items/s", untraced.attempted)
    metrics["trace.items_per_s"] = (traced_ips, "items/s", traced.attempted)
    metrics["trace.overhead"] = (untraced_ips / traced_ips, "ratio", 1)

    session = workloads.CliSession()
    session.setup(({}, []), ROOT, WORKDIR)
    startup_ms, _ = fresh_interpreter_ms(session, ["-m", "pglrep.cli", "--help"], STARTUP_SAMPLES)
    _, printed = fresh_interpreter_ms(
        session,
        ["-c", "import time; t = time.perf_counter(); import pglrep.cli; print(time.perf_counter() - t)"],
        STARTUP_SAMPLES,
    )
    metrics["cli.startup_ms"] = (startup_ms, "ms", STARTUP_SAMPLES)
    metrics["cli.import_ms"] = (statistics.median(float(p) * 1000 for p in printed), "ms", STARTUP_SAMPLES)

    attempted = untraced.attempted + traced.attempted + warm.attempted
    failed = untraced.failed + traced.failed + warm.failed
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, help="cap the items in a pass (smoke tests)")
    p.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pglrep" / "__init__.py").is_file():
        print(f"error: no pglrep sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / WORKDIR / "records").mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    inputs = workloads.WORKLOADS[args.workload]().generate(args.seed, WORKDIR, args.limit)
    inputs_path = ROOT / WORKDIR / f"inputs-{os.getpid()}.pkl"
    with open(inputs_path, "wb") as fh:
        pickle.dump(inputs, fh)
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(args, inputs)
        else:
            metrics, attempted, failed = untraced_run(args, inputs, str(inputs_path))
    finally:
        inputs_path.unlink()
        for stale in (ROOT / WORKDIR / "cli").glob(f"std*-{os.getpid()}"):
            stale.unlink()

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "limit": args.limit,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    stamp = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}"
    (ROOT / WORKDIR / "records" / f"{stamp}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={attempted} failed={failed}")
    for key, (value, unit, n) in sorted(metrics.items()):
        print(f"  {key:36s} {value:>16.6g} {unit:9s} samples={n}")
    result = {}
    for m in wanted:
        value, unit, _ = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
