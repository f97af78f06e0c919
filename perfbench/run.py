"""End-to-end and per-layer benchmark for ihkl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every batch runs in a fresh
interpreter (perfbench/worker.py), one after the other: one client in a
closed loop. A run first starts SETUP_SAMPLES interpreters that only set
up, then runs batches while another one, as long as the longest so far,
still fits in ``--seconds`` (at least one; with ``--trace 1`` at least one
untraced and one traced, alternating). It prints each metric by name with
its unit, then, as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Every batch of a run sends the same seeded request list, so each request
is repeated once per batch, each time in a fresh interpreter. The machine
this was built on changes speed by up to 1.6x for tens of seconds at a
time, longer than a batch and often as long as a run, and CPU time moves
with it. So every time below is scaled to reference seconds: the worker
times a fixed probe computation (probe.py) between requests, and each
time is multiplied by probe.REF_S over the median of the probes timed
nearest to it. The unscaled figures are printed beside the scaled ones.
End-to-end metrics:

* setup_s: interpreter start until the inputs are ready (import, JSON
  parse, request generation), scaled, median over every interpreter of
  the run;
* wall_s: time in the program for one batch with tracing off, the sum
  over its requests of each one's median scaled time over the batches;
  the benchmark's own checks and probes are not counted;
* req_p50_ms, req_p90_ms: percentiles over the batch's requests of each
  one's median scaled time;
* peak_rss_mb: the batch interpreter's ru_maxrss, median over batches.

Per-layer metrics are medians over the traced batches, unscaled;
trace.overhead_s is the traced minus the untraced wall_s, both scaled.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
TRACE_DIR = ".perfbench_traces"


def spawn(workload, seed, batch, mode, smoke):
    """Run one worker interpreter; return (result, elapsed s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # hash order changes set iteration and so the amount of work; fix it
    # per seed so that a seed always means the same work
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--mode", mode,
           "--trace-dir", TRACE_DIR]
    if smoke:
        cmd.append("--smoke")
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = (time.monotonic_ns() - t_spawn) / 1e9
    if proc.returncode != 0:
        raise RuntimeError("worker %s batch %d (%s) exited %d:\n%s"
                           % (workload, batch, mode, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = (result["ready_ns"] - t_spawn) / 1e9
    result["setup_s"] = result["setup_raw_s"] * result["setup_factor"]
    return result, elapsed


def percentile(values, q):
    """Nearest-rank percentile, q a whole number of percent."""
    s = sorted(values)
    return s[max(0, -(-q * len(s) // 100) - 1)]


def run(workload, seed, seconds, trace, smoke=False):
    start = time.monotonic()
    setups = [spawn(workload, seed, -1 - i, "setup", smoke)[0]
              for i in range(SETUP_SAMPLES)]
    plain, traced, durations = [], [], []
    batch = 0
    while True:
        mode = "traced" if trace and batch % 2 == 1 else "plain"
        result, elapsed = spawn(workload, seed, batch, mode, smoke)
        (traced if mode == "traced" else plain).append(result)
        setups.append(result)
        durations.append(elapsed)
        batch += 1
        if trace and not traced:
            continue
        if time.monotonic() - start + max(durations) > seconds:
            break
    return summarize(workload, seed, setups, plain, traced)


def typical(batches, key="scaled"):
    """Each request's median over batches, in seconds."""
    return [statistics.median(reps) for reps in zip(*(b[key] for b in batches))]


def summarize(workload, seed, setups, plain, traced):
    batches = plain + traced
    statuses = [s for b in batches for s in b["statuses"]]
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s != "ok")
    correct = "wrong" not in statuses
    best = typical(plain)
    lat_ms = [dt * 1000 for dt in best]
    e2e = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (sum(best), "s"),
        "req_p50_ms": (percentile(lat_ms, 50), "ms"),
        "req_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(b["rss_kb"] for b in plain) / 1024, "MB"),
    }
    print("workload %s, seed %d: %d untraced and %d traced batches, one client, closed loop"
          % (workload, seed, len(plain), len(traced)))
    print("setup_s %.4f s (median of %d interpreters; %.4f s unscaled)"
          % (e2e["setup_s"][0], len(setups),
             statistics.median(s["setup_raw_s"] for s in setups)))
    print("wall_s %.4f s (%d requests, each the median of %d untraced batches; "
          "%.4f s unscaled)" % (e2e["wall_s"][0], len(best), len(plain),
                                sum(typical(plain, "latencies"))))
    print("probe %.2f ms median over batches; times are scaled to %.2f ms a probe"
          % (1000 * statistics.median(b["probe_s"] for b in batches), 1000 * probe.REF_S))
    for name in ("req_p50_ms", "req_p90_ms"):
        print("%s %.3f ms (n=%d requests, each the median of %d)"
              % (name, e2e[name][0], len(lat_ms), len(plain)))
    print("peak_rss_mb %.1f MB" % e2e["peak_rss_mb"][0])
    print("fail_frac %.4f (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    for problem in sorted({p for b in batches for p in b["problems"]}):
        print("  failed: %s" % problem)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(b["layers"][name] for b in traced)
        traced_wall = sum(typical(traced))
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        print("traced: %d spans per batch; wall_s %.4f s traced vs %.4f s untraced"
              % (traced[0]["spans"], traced_wall, e2e["wall_s"][0]))
        if traced[0]["unmeasured"]:
            print("unmeasured (name gone from the program): %s"
                  % ", ".join(traced[0]["unmeasured"]))
        metrics = {}
        for name, (unit, _, _) in spans.LAYER_METRICS.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
                print("%s %s %s" % (name, _fmt(layers[name]), unit))
        if "linalg.rank_share" in layers:
            print("linalg.rank_s is %.1f %% of traced wall_s"
                  % layers["linalg.rank_share"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _fmt(v):
    return "%d" % v if isinstance(v, int) else "%.6f" % v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny batches, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ihkl", "__init__.py")):
        print("run.py: no src/ihkl here; run from the root of an ihkl checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
