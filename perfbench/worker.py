"""One batch of one workload in a fresh interpreter.

Started by run.py with the checkout root as working directory and
``src`` on PYTHONPATH, so module and ``lru_cache`` caches start cold as
they do for a command-line user. Prints one JSON line: the instant the
inputs were ready (CLOCK_MONOTONIC, comparable with the parent's clock),
the factor that scales times taken around then to reference seconds
(probe.py), and unless ``--mode setup``, every request's latency and
status, raw and scaled, the peak RSS and, with ``--mode traced``, the
per-layer metrics.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-dir")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.prepare(workloads.seeded_rng(args.seed), args.smoke)
    ready_ns = time.monotonic_ns()
    ready = time.perf_counter()
    pacer = probe.Pacer()
    out = {"ready_ns": ready_ns}
    if args.mode == "setup":
        pacer.probe()
        pacer.probe()
        out["setup_factor"] = pacer.factor(ready)
        print(json.dumps(out))
        return

    log = None
    if args.mode == "traced":
        import spans
        log = spans.SpanLog()
        unmeasured = spans.install(log)

    latencies = []
    mids = []
    statuses = []
    problems = []

    def record(i, dt, status, detail):
        latencies.append(dt)
        mids.append(time.perf_counter() - dt / 2)
        statuses.append(status)
        if detail and len(problems) < 20:
            problems.append(detail)
        pacer.maybe_probe()

    if log is not None:
        # record() runs after request i, so the spans that follow are i + 1's
        def record_traced(i, dt, status, detail):
            record(i, dt, status, detail)
            log.current_request = i + 1
        log.current_request = 0
        wl.run(inputs, record_traced)
    else:
        wl.run(inputs, record)
    pacer.probe()

    out.update(latencies=latencies, statuses=statuses, problems=problems,
               scaled=[dt * pacer.factor(t) for dt, t in zip(latencies, mids)],
               setup_factor=pacer.factor(ready),
               probe_s=statistics.median(pacer.durations),
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if log is not None:
        out["layers"] = spans.layer_metrics(log, unmeasured, sum(latencies))
        out["unmeasured"] = unmeasured
        out["spans"] = len(log)
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            log.write(os.path.join(args.trace_dir, "%s-seed%d-batch%d.csv.gz"
                                   % (args.workload, args.seed, args.batch)))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
