#!/usr/bin/env python3
"""Benchmark of the ``oddpu`` CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Operations go through ``oddpu.cli.main`` in
this warm process, with ``src`` on the path and BLAS/OpenMP threads pinned
to 1.  Every operation's output is checked (``checks.py``).  The last line
of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 times each operation with the reference kernel (``kernel.py``)
sampled inside it, expresses it in kernel units, and reports wall_s,
setup_s (fresh interpreters, launched between operations) and
peak_rss_mb.  --trace 1 alternates untraced and
traced operations and reports the per-layer figures of ``tracing.py``.
Run files (outputs, result JSON, span dumps) go to bench/out.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, "bench", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:             # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import kernel  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Kernel samples per second of an operation (``kernel.SpeedSampler``).
OP_SAMPLE_INTERVAL_S = 0.02
#: Set-up probes launched after each operation.
PROBES_PER_OPERATION = 3
#: Inputs whose objects a set-up probe builds (simulate_many: one round).
SETUP_INPUTS = 8
PROBE_TIMEOUT_S = 150



def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Bench:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.calls = workload.calls
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._rcs = []
        spec = {"kind": workload.kind, "inputs": workload.inputs[:SETUP_INPUTS],
                "calls": self.calls}
        self.probe_spec = os.path.join(OUTDIR, "probe_%s.json" % workload.name)
        with open(self.probe_spec, "w") as fh:
            json.dump(spec, fh)

    def operation(self) -> float:
        """Run one operation; return its wall time.  Looks ``main`` up on
        each call so that the tracer's wrapper is used when installed."""
        t0 = time.perf_counter()
        rcs = [self.cli.main(argv) for argv in self.calls]
        elapsed = time.perf_counter() - t0
        self._rcs = rcs
        return elapsed

    def check(self):
        """Check the last operation's outputs and count it."""
        self.attempted += 1
        bad = ["exit code %s" % rc for rc in self._rcs if rc != 0]
        if not bad:
            try:
                bad = self.workload.check()
            except (OSError, ValueError, KeyError) as exc:
                bad = ["unreadable output: %s" % exc]
        if bad:
            self.failed += 1
            self.problems.extend(bad[:3])

    def output_bytes(self) -> int:
        return sum(os.path.getsize(out) for out in self.workload.outs)

    def probe(self, mode: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "probe.py"),
                               self.probe_spec, mode], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("probe failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(rc != 0 for rc in result["rcs"]):
            raise RuntimeError("probe operation exited %s" % result["rcs"])
        return result


def _another_round_fits(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, at the mean round length so far, ends
    within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed * (rounds + 1) / rounds <= seconds


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced run: each operation is timed with kernel samples inside it,
    then set-up probes are launched and the operation's output checked."""
    sampler = kernel.SpeedSampler(OP_SAMPLE_INTERVAL_S)
    bench.probe("setup")                  # untimed: bytecode and file caches
    op_norm, op_raw, setup_norm, setup_raw, kernel_s = [], [], [], [], []
    start = time.perf_counter()
    while True:
        _, work, norm = sampler.timed(bench.operation)
        op_raw.append(work)
        op_norm.append(norm)
        kernel_s += [d for _, d in sampler.samples]
        for _ in range(PROBES_PER_OPERATION):
            probe = bench.probe("setup")
            setup_raw.append(probe["setup_s"])
            setup_norm.append(probe["setup_norm_s"])
        bench.check()
        if not _another_round_fits(start, len(op_raw), seconds):
            break
    rss = bench.probe("operation")
    metrics = {"wall_s": statistics.median(op_norm),
               "setup_s": statistics.median(setup_norm),
               "peak_rss_mb": rss["maxrss_kb"] / 1024.0}
    raw = {"wall_s": op_raw, "setup_s": setup_raw, "kernel_unit_s": kernel_s}
    for name, values in raw.items():
        print("raw %-18s median %.5f s over %d (min %.5f, max %.5f)"
              % (name, statistics.median(values), len(values), min(values), max(values)))
    return {"metrics": metrics, "raw": raw, "normalised": {"wall_s": op_norm,
                                                           "setup_s": setup_norm}}


def measure_traced(bench: Bench, seconds: float, spans_path: str) -> dict:
    """Traced run: untraced and traced operations alternate."""
    tracer = tracing.Tracer()
    untraced, traced, per_op = [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        untraced.append(bench.operation())
        bench.check()
        tracer.reset()
        tracer.install()
        try:
            traced.append(bench.operation())
        finally:
            tracer.uninstall()
        bench.check()
        figures = tracing.layer_metrics(tracer)
        figures["cli.output_bytes"] = bench.output_bytes()
        per_op.append(figures)
        if first_spans is None:
            first_spans = list(tracer.spans)
        if not _another_round_fits(start, len(traced), seconds):
            break
    tracer.spans[:] = first_spans
    tracer.dump(spans_path)
    metrics = {}
    for name in per_op[0]:
        values = [f[name] for f in per_op]
        if name.endswith((".calls", ".rows", "output_bytes")):
            if len(set(values)) != 1:
                bench.problems.append("%s differs between operations: %s" % (name, values))
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print("raw untraced median %.5f s, traced median %.5f s over %d pairs"
          % (statistics.median(untraced), statistics.median(traced), len(traced)))
    return {"metrics": metrics, "raw": {"untraced_s": untraced, "traced_s": traced}}


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "oddpu", "cli.py")):
        print("error: no oddpu sources under %s; run from the repository root" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from oddpu import cli

    os.makedirs(OUTDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    workload.prepare(cli.main)
    bench = Bench(cli, workload)
    bench.operation()                     # warm-up, untimed and uncounted
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        result = measure_traced(bench, args.seconds,
                                os.path.join(OUTDIR, "spans_%s.csv.gz" % tag))
    else:
        result = measure(bench, args.seconds)
    for problem in bench.problems[:10]:
        print("check failed: %s" % problem)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    summary = {"correct": bench.failed == 0 and not bench.problems,
               "attempted": bench.attempted, "failed": bench.failed,
               "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                       "unit": m["unit"]} for m in declared}}
    with open(os.path.join(OUTDIR, "result_%s.json" % tag), "w") as fh:
        json.dump(dict(summary, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, problems=bench.problems,
                       **{k: v for k, v in result.items() if k != "metrics"}), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
