"""One benchmark process: import the library, set up, run the timed ops, check them.

Started by run.py, one fresh process per measurement, so that set-up time
includes the import.  Prints one JSON object as its last line.

  --mode setup   import, build the inputs and run one warm-up op, then stop
  --mode run     also run the timed closed loop and the oracle; with
                 --trace 1 the same ops run a second time under the tracer

Times are reported rescaled to reference speed by bench/speed.py, and also
as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

# an op still running after this long is abandoned and counted as failed
OP_TIMEOUT_S = 30.0
# speed samples taken at the start and at the end of set-up
SETUP_SAMPLES = 10


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def timed_loop(session, seconds: float, max_ops: int, tracer=None, probe=None) -> dict:
    """Closed loop: each op is issued after the previous one returns.

    Runs exactly `max_ops` ops when max_ops > 0.  Otherwise it runs whole
    passes over the session's inputs, at least one, until `seconds` have
    passed, so that every input weighs the same in the latencies.  Each
    op's slot runs from its start to the next op's start, so the slots add
    up to the wall time of the timed phase; the probe's own time is taken
    out of both.
    """
    gen = session.ops()
    item = next(gen)
    ops = []  # (start, latency, slot, returned) per attempted op
    probe_s = (lambda: probe.spent) if probe is not None else (lambda: 0.0)
    spent = probe_s()
    t_start = t_prev = time.perf_counter()
    deadline = t_start + seconds
    while True:
        fn, args = item
        if tracer is not None:
            tracer.begin_op()
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        s0 = probe_s()
        t0 = time.perf_counter()
        try:
            result, exc = fn(*args), None
        except Exception as err:  # an op that raises is a failed op
            result, exc = None, err
        t1 = time.perf_counter()
        s1 = probe_s()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        passes = session.passes
        item = gen.send((result, exc))
        t2 = time.perf_counter()
        s2 = probe_s()
        ops.append((t0, t1 - t0 - (s1 - s0), t2 - t_prev - (s2 - spent), exc is None))
        t_prev, spent = t2, s2
        if max_ops > 0:
            if len(ops) >= max_ops:
                break
        elif t1 >= deadline and session.passes > passes:
            break
    return {"attempted": len(ops), "wall_s": math.fsum(op[2] for op in ops), "ops": ops}


def latency_summary(ops: list[tuple], scale=None) -> dict:
    """Throughput and latency percentiles of a timed loop's ops.

    `scale(start, end)` rescales a duration measured in [start, end]; without
    it the times are as measured.
    """
    latencies, busy = [], 0.0
    for t0, latency, slot, returned in ops:
        factor = scale(t0, t0 + slot) if scale is not None else 1.0
        busy += slot * factor
        if returned:
            latencies.append(latency * factor)
    n = len(latencies)
    out = {"completed": n, "ops_per_s": n / busy if busy > 0 else 0.0}
    if n:
        out["op_p50_ms"] = statistics.median(latencies) * 1e3
        if n >= 2:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            beyond = sum(1 for x in latencies if x > p90)
            out["op_p90_beyond"] = beyond
            # a percentile is reported only with ten samples beyond it
            if beyond >= 10:
                out["op_p90_ms"] = p90 * 1e3
    return out


def verdict_summary(verdicts, repeats_differ: int) -> dict:
    failed = [v for v in verdicts if not v.ok]
    unexpected = [v for v in failed if v.known_defect is None]
    known = {}
    for v in failed:
        if v.known_defect is not None:
            known[v.known_defect] = known.get(v.known_defect, 0) + 1
    def worst(vs) -> float:
        return max((v.ratio for v in vs if math.isfinite(v.ratio)), default=0.0)

    first = unexpected[0].reason if unexpected else ""
    if repeats_differ and not first:
        first = "a repeated op's output differs from its first run"
    return {
        "failed": len(failed) + repeats_differ,
        "failed_known_defect": known,
        "failed_unexpected": len(unexpected) + repeats_differ,
        "repeats_differ": repeats_differ,
        "first_unexpected": first,
        "err_gate_ratio": worst(verdicts),
        "err_gate_ratio_clean": worst(v for v in verdicts if v.known_defect is None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--mode", choices=["setup", "run"], default="run")
    parser.add_argument("--t-spawn", dest="t_spawn", type=float, required=True)
    args = parser.parse_args(argv)

    if not (SRC / "mcgehee" / "__init__.py").is_file():
        print(f"worker: no library source under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import speed  # numpy and scipy.integrate, which the library imports too

    setup_probe = speed.SpeedProbe()
    setup_probe.start()
    setup_probe.sample(SETUP_SAMPLES)
    t_main = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mcgehee
    import mcgehee.cli
    import mcgehee.verify
    import_s = time.perf_counter() - t0 - setup_probe.spent
    if Path(mcgehee.__file__).resolve().parent != SRC / "mcgehee":
        print(f"worker: imported mcgehee from {mcgehee.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads

    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        workload = workloads.make(args.workload, args.seed, scratch)
        timed_loop(workload.session(), 0.0, 1)  # the untimed warm-up op
        setup_probe.sample(SETUP_SAMPLES)
        setup_probe.stop()
        # the interpreter's start, before the probe ran, is counted as measured
        setup_raw_s = time.monotonic() - args.t_spawn - setup_probe.spent
        t_end = time.perf_counter()
        factor = setup_probe.factor(t_main, t_end)
        out = {"setup_s": setup_raw_s * factor,
               "setup_raw_s": setup_raw_s, "setup_speed": factor, "import_s": import_s,
               "versions": {"python": sys.version.split()[0],
                            "numpy": numpy.__version__, "scipy": scipy.__version__}}
        if args.mode == "run":
            out.update(_measure(workload, args, import_s))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        setup_probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


def _measure(workload, args, import_s: float) -> dict:
    import speed

    # a traced run measures one pass untraced, then the same ops traced
    seconds = 0.0 if args.trace else args.seconds
    session = workload.session()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        loop = timed_loop(session, seconds, args.ops, probe=probe)
    finally:
        probe.stop()
    # attempted and failed count the first pass, each of its ops checked by
    # the oracle; a later op repeats an input of that pass and must give
    # the same output
    checked = args.ops or session.pass_ops
    outputs = [repr(o) for o in session.outputs()]
    repeats_differ = sum(1 for i in range(checked, len(outputs))
                         if outputs[i] != outputs[i - checked])
    out = {"attempted": checked, "timed_ops": loop["attempted"], "wall_s": loop["wall_s"],
           "speed_mean": speed.REF_KERNEL_S / probe.mean_kernel_s(), "probe_samples": len(probe.times)}
    out.update(latency_summary(loop["ops"], probe.factor))
    out["measured"] = latency_summary(loop["ops"])
    out.update(verdict_summary(session.check(checked), repeats_differ))
    digest = getattr(workload, "reference", None)  # figures: sha256 of its output
    if digest is not None:
        out["output_sha256"] = digest
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        traced_session = workload.session()
        tracer.install()
        try:
            traced = timed_loop(traced_session, 0.0, loop["attempted"], tracer)
        finally:
            tracer.remove()
        out["trace"] = {
            "ops": traced["attempted"],
            "overhead_frac": traced["wall_s"] / loop["wall_s"] - 1.0,
            "outputs_match": [repr(o) for o in traced_session.outputs()] == outputs,
            "metrics": tracer.metrics(traced["attempted"], import_s),
            "exact_counts": tracer.exact_counts(),
        }
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        out["trace"]["spans_file"] = str(spans.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
