"""Benchmark of the mcgehee library: certify, collide and figures workloads.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload in turn

Each measurement runs in a fresh worker process (bench/worker.py), so set-up
time includes the import.  With --trace 0 the end-to-end metrics are
printed; set-up is measured in SETUP_RUNS processes and its median
reported.  With --trace 1 the same ops also run under the tracer and the
per-layer metrics are printed.  Times are rescaled to reference speed by
the probe in bench/speed.py; the measured values are printed beside them.
Every run writes a result file with its provenance under .bench_results/.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

Exit codes: 0 measured (see "correct"), 2 library source missing or bad
arguments, 3 a worker failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ["certify", "collide", "figures"]
SETUP_RUNS = 5
# a single invocation must end within 180 s; leave room to clean up
DEADLINE_S = 170.0

# gated in BENCHMARK.json and printed for every workload
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed and recorded, but not gated: see bench/README.md
REPORTED = {
    "op_p90_ms": "ms",
    "failed_frac": "ratio",
    "err_gate_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload_name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--ops", str(args.ops), "--mode", mode,
    ]
    env = dict(os.environ)
    env.pop("MCGEHEE_LOG", None)
    # one thread: the load is a single closed-loop caller
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"{args.workload_name} worker ({mode}) timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{args.workload_name} worker ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def _provenance(args, worker: dict) -> dict:
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run_git(*a):
            return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": run_git("rev-parse", "HEAD") or None,
               "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
    return {
        "git": git,
        "python": worker["versions"]["python"],
        "numpy": worker["versions"]["numpy"],
        "scipy": worker["versions"]["scipy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "fixed_ops": args.ops or None,
        "ops": worker["attempted"],
        "timed_ops": worker.get("timed_ops"),
        "trace": bool(args.trace),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(args, deadline: float) -> dict:
    main = _worker(args, "run", deadline)
    record = {"provenance": _provenance(args, main), "worker": main}
    attempted = main["attempted"]
    record["correct"] = main["failed_unexpected"] == 0 and main.get("trace", {}).get("outputs_match", True)
    metrics = {}
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in main["trace"]["metrics"].items()}
    else:
        runs = [main] + [_worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
        setups = [r["setup_s"] for r in runs]
        record["setup_runs_s"] = setups
        record["setup_runs_measured_s"] = [r["setup_raw_s"] for r in runs]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": main["ops_per_s"],
            "op_p50_ms": main.get("op_p50_ms"),
            "peak_rss_mb": main["peak_rss_mb"],
            "op_p90_ms": main.get("op_p90_ms"),
            "failed_frac": main["failed"] / attempted,
            "err_gate_ratio": main["err_gate_ratio"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        record["reported"] = {k: {"value": values[k], "unit": u} for k, u in REPORTED.items()}
    record["result"] = {"correct": record["correct"], "attempted": attempted,
                        "failed": main["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{stamp}-{args.workload_name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    _print_table(args, record, path)
    return record["result"]


def _fmt(value) -> str:
    return "omitted" if value is None else f"{value:.6g}"


def _print_table(args, record: dict, path: Path) -> None:
    main = record["worker"]
    result = record["result"]
    print(f"== {args.workload_name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    if main["failed_known_defect"]:
        print(f"   failed ops on known defects (expected at baseline): {main['failed_known_defect']}")
    if main["failed_unexpected"]:
        print(f"   unexpected failures: {main['failed_unexpected']}, first: {main['first_unexpected']}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = ("median of " + ", ".join(f"{s:.4g}" for s in record["setup_runs_s"])
                    + "; measured " + ", ".join(f"{s:.4g}" for s in record["setup_runs_measured_s"]))
        elif name == "ops_per_s":
            note = (f"measured {main['measured']['ops_per_s']:.5g}; host at "
                    f"{main['speed_mean']:.3f} of reference speed, {main['probe_samples']} samples")
        elif name == "op_p50_ms":
            note = (f"n={main['completed']} over {main['timed_ops']} timed ops; "
                    f"measured {main['measured'].get('op_p50_ms', float('nan')):.5g}")
        print(f"   {name:28s} {_fmt(m['value']):>12s} {m['unit']:6s} {note}")
    for name, m in record.get("reported", {}).items():
        note = ""
        if name == "op_p90_ms":
            note = (f"n={main['completed']}, {main.get('op_p90_beyond', 0)} beyond"
                    + ("" if m["value"] is not None else "; fewer than 10 beyond, so omitted"))
        elif name == "failed_frac":
            note = f"{result['failed']}/{result['attempted']}"
        elif name == "err_gate_ratio":
            note = f"outside known defects {main['err_gate_ratio_clean']:.4g}"
        print(f"   {name:28s} {_fmt(m['value']):>12s} {m['unit']:6s} {note}")
    if args.trace:
        trace = main["trace"]
        print(f"   tracing overhead {trace['overhead_frac']:+.1%} over {trace['ops']} ops "
              f"(untraced ops/s {main['ops_per_s']:.5g}); outputs identical under "
              f"tracing: {str(trace['outputs_match']).lower()}; spans in {trace['spans_file']}")
    print(f"   result file {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops instead of --seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mcgehee" / "__init__.py").is_file():
        print(f"run.py: library source src/mcgehee not found under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    # each workload of `all` gets its own 180 s budget
    results = {}
    try:
        for name in names:
            args.workload_name = name
            deadline = time.monotonic() + DEADLINE_S if args.workload == "all" else t_start + DEADLINE_S
            results[name] = run_workload(args, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
