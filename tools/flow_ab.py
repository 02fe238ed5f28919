"""Time `global_flow` of this checkout against another, op by op.

    python tools/flow_ab.py <other checkout> --seed N

Copies the `src/mcgehee` trees of both checkouts into a temporary
directory under the package names `mcgehee_this` and `mcgehee_other`,
builds the inputs of the benchmark's collide workload for the seed from
`bench/workloads.py` of this checkout (read, not changed), and walks one
pass of it: every orbit's steps, each step flowed by both copies from that
copy's own previous state, the copy that goes first alternating from op to
op.  Interleaving cancels drift in host speed, which between separate runs
can exceed the difference being measured.

Prints, for each copy, the sha256 of its outputs (as the workload's
`outputs()` would list them) and its total time over the timed calls, and
then the ratio other/this: above 1 when this checkout is faster.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAMES = ("mcgehee_this", "mcgehee_other")


def _load(tmp: Path, other: Path) -> list:
    for name, root in zip(NAMES, (ROOT, other)):
        shutil.copytree(root / "src" / "mcgehee", tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    return [(importlib.import_module(f"{name}.chart"), importlib.import_module(f"{name}.model")) for name in NAMES]


def _convert(state, chart, model):
    """A state of the benchmark's package as the same state of `chart`'s."""
    if hasattr(state, "h"):
        return chart.Collision(h=state.h, a=state.a.copy())
    return chart.Regular(model.PhasePoint(state.x.q.copy(), state.x.p.copy()))


def _record(digest, state, exc) -> None:
    """Feed one op's output to the digest, as the workload's `outputs()` lists it."""
    if exc is not None:
        digest.update(repr(exc).encode())
    elif hasattr(state, "h"):
        digest.update(repr(("collision", state.h, state.a.tobytes())).encode())
    else:
        digest.update(repr((state.x.q.tobytes(), state.x.p.tobytes())).encode())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (args.other / "src" / "mcgehee").is_dir():
        parser.error(f"{args.other} has no src/mcgehee")
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        copies = _load(Path(tmp), args.other.resolve())
        orbits = workloads.Collide(args.seed).orbits
        digests = [hashlib.sha256() for _ in copies]
        spent = [0, 0]
        ops = 0
        clock = time.perf_counter_ns
        for orbit in orbits:
            p = orbit.params
            runs = []
            for chart, model in copies:
                params = model.ModelParams(n=p.n, d=p.d, m=p.m, Z=p.Z, eps=p.eps)
                runs.append([chart, params, _convert(orbit.start, chart, model)])
            alive = [True, True]
            for _ in range(workloads.COLLIDE_STEPS_PER_ORBIT):
                if not any(alive):
                    break
                order = (0, 1) if ops % 2 == 0 else (1, 0)
                ops += 1
                for i in order:
                    if not alive[i]:
                        continue
                    chart, params, state = runs[i]
                    exc = None
                    start = clock()
                    try:
                        state = chart.global_flow(params, state, orbit.dt)
                    except Exception as e:  # the workload records it and ends the orbit
                        exc = e
                    spent[i] += clock() - start
                    _record(digests[i], state, exc)
                    runs[i][2] = state
                    alive[i] = exc is None
    for name, digest, ns in zip(NAMES, digests, spent):
        print(f"{name}: outputs {digest.hexdigest()[:16]}  time {ns / 1e9:.4f} s")
    same = digests[0].digest() == digests[1].digest()
    print(f"ops {ops}  outputs {'identical' if same else 'DIFFER'}  time other/this {spent[1] / spent[0]:.4f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
