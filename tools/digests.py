"""Print the sha256 prefixes of the CLI outputs that refactors must keep,
and the size of the library.

    python tools/digests.py

Runs, in-process on the checkout this file sits in, the three fixed
`simulate` scenarios, the default `verify` and `figures all`, each into a
fresh temporary directory.  A file digest is the first 16 hex digits of
the sha256 of its bytes; the figures tree hashes each file as
name + NUL + bytes + NUL in sorted name order and prints the first 16 and
the last 6 hex digits.  The next line hashes the end states of about 200
seeded `global_flow` calls (`flow_calls`, `flow_digest`), and the one
after it the certify outputs of 80 seeded chart-domain points: the bracket
table, the chart roundtrip and the transit time (`certify_calls`,
`certify_digest`).  The work lines read `chart.counting()` records,
which the library fills as it runs (counting changes no output bit): the
mean and the most Newton rounds of the bound and the unbound
`global_flow` solves over `flow_calls` (`flow_rounds`), the mean and the
most node passes of a bound and of an unbound step (`flow_passes`), and
the certify work line the stencil rows of a bracket table for each d and
the node passes of `chart_inverse` over `certify_calls`: their mean and
most for n >= 2, and their most for n = 1 (`certify_work`).  The
pericenter line gives the roots and the mean and the most Newton rounds
of the pericenter and apocenter roots over the n >= 3 bracket tables of
`certify_calls` and over `flow_calls` (`pericenter_rounds`).
The last two lines are the line count of src/mcgehee/*.py, as `wc -l`
gives it, and the knobs a user can set: the CLI's flags and its config
keys (`knobs`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from mcgehee import chart, cli, verify  # noqa: E402
from mcgehee.model import ModelParams, PhasePoint  # noqa: E402

SIMULATE = {
    "simulate n=2": {
        "params": {"n": 2, "d": 2, "eps": 0.1},
        "initial": {"q": [0.05, 0.0], "p": [-6.0, 0.0]},
        "t_span": [0.0, 0.02],
        "output_points": 50,
    },
    "simulate n=3 collision": {
        "params": {"n": 3, "d": 2, "eps": 0.1},
        "initial": {"collision": {"h": -0.5, "a": [1.0, 0.0]}},
        "t_span": [0.0, 0.02],
        "output_points": 30,
    },
    "simulate n=4": {
        "params": {"n": 4, "d": 3, "eps": 0.1},
        "initial": {"q": [0.05, 0.0, 0.0], "p": [-6.0, 1.0, 0.0]},
        "t_span": [0.0, 0.1],
        "output_points": 50,
    },
}


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(argv[:2])} exited {code}")


def digests() -> dict[str, str]:
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, cfg in SIMULATE.items():
            out = tmp / name.replace(" ", "_")
            config = tmp / f"{out.name}.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            _run(["simulate", "--config", str(config), "--out", str(out)])
            found[name] = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()[:16]
        _run(["verify", "--out", str(tmp / "verify")])
        found["verify"] = hashlib.sha256((tmp / "verify" / "verify_report.json").read_bytes()).hexdigest()[:16]
        _run(["figures", "all", "--out", str(tmp / "figures")])
        tree = tree_digest(tmp / "figures")
        found["figures all tree"] = f"{tree[:16]}…{tree[-6:]}"
    return found


FLOW_KINDS = ("bound", "unbound", "collision launch", "at rest", "radial")


def flow_calls():
    """About 200 seeded `global_flow` calls: n = 1-5, d = 2, 3, and in each
    cell bound, unbound, at-rest and radial starts and launches from the
    collision set, each stepped by a signed time from 1e-3 to 1e2 times the
    time scale sqrt(m/Z) r**(1 + alpha/2) at its radius."""
    rng = np.random.default_rng(20261018)
    calls = []
    for n in (1, 2, 3, 4, 5):
        for d in (2, 3):
            params = ModelParams(n=n, d=d, eps=0.1)
            for j in range(20):
                kind = FLOW_KINDS[j % len(FLOW_KINDS)]
                r = 10.0 ** rng.uniform(-2.0, 0.0)
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                v = rng.normal(size=d)
                v -= np.dot(v, u) * u
                v /= np.linalg.norm(v)
                potential = params.Z * r**-params.alpha
                kinetic = {"bound": rng.uniform(0.05, 0.95), "unbound": 10.0 ** rng.uniform(0.02, 2.0)}.get(kind, 1.0)
                speed = np.sqrt(2.0 * params.m * kinetic * potential)
                if kind == "collision launch":
                    start = chart.Collision(h=potential * rng.uniform(-0.9, 2.0), a=u)
                elif kind == "at rest":
                    start = PhasePoint(r * u, np.zeros(d))
                elif kind == "radial":
                    start = PhasePoint(r * u, speed * rng.choice([-1.0, 1.0]) * u)
                else:
                    lean = rng.uniform(-1.0, 1.0)
                    start = PhasePoint(r * u, speed * (lean * u + np.sqrt(1.0 - lean * lean) * v))
                scale = np.sqrt(params.m / params.Z) * r ** (1.0 + 0.5 * params.alpha)
                t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 2.0) * scale
                calls.append((params, start, t))
    return calls


def _state_bytes(state) -> bytes:
    if isinstance(state, chart.Collision):
        return b"collision" + np.float64(state.h).tobytes() + state.a.tobytes()
    return state.x.q.tobytes() + state.x.p.tobytes()


def flow_digest(calls) -> str:
    """The first 16 hex digits of the sha256 of every end state's bits."""
    h = hashlib.sha256()
    for params, start, t in calls:
        h.update(_state_bytes(chart.global_flow(params, start, t)))
    return h.hexdigest()[:16]


def certify_calls():
    """8 seeded `verify.sample_domain_points` per cell, n = 1-5, d = 2, 3,
    each with an inward entry state on the chart's sphere, drawn as
    `cli._random_entry_state` draws it."""
    rng = np.random.default_rng(20261019)
    calls = []
    for n in (1, 2, 3, 4, 5):
        for d in (2, 3):
            params = ModelParams(n=n, d=d, eps=0.1)
            for x in verify.sample_domain_points(params, rng, 8):
                calls.append((params, x, cli._random_entry_state(params, rng)))
    return calls


def certify_digest(calls) -> str:
    """The first 16 hex digits of the sha256 of each point's certify
    outputs: the bracket table's computed and expected values and its three
    family signs, the chart image and the roundtrip state, and the transit
    time of its entry state."""
    h = hashlib.sha256()
    for params, x, entry in calls:
        report = verify.bracket_table(params, x)
        h.update(report.computed.tobytes() + report.expected.tobytes())
        h.update(np.array([report.ab_sign, report.bb_sign, report.ll_sign]).tobytes())
        c = chart.chart_forward(params, x)
        h.update(np.array([c.T, c.H, *c.B, *c.A]).tobytes())
        h.update(_state_bytes(chart.chart_inverse(params, c)))
        h.update(np.float64(verify.transit_time_check(params, entry).measured).tobytes())
    return h.hexdigest()[:16]


# the record's orbit classes: a `_step` on `_BoundOrbit` is "bound", on `_RadialOrbit` "unbound"
KINDS = {"bound": chart._BoundOrbit, "unbound": chart._RadialOrbit}


def flow_rounds(calls) -> dict[str, list[int]]:
    """The Newton rounds (`Solve.iterations`) of each call's `global_flow`
    step by orbit class, from a `chart.counting()` record."""
    with chart.counting() as work:
        for params, start, t in calls:
            chart.global_flow(params, start, t)
    return {kind: [k for c, k in work.rounds if c is cls] for kind, cls in KINDS.items()}


def flow_passes(calls) -> dict[str, list[int]]:
    """The node passes of each call's `global_flow` step by orbit class,
    from a `chart.counting()` record per call (none from a call without a step)."""
    passes = {kind: [] for kind in KINDS}
    for params, start, t in calls:
        with chart.counting() as work:
            chart.global_flow(params, start, t)
        for kind, cls in KINDS.items():
            if any(c is cls for c, _ in work.rounds):  # the call's one step
                passes[kind].append(work.passes.count(cls))
    return passes


def certify_work(calls) -> tuple[dict[int, int], dict[int, list[int]]]:
    """The stencil rows of each d's bracket table (the rows of
    `chart.chart_forward_rows`) and the node passes of each call's
    `chart_inverse` by n, each from a `chart.counting()` record per call."""
    rows, passes = {}, {}
    for params, x, _ in calls:
        with chart.counting() as work:
            verify.bracket_table(params, x)
        rows[params.d] = work.rows
        c = chart.chart_forward(params, x)
        with chart.counting() as work:
            chart.chart_inverse(params, c)
        passes.setdefault(params.n, []).append(len(work.passes))
    return rows, passes


def pericenter_rounds(flows, certifies) -> dict[str, list[int]]:
    """The Newton rounds of each pericenter or apocenter root, over the
    bracket tables of the n >= 3 `certify_calls` ("certify rows") and over
    `flow_calls` ("global_flow"), from a `chart.counting()` record each."""
    with chart.counting() as tables:
        for params, x, _ in certifies:
            if params.n >= 3:
                verify.bracket_table(params, x)
    with chart.counting() as flowing:
        for params, start, t in flows:
            chart.global_flow(params, start, t)
    return {"certify rows": tables.roots, "global_flow": flowing.roots}


def src_lines() -> int:
    """Lines of src/mcgehee/*.py: newline characters, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (SRC / "mcgehee").glob("*.py"))


def knobs() -> tuple[int, int]:
    """The CLI's flags (each option string of each command, but --help) and
    its config keys (each leaf of `cli.COMMANDS`, nested keys included)."""
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = sum(len(a.option_strings) for sub in subs.choices.values() for a in sub._actions
                if not isinstance(a, argparse._HelpAction))

    def leaves(keys: dict) -> int:
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in keys.values())

    return flags, sum(leaves(keys) for keys, _ in cli.COMMANDS.values())


def main() -> None:
    for name, digest in digests().items():
        print(f"{name:<24}{digest}")
    print(f"{'global_flow':<24}{flow_digest(flow_calls())}")
    print(f"{'certify':<24}{certify_digest(certify_calls())}")
    rounds = flow_rounds(flow_calls())
    print(f"{'Newton rounds':<24}" + ", ".join(f"{k} mean {np.mean(v):.3f} max {max(v)}" for k, v in rounds.items()))
    for kind, passes in flow_passes(flow_calls()).items():
        print(f"{kind + ' node passes':<24}mean {np.mean(passes):.3f} max {max(passes)} per step")
    rows, inverse = certify_work(certify_calls())
    many = [k for n, passes in inverse.items() if n >= 2 for k in passes]
    print(f"{'certify work':<24}stencil rows " + ", ".join(f"d={d} {k}" for d, k in sorted(rows.items()))
          + f"; chart_inverse node passes n >= 2 mean {np.mean(many):.3f} max {max(many)}, n = 1 max {max(inverse[1])}")
    roots = pericenter_rounds(flow_calls(), certify_calls())
    print(f"{'pericenter rounds':<24}" + ", ".join(f"{k} {len(v)} roots mean {np.mean(v):.3f} max {max(v)}"
                                                   for k, v in roots.items()))
    print(f"{'src/mcgehee/*.py lines':<24}{src_lines()}")
    flags, keys = knobs()
    print(f"{'CLI flags, config keys':<24}{flags}, {keys}")


if __name__ == "__main__":
    main()
