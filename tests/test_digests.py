"""The standing digests of `tools/digests.py`: three fixed `simulate`
scenarios, the default `verify` report and the `figures all` tree.

A refactor keeps every output byte, so these must not move.  numpy and
scipy may round differently from one release to the next, so the values
hold for the versions recorded beside them, and the test skips, naming
both versions, when others are installed.
"""

import hashlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy

from mcgehee import chart
from mcgehee.model import ModelParams, PhasePoint

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
RECORDED = {
    "simulate n=2": "000500df8639f575",
    "simulate n=3 collision": "74a4fe6bcf2b24e5",
    "simulate n=4": "6dc5c2086648c7ad",
    "verify": "1935278b256042be",
    "figures all tree": "faf7943792bc9e51…95b2e3",
}


def load_digests():
    path = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
    spec = importlib.util.spec_from_file_location("digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_keep_their_recorded_digests():
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_VERSIONS:
        pytest.skip(f"digests recorded with {RECORDED_VERSIONS}, installed {installed}")
    assert load_digests().digests() == RECORDED


def test_src_line_count_is_wc_l():
    wc = shutil.which("wc")
    if wc is None:
        pytest.skip("no wc on this system")
    src = Path(__file__).resolve().parents[1] / "src" / "mcgehee"
    out = subprocess.run([wc, "-l", *sorted(map(str, src.glob("*.py")))], capture_output=True, text=True, check=True)
    assert load_digests().src_lines() == int(out.stdout.split()[-2])  # the "total" line


FLOW_KINDS = ("bound", "unbound", "collision launch", "at rest", "radial")
RECORDED_FLOW = "8b581f4832413fdf"


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


def flow_digest(calls) -> str:
    """The first 16 hex digits of the sha256 of every end state's bits."""
    h = hashlib.sha256()
    for params, start, t in calls:
        end = chart.global_flow(params, start, t)
        if isinstance(end, chart.Collision):
            h.update(b"collision" + np.float64(end.h).tobytes() + end.a.tobytes())
        else:
            h.update(end.x.q.tobytes() + end.x.p.tobytes())
    return h.hexdigest()[:16]


def test_global_flow_keeps_its_recorded_digest():
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_VERSIONS:
        pytest.skip(f"digest recorded with {RECORDED_VERSIONS}, installed {installed}")
    calls = flow_calls()
    assert len(calls) == 200 and {type(s) for _, s, _ in calls} == {PhasePoint, chart.Collision}
    assert flow_digest(calls) == RECORDED_FLOW
