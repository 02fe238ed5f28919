"""The standing digests of `tools/digests.py`: three fixed `simulate`
scenarios, the default `verify` report, the `figures all` tree, the end
states of about 200 seeded `global_flow` calls (`RECORDED_FLOW`) and the
certify outputs of 80 seeded chart-domain points (`RECORDED_CERTIFY`).

A refactor keeps every output byte, so these must not move.  numpy and
scipy may round differently from one release to the next, so the values
hold for the versions recorded beside them, and the test skips, naming
both versions, when others are installed.
"""

import ast
import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy

from mcgehee import chart
from mcgehee.model import PhasePoint

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
RECORDED = {
    "simulate n=2": "021d7db16109e0bf",
    "simulate n=3 collision": "96c058ff588f907f",
    "simulate n=4": "bf2136a44ecca152",
    "verify": "a2fbb5eb4b68b113",
    "figures all tree": "84b5d538cd535125…e1ab47",
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


RECORDED_FLOW = "3f1b8150d5a15b9e"


def test_global_flow_keeps_its_recorded_digest():
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_VERSIONS:
        pytest.skip(f"digest recorded with {RECORDED_VERSIONS}, installed {installed}")
    digests = load_digests()
    calls = digests.flow_calls()
    assert len(calls) == 200 and {type(s) for _, s, _ in calls} == {PhasePoint, chart.Collision}
    assert digests.flow_digest(calls) == RECORDED_FLOW


RECORDED_CERTIFY = "201e009daabb1f47"


def test_certify_outputs_keep_their_recorded_digest():
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_VERSIONS:
        pytest.skip(f"digest recorded with {RECORDED_VERSIONS}, installed {installed}")
    digests = load_digests()
    calls = digests.certify_calls()
    assert len(calls) == 80 and {p.n for p, _, _ in calls} == {1, 2, 3, 4, 5}
    assert digests.certify_digest(calls) == RECORDED_CERTIFY


def test_counting_changes_no_output_bit():
    # the same two digests with a `chart.counting()` record open throughout
    installed = {"numpy": np.__version__, "scipy": scipy.__version__}
    if installed != RECORDED_VERSIONS:
        pytest.skip(f"digests recorded with {RECORDED_VERSIONS}, installed {installed}")
    digests = load_digests()
    with chart.counting() as work:
        assert digests.flow_digest(digests.flow_calls()) == RECORDED_FLOW
        assert digests.certify_digest(digests.certify_calls()) == RECORDED_CERTIFY
    assert chart._BoundOrbit in work.passes and chart._RadialOrbit in work.passes and work.roots and work.rows


def test_the_tool_counts_without_rebinding():
    # the work lines read `chart.counting()` records: no attribute store or
    # setattr in tools/digests.py, so no private name is wrapped while calls run
    path = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
    stores = sorted(node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "setattr")
    assert not stores, f"tools/digests.py rebinds names on lines {stores}"


def test_knobs_are_every_flag_and_config_key():
    # flags: simulate 7, verify 3, rmin 8 and figures' --out; keys: simulate
    # 12 (params 5, initial 4), verify 7 (thresholds 4) and rmin 7 (params 5)
    assert load_digests().knobs() == (19, 26)


SRC_CEILING = 3521  # src/mcgehee/*.py lines; a change that grows src/ raises it and says why


def test_src_stays_under_its_ceiling():
    assert load_digests().src_lines() <= SRC_CEILING
