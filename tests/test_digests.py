"""The standing digests of `tools/digests.py`: three fixed `simulate`
scenarios, the default `verify` report and the `figures all` tree.

A refactor keeps every output byte, so these must not move.  numpy and
scipy may round differently from one release to the next, so the values
hold for the versions recorded beside them, and the test skips, naming
both versions, when others are installed.
"""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
import scipy

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
