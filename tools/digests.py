"""Print the sha256 prefixes of the CLI outputs that refactors must keep.

    python tools/digests.py

Runs, in-process on the checkout this file sits in, the three fixed
`simulate` scenarios, the default `verify` and `figures all`, each into a
fresh temporary directory.  A file digest is the first 16 hex digits of
the sha256 of its bytes; the figures tree hashes each file as
name + NUL + bytes + NUL in sorted name order and prints the first 16 and
the last 6 hex digits.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mcgehee import cli  # noqa: E402

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


def main() -> None:
    for name, digest in digests().items():
        print(f"{name:<24}{digest}")


if __name__ == "__main__":
    main()
