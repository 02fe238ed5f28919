"""Spans and work counters for the traced run, recorded from outside the library.

While a ``Tracer`` is installed it rebinds module attributes of the library,
so internal calls, which go through the same module globals, are caught too:

- span wrappers around ``integrate.integrate``, ``covering.integrate_covering``,
  ``chart.chart_forward``, ``chart.chart_inverse``, ``chart.pericenter``,
  ``chart.global_flow``, ``verify.bracket_table``,
  ``verify.transit_time_check`` and ``cli.main``;
- a timing wrapper around each field callable passed to ``integrate.integrate``;
- ``integrate.DOP853``, replaced by a subclass that counts attempted and
  accepted steps and times dense-output construction;
- ``integrate.brentq``, timed as event localisation.

A span is ``[name, op, parent, start, end, child_s, leaf_s]``: ``child_s`` is
the time its child spans cover and ``leaf_s`` the time of the field, dense
output and root-finding calls made directly inside it, so self time is
``end - start - child_s - leaf_s``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from mcgehee import chart, cli, covering, integrate, verify

PERF = time.perf_counter

SPANNED = [
    (integrate, "integrate"),
    (covering, "integrate_covering"),
    (chart, "chart_forward"),
    (chart, "chart_inverse"),
    (chart, "pericenter"),
    (chart, "global_flow"),
    (verify, "bracket_table"),
    (verify, "transit_time_check"),
    (cli, "main"),
]


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open = Counter()
        self.counts = Counter()
        self.times = defaultdict(float)
        self.leaf_depth = 0
        self.op = -1
        self._saved: list[tuple] = []

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        for module, attr in SPANNED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(_span_name(module, attr), original))
        for module, attr, wrapper in (
            (integrate, "DOP853", self._recording_solver(integrate.DOP853)),
            (integrate, "brentq", self._leaf("integrate.root", integrate.brentq)),
        ):
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self) -> None:
        self.op += 1

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(*args)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, tracer.op, parent, PERF(), 0.0, 0.0, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = PERF()
                tracer.stack.pop()
                tracer.open[name] -= 1
                if parent >= 0:
                    tracer.spans[parent][5] += rec[4] - rec[3]
            if leave is not None:
                leave(result)
            return result

        return traced

    def _leaf(self, category: str, fn):
        tracer = self

        def timed(*args, **kwargs):
            nested = tracer.leaf_depth > 0
            tracer.leaf_depth += 1
            t0 = PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = PERF() - t0
                tracer.leaf_depth -= 1
                tracer.times[category] += dt
                tracer.counts[category] += 1
                if not nested and tracer.stack:
                    tracer.spans[tracer.stack[-1]][6] += dt

        return timed

    def _recording_solver(self, base):
        tracer = self
        dense = self._leaf("integrate.dense", base.dense_output)

        class RecordingDOP853(base):
            def step(self):
                before = self.nfev
                message = super().step()
                # every attempted DOP853 step evaluates all n_stages stages
                tracer.counts["integrate.attempted"] += (self.nfev - before) // self.n_stages
                if self.status != "failed":
                    tracer.counts["integrate.steps"] += 1
                return message

            def dense_output(self):
                return dense(self)

        return RecordingDOP853

    def _enter_integrate_integrate(self, field_fn, *rest):
        self.counts["integrate.calls"] += 1
        if self.open["chart.global_flow"]:
            self.counts["integrate.calls_in_flow"] += 1
        covering_field = self.open["covering.integrate_covering"] > 0
        category = "covering.field" if covering_field else "model.field"
        return (self._leaf(category, field_fn), *rest)

    def _leave_integrate_integrate(self, traj) -> None:
        if traj.reason == integrate.REASON_STEP_FAILURE:
            self.counts["integrate.step_failures"] += 1

    def _leave_covering_integrate_covering(self, traj) -> None:
        self.counts["covering.calls"] += 1
        if traj.reason == integrate.REASON_EVENT:
            self.counts["covering.event_ended"] += 1

    def _enter_chart_chart_forward(self, *args):
        if self.open["verify.bracket_table"]:
            self.counts["verify.chart_evals_in_tables"] += 1
        return args

    # -- reduction --------------------------------------------------------

    def _durations(self, name: str) -> np.ndarray:
        return np.array([s[4] - s[3] for s in self.spans if s[0] == name])

    def _total(self, name: str, self_time: bool = False) -> float:
        return sum(
            s[4] - s[3] - ((s[5] + s[6]) if self_time else 0.0)
            for s in self.spans if s[0] == name
        )

    def metrics(self, ops: int, import_s: float) -> dict:
        """Per-layer metrics: per op unless the name says per call (ms)."""
        c, t = self.counts, self.times
        flows = self._durations("chart.global_flow")
        tables = len(self._durations("verify.bracket_table"))

        def per_call_ms(durations: np.ndarray, q: float = 50.0) -> float:
            return float(np.percentile(durations, q)) * 1e3 if len(durations) else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        fevals = c["model.field"] + c["covering.field"]
        return {
            "model.field_evals": (c["model.field"] / ops, "count"),
            "model.field_s": (t["model.field"] / ops, "s"),
            "integrate.calls": (c["integrate.calls"] / ops, "count"),
            "integrate.steps": (c["integrate.steps"] / ops, "count"),
            "integrate.fevals_per_step": (ratio(fevals, c["integrate.steps"]), "ratio"),
            "integrate.accept_ratio": (ratio(c["integrate.steps"], c["integrate.attempted"]), "ratio"),
            "integrate.dense_s": (t["integrate.dense"] / ops, "s"),
            "integrate.event_roots": (c["integrate.root"] / ops, "count"),
            "integrate.event_root_s": (t["integrate.root"] / ops, "s"),
            "integrate.self_s": (self._total("integrate.integrate", True) / ops, "s"),
            "integrate.step_failures": (c["integrate.step_failures"] / ops, "count"),
            "covering.calls": (c["covering.calls"] / ops, "count"),
            "covering.fevals": (c["covering.field"] / ops, "count"),
            "covering.s": (self._total("covering.integrate_covering") / ops, "s"),
            "covering.event_ratio": (ratio(c["covering.event_ended"], c["covering.calls"]), "ratio"),
            "chart.forward_ms": (per_call_ms(self._durations("chart.chart_forward")), "ms"),
            "chart.inverse_ms": (per_call_ms(self._durations("chart.chart_inverse")), "ms"),
            "chart.pericenter_s": (self._total("chart.pericenter") / ops, "s"),
            "chart.global_flow_ms": (per_call_ms(flows), "ms"),
            "chart.global_flow_p90_ms": (per_call_ms(flows, 90.0), "ms"),
            "chart.integrations_per_flow": (ratio(c["integrate.calls_in_flow"], len(flows)), "ratio"),
            "verify.bracket_table_s": (self._total("verify.bracket_table") / ops, "s"),
            "verify.chart_evals_per_table": (ratio(c["verify.chart_evals_in_tables"], tables), "ratio"),
            "verify.self_s": (self._total("verify.bracket_table", True) / ops, "s"),
            "cli.self_s": (self._total("cli.main", True) / ops, "s"),
            "init.import_s": (import_s, "s"),
        }

    def exact_counts(self) -> dict:
        """The counts that must repeat exactly for one seed and op count."""
        c = self.counts
        return {
            "integrate.calls": c["integrate.calls"],
            "integrate.steps": c["integrate.steps"],
            "integrate.attempted": c["integrate.attempted"],
            "model.field_evals": c["model.field"],
            "covering.field_evals": c["covering.field"],
            "covering.calls": c["covering.calls"],
            "verify.chart_evals_in_tables": c["verify.chart_evals_in_tables"],
            "verify.bracket_tables": len(self._durations("verify.bracket_table")),
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, child, leaf in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end,
                                     "child_s": child, "leaf_s": leaf}) + "\n")
