"""Spans around deakit's layers, installed from outside the package.

Each wrapped function is replaced at every module binding of its name
(the package binds names with `from ... import`), so a call is traced
whichever module it goes through.  Spans are kept in memory and written
as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, function)
WRAPPED = {
    "cli.console_main": ("deakit.cli", "console_main"),
    "dataset.load_csv": ("deakit.dataset", "load_csv"),
    "dataset.validate": ("deakit.dataset", "validate"),
    "models.build_instance": ("deakit.models", "build_instance"),
    "models.evaluate_all": ("deakit.models", "evaluate_all"),
    "models.evaluate_ccr_output": ("deakit.models", "evaluate_ccr_output"),
    "models.evaluate_sbm_undesirable": ("deakit.models",
                                        "evaluate_sbm_undesirable"),
    "models.linearize_sbm": ("deakit.models", "linearize_sbm"),
    "linprog.solve": ("deakit.linprog", "solve"),
    "analysis.compare_models": ("deakit.analysis", "compare_models"),
    "render.render_table": ("deakit.render", "render_table"),
}
# LP assembly and result recovery: the self time of these three
ASSEMBLY = ("models.evaluate_ccr_output", "models.evaluate_sbm_undesirable",
            "models.linearize_sbm")


class Tracer:
    """Records (id, parent, report, name, start, end, attrs) spans.

    `report` labels the spans of the report being run, so the spans of
    one report share it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.report = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def current(self):
        """Id of the innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def add(self, name: str, start: float, end: float, parent=None,
            attrs=None) -> int:
        sid = self._next_id
        self._next_id += 1
        self.spans.append((sid, parent, self.report, name, start, end,
                           attrs))
        return sid

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; spans opened inside it are its children."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        attrs: dict = {}
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.report, name, start, end,
                               attrs or None))

    def adopt(self, spans, parent: int) -> None:
        """Add the spans of a child process under the span `parent`."""
        base = self._next_id
        for sid, p, _r, name, start, end, attrs in spans:
            self.spans.append((base + sid, parent if p is None else base + p,
                               self.report, name, start, end, attrs))
            self._next_id = max(self._next_id, base + sid + 1)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if name == "linprog.solve":
                    attrs["pivots"] = result.iterations
                    attrs["cols"] = int(args[0].A.shape[1])
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import deakit  # noqa: F401  (loads every submodule)
        modules = [m for k, m in sys.modules.items()
                   if k == "deakit" or k.startswith("deakit.")]
        for name, (mod, attr) in WRAPPED.items():
            original = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, binding, wrapper)
                        self._undo.append((m, binding, original))

    def uninstall(self) -> None:
        for m, binding, original in reversed(self._undo):
            setattr(m, binding, original)
        self._undo.clear()


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, parent, report, name, start, end, attrs in spans:
            fh.write(json.dumps({"id": sid, "parent": parent,
                                 "report": report, "name": name,
                                 "start": start, "end": end,
                                 "attrs": attrs}) + "\n")


def self_times(spans) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds, self seconds]."""
    child = defaultdict(float)
    for _sid, parent, report, _n, start, end, _a in spans:
        if parent is not None:
            child[(report, parent)] += end - start
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _p, report, name, start, end, _a in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child[(report, sid)]
    return out


def layer_metrics(spans, n_reports: int, import_s: float) -> dict:
    """The per-layer metrics, per report, in the units of BENCHMARK.json."""
    agg = self_times(spans)

    def per(name: str, field: int) -> float:
        return agg[name][field] / n_reports if name in agg else 0.0

    solves = [a for *_x, name, _s, _e, a in spans if name == "linprog.solve"]
    return {
        "import.s": (import_s, "s"),
        "cli.self_s": (per("cli.console_main", 2), "s"),
        "dataset.load_csv.s": (per("dataset.load_csv", 1), "s"),
        "dataset.validate.calls": (per("dataset.validate", 0), "count"),
        "dataset.validate.s": (per("dataset.validate", 1), "s"),
        "models.build_instance.calls": (per("models.build_instance", 0),
                                        "count"),
        "models.build_instance.s": (per("models.build_instance", 1), "s"),
        "models.assembly.s": (sum(per(n, 2) for n in ASSEMBLY), "s"),
        "models.evaluate_all.self_s": (per("models.evaluate_all", 2), "s"),
        "linprog.solve.calls": (per("linprog.solve", 0), "count"),
        "linprog.solve.s": (per("linprog.solve", 1), "s"),
        "linprog.pivots": (sum(a["pivots"] for a in solves) / n_reports,
                           "count"),
        "linprog.lp_cols_mean": (sum(a["cols"] for a in solves)
                                 / max(len(solves), 1), "count"),
        "analysis.compare_models.self_s": (per("analysis.compare_models", 2),
                                           "s"),
        "render.render_table.s": (per("render.render_table", 1), "s"),
    }
