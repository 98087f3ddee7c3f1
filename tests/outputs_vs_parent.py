"""Compare this tree's model outputs with those of another deakit tree,
typically the parent commit's.

    PYTHONPATH=src:tests python tests/outputs_vs_parent.py PARENT_SRC

PARENT_SRC is the other tree's `src` directory (the one that holds
`deakit/`), for example the output of `git archive HEAD^ src`.  Its package
imports itself relatively, so it loads side by side with this one as
`deakit_parent`.  Both trees score the same panels:
- `models._evaluate` under CCR and the SBM, each with CRS and VRS, on
  `table1_panel(30, s)` for s = 0..99 and on `table1_panel(1000, s)` for
  s = 1 and 3;
- `cli.console_main(["report", ..., "--format", "json"])` on
  `table1_panel(1000, 1)`, written to a temporary CSV.

It prints how many runs are bit-identical in score, phi, the three slack
arrays, the final basis and x, the largest score difference, each tree's
pivot work in those runs and whether the two reports' text is identical.
A tree's pivot work is its `Lockstep.step` calls, its pivoting passes (the
sum over those calls of the most pivots any one LP made in the call) and
its LP-pivots (the pivots of all LPs).  It exits 1 if a score moves by
more than 1e-9, a slack (in units of its indicator's panel mean), a rate
or a report number moves by more than 1e-9 relative to max(1, |value|),
or a call raises in one tree only.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys
import tempfile

import numpy as np

import deakit
from oracles import table1_panel

TOL = 1e-9
SHOWN = 20
FIELDS = ("score", "phi", "slack_in", "slack_good", "slack_bad", "basis", "x")


def load_tree(src: str, name: str):
    """The `deakit` package under `src`, imported as `name`."""
    root = os.path.join(src, "deakit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def count_steps(tree) -> dict:
    """Count the calls of `tree`'s `Lockstep.step`, their pivoting passes
    and their LP-pivots in the returned dict."""
    count = {"calls": 0, "passes": 0, "pivots": 0}
    real = tree.linprog.Lockstep.step

    def step(self, ls, *args):
        before = self.iterations[ls]
        out = real(self, ls, *args)
        made = self.iterations[ls] - before
        count["calls"] += 1
        count["passes"] += int(made.max(initial=0))
        count["pivots"] += int(made.sum())
        return out

    tree.linprog.Lockstep.step = step
    return count


def scored(tree, d, kind: str, rts: str):
    """`tree`'s `_evaluate` on the panel `d` under one spec: its columns,
    slacks in mean units and rates, or the exception it raised."""
    panel = tree.Dataset(d.dmu_names, tuple(
        tree.Indicator(i.name, tree.Role(i.role.value))
        for i in d.indicators), d.values)
    spec = tree.ModelSpec(tree.ModelKind(kind), tree.ReturnsToScale(rts))
    try:
        res = tree.models._evaluate(tree.models.build_instance(panel, spec))
    except Exception as exc:  # a raise is compared, not propagated
        return exc
    m, ms = res.tpl.m, res.tpl.m + res.tpl.s1
    unit = res.tpl.unit
    relative = [res.slack_in / unit[:m], res.slack_good / unit[m:ms],
                res.slack_bad / unit[ms:]]
    relative += [rates for _, rates in tree.models._rates(res, panel)]
    return res, relative


def raised(outcome) -> str:
    return (f"raised {outcome!r}" if isinstance(outcome, Exception)
            else "raised nothing")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def moved(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape != b.shape or not np.all(
        np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b)))


def report(tree, path: str) -> str:
    cli, out = importlib.import_module(f"{tree.__name__}.cli"), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.console_main(["report", "--input", path, "--format",
                                 "json"])
    if code:
        raise RuntimeError(f"report exited {code}")
    return out.getvalue()


def report_faults(new: str, old: str) -> list[str]:
    """The cells of two json reports that differ beyond the tolerance."""
    faults = []
    for i, (a, b) in enumerate(zip(json.loads(new), json.loads(old))):
        for key in sorted(set(a) | set(b)):
            va, vb = a.get(key), b.get(key)
            numbers = all(isinstance(v, (int, float)) for v in (va, vb))
            if numbers and moved(va, vb) or not numbers and va != vb:
                faults.append(f"report row {i} {key}: {va!r} against {vb!r}")
    if len(json.loads(new)) != len(json.loads(old)):
        faults.append("the reports have different row counts")
    return faults


def main(parent_src: str) -> int:
    old = load_tree(parent_src, "deakit_parent")
    trees = (deakit, old)
    steps = [count_steps(tree) for tree in trees]
    panels = [(f"table1_panel(30, {s})", table1_panel(30, s))
              for s in range(100)]
    panels += [(f"table1_panel(1000, {s})", table1_panel(1000, s))
               for s in (1, 3)]
    runs, same, worst, faults = 0, dict.fromkeys(FIELDS, 0), 0.0, []
    identical = 0
    for name, d in panels:
        for kind in ("ccr", "sbm-u"):
            for rts in ("crs", "vrs"):
                where = f"{name} {kind} {rts}"
                got, want = (scored(tree, d, kind, rts) for tree in trees)
                runs += 1
                if isinstance(got, Exception) or isinstance(want, Exception):
                    if type(got) is not type(want):
                        faults.append(f"{where}: this tree {raised(got)}, "
                                      f"parent {raised(want)}")
                    continue
                (a, rel_a), (b, rel_b) = got, want
                equal = [same_bits(getattr(a, f), getattr(b, f))
                         for f in FIELDS]
                for f, e in zip(FIELDS, equal):
                    same[f] += e
                identical += all(equal)
                diff = float(np.max(np.abs(a.score - b.score), initial=0.0))
                worst = max(worst, diff)
                if not diff <= TOL:
                    faults.append(f"{where}: a score moved by {diff:.3e}")
                if any(moved(u, v) for u, v in zip(rel_a, rel_b)):
                    faults.append(f"{where}: slacks or rates moved beyond "
                                  f"{TOL:g} relative")
    work = [dict(count) for count in steps]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        with open(path, "w") as f:
            f.write(deakit.render_csv(table1_panel(1000, 1)))
        texts = []
        for tree in trees:
            try:
                texts.append(report(tree, path))
            except Exception as exc:  # a raise is compared, not propagated
                texts.append(exc)
    if any(isinstance(t, Exception) for t in texts):
        text = f"this tree {raised(texts[0])}, parent {raised(texts[1])}"
        if type(texts[0]) is not type(texts[1]):
            faults.append(f"report: {text}")
    else:
        faults += report_faults(*texts)
        text = "identical" if texts[0] == texts[1] else "different"
    print(f"{runs} runs ({len(panels)} panels x 4 specs) against "
          f"{parent_src}")
    print(f"bit-identical in every field: {identical} of {runs}")
    print("bit-identical by field: " + ", ".join(f"{f} {n}"
                                                  for f, n in same.items()))
    print(f"largest score difference: {worst:.3e}")
    for key, what in (("calls", "Lockstep.step calls"),
                      ("passes", "pivoting passes"), ("pivots", "LP-pivots")):
        print(f"{what} in those runs: this tree {work[0][key]}, parent "
              f"{work[1][key]}")
    print(f"report --format json on table1_panel(1000, 1): text {text}")
    for fault in faults[:SHOWN]:
        print(fault)
    print(f"{len(faults)} faults" + (f", the first {SHOWN} shown"
                                     if len(faults) > SHOWN else ""))
    return 1 if faults else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
