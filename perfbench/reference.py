"""Reference scores from HiGHS, built from the data alone.

Both models are written here as the paper defines them, with
`scipy.optimize.linprog(method="highs")`; nothing of deakit's model or LP
layer is used.  scipy is a dependency of the benchmark, not of deakit.
Scores of a panel are cached under a hash of the panel and of this file.

    python3 perfbench/reference.py < TASKS.pickle > SCORES.pickle

is the worker that `scores` starts: it solves the pickled tasks from its
stdin and pickles their scores to its stdout.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

# Presolve off: on these small dense LPs it only adds time (up to 1.7x).
_OPTIONS = {"presolve": False}
_SOURCE_HASH = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def _linprog(c, **kw) -> float:
    res = linprog(c, method="highs", options=_OPTIONS, **kw)
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP ended: {res.message}")
    return float(res.fun)


def ccr_output(X: np.ndarray, Yg: np.ndarray, k: int, vrs: bool) -> float:
    """EE = 1/phi*, phi* = max phi s.t. X lam <= x_k, Yg lam >= phi yg_k."""
    m, n = X.shape
    c = np.zeros(1 + n)
    c[0] = -1.0
    A_ub = np.block([[np.zeros((m, 1)), X], [Yg[:, k:k + 1], -Yg]])
    b_ub = np.concatenate([X[:, k], np.zeros(Yg.shape[0])])
    eq = {}
    if vrs:
        eq = dict(A_eq=np.concatenate([[0.0], np.ones(n)])[None, :],
                  b_eq=[1.0])
    return 1.0 / -_linprog(c, A_ub=A_ub, b_ub=b_ub, **eq)


def sbm_undesirable(X: np.ndarray, Yg: np.ndarray, Yb: np.ndarray, k: int,
                    vrs: bool) -> float:
    """rho* of the SBM with undesirable outputs (Tone 2004).

    rho = min (1 - mean(s_in / x_k)) /
              (1 + (sum(s_g / yg_k) + sum(s_b / yb_k)) / (s1 + s2))
    s.t. X lam + s_in = x_k, Yg lam - s_g = yg_k, Yb lam + s_b = yb_k,
    solved as the Charnes-Cooper LP over (t, Lam, S_in, S_g, S_b).
    """
    (m, n), s1, s2 = X.shape, Yg.shape[0], Yb.shape[0]
    x0, yg0, yb0 = X[:, k], Yg[:, k], Yb[:, k]
    cols = 1 + n + m + s1 + s2
    rows = 1 + m + s1 + s2 + (1 if vrs else 0)
    A = np.zeros((rows, cols))
    b = np.zeros(rows)
    lam = slice(1, 1 + n)
    s_in = slice(1 + n, 1 + n + m)
    s_g = slice(1 + n + m, 1 + n + m + s1)
    s_b = slice(1 + n + m + s1, cols)
    A[0, 0] = 1.0
    A[0, s_g] = 1.0 / ((s1 + s2) * yg0)
    A[0, s_b] = 1.0 / ((s1 + s2) * yb0)
    b[0] = 1.0
    r = slice(1, 1 + m)
    A[r, 0], A[r, lam], A[r, s_in] = -x0, X, np.eye(m)
    r = slice(1 + m, 1 + m + s1)
    A[r, 0], A[r, lam], A[r, s_g] = -yg0, Yg, -np.eye(s1)
    r = slice(1 + m + s1, 1 + m + s1 + s2)
    A[r, 0], A[r, lam], A[r, s_b] = -yb0, Yb, np.eye(s2)
    if vrs:
        A[-1, 0], A[-1, lam] = -1.0, 1.0
    c = np.zeros(cols)
    c[0] = 1.0
    c[s_in] = -1.0 / (m * x0)
    return _linprog(c, A_eq=A, b_eq=b)


def _cache_path(panel, vrs: bool, cache_dir: Path) -> Path:
    h = hashlib.sha256(_SOURCE_HASH.encode())
    h.update(repr(panel.values.shape).encode())
    h.update(np.ascontiguousarray(panel.values, dtype=float).tobytes())
    h.update(b"vrs" if vrs else b"crs")
    return cache_dir / f"{h.hexdigest()}.json"


def _solve_rows(X, Yg, Yb, vrs: bool, ks: range) -> tuple[list, list]:
    return ([ccr_output(X, Yg, k, vrs) for k in ks],
            [sbm_undesirable(X, Yg, Yb, k, vrs) for k in ks])


def scores(panels, vrs: bool, cache_dir: Path,
           workers: int = 2) -> list[dict[str, np.ndarray]]:
    """EE and EPI of every DMU of each panel, from the cache when present.

    Panels not in the cache are solved in `workers` child processes, 50
    DMUs a task, and written to the cache.  Every child is waited for, on
    every path out, so none outlives the call.
    """
    paths = [_cache_path(p, vrs, cache_dir) for p in panels]
    todo = [(i, panels[i].X, panels[i].Yg, panels[i].Yb, vrs,
             range(k, min(k + 50, p.n)))
            for i, (p, path) in enumerate(zip(panels, paths))
            if not path.exists() for k in range(0, p.n, 50)]
    if todo:
        solved: dict[int, tuple[list, list]] = {}
        for i, ks, ee, epi in sorted(_solve_in_children(todo, workers),
                                     key=lambda r: (r[0], r[1].start)):
            got = solved.setdefault(i, ([], []))
            got[0].extend(ee)
            got[1].extend(epi)
        cache_dir.mkdir(parents=True, exist_ok=True)
        for i, (ee, epi) in solved.items():
            tmp = paths[i].with_suffix(".tmp")
            tmp.write_text(json.dumps({"EE": ee, "EPI": epi}))
            tmp.replace(paths[i])
    return [{k: np.array(v) for k, v in json.loads(path.read_text()).items()}
            for path in paths]


def _solve_in_children(todo: list, workers: int) -> list:
    """[(panel index, DMU range, EE, EPI)] of every task, from child processes.

    Each child gets every `workers`-th task on its stdin.  A child reads all
    of its input before it writes, so the pipes cannot deadlock.
    """
    procs: list[subprocess.Popen] = []
    try:
        for j in range(min(workers, len(todo))):
            proc = subprocess.Popen([sys.executable, __file__],
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
            procs.append(proc)
            proc.stdin.write(pickle.dumps(todo[j::workers]))
            proc.stdin.close()
        results = []
        for proc in procs:
            out = proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0:
                raise RuntimeError(
                    f"HiGHS reference worker exited {proc.returncode}")
            results.extend(pickle.loads(out))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def self_check() -> None:
    """Check the reference on values known in closed form; raise if off."""
    # Canonical pair A = (x 1, y 2, b 1), B = (x 1, y 1, b 2) under CRS:
    # B's radial expansion is 2, and its SBM optimum takes lam_A = 1/2,
    # rho = (1/2) / (1 + (0 + 3/4) / 2) = 4/11.
    X, Yg, Yb = np.array([[1.0, 1.0]]), np.array([[2.0, 1.0]]), \
        np.array([[1.0, 2.0]])
    got = [ccr_output(X, Yg, k, False) for k in range(2)] \
        + [sbm_undesirable(X, Yg, Yb, k, False) for k in range(2)]
    want = [1.0, 0.5, 1.0, 4.0 / 11.0]
    # 1 input, 1 output, CRS: EE_k = (y_k / x_k) / max_j (y_j / x_j).
    x = np.array([2.0, 3.0, 5.0, 4.0, 7.0, 1.5])
    y = np.array([3.0, 2.0, 6.0, 5.0, 4.0, 1.0])
    got += [ccr_output(x[None, :], y[None, :], k, False)
            for k in range(x.size)]
    want += list((y / x) / np.max(y / x))
    err = np.max(np.abs(np.array(got) - np.array(want)))
    if err > 1e-9:
        raise RuntimeError(f"HiGHS reference is off by {err:.3e} on "
                           "closed-form instances")


if __name__ == "__main__":
    pickle.dump([(i, ks, *_solve_rows(X, Yg, Yb, vrs, ks))
                 for i, X, Yg, Yb, vrs, ks in pickle.load(sys.stdin.buffer)],
                sys.stdout.buffer)
