"""deakit benchmark: the paper's EE-vs-EPI report at three scales.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a deakit checkout; deakit is imported from `src/`.
The run sets up (timed, in fresh interpreters), runs whole rounds of
reports for at least S seconds, then checks every DMU row of every report
against HiGHS and the report's own invariants.  The last line of stdout
is one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from hostspeed import Paced
from workloads import WORK, WORKLOADS, input_dir, make_inputs, report_args

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-ups per run: some before the timed phase, the rest after it, so that
# their median does not hang on the host's speed in one stretch of time
SETUPS_BEFORE, SETUPS_AFTER = 4, 5
MAX_LISTED = 50  # failing rows printed per run


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, int]:
    """Run a child to its end: exit code, stdout, stderr, peak RSS in KiB."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env())
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # never leave the child running
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (proc.returncode, out.decode(), err.read().decode(),
                usage.ru_maxrss)


def timed_setups(workload: str, seed: int, repeats: int,
                 walls: list[float], imports: list[float]) -> None:
    """Set up `repeats` times in fresh interpreters.

    Appends the wall time and the child's own import time.  Set-up is
    mostly process start and imports, which the host-speed probe does not
    track, so its wall time is taken as it is.
    """
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload,
            str(seed)]
    for _ in range(repeats):
        t = time.perf_counter()
        code, out, err, _ = run_child(argv)
        walls.append(time.perf_counter() - t)
        if code != 0:
            sys.exit(f"set-up failed ({code}):\n{err}")
        imports.append(json.loads(out.splitlines()[-1])["import_s"])


class Runner:
    """Runs one report on one panel, through the workload's path."""

    def __init__(self, w, tracer):
        self.w = w
        self.tracer = tracer
        self.child_rss_kib = 0
        self._kept: dict[tuple, tuple] = {}
        if w.path != "cli-process":
            import deakit
            import deakit.cli
            self.dk, self.cli = deakit, deakit.cli

    def warm_up(self, path: Path) -> None:
        tracer, self.tracer = self.tracer, None
        payload = self.cli_report(path)
        self.tracer = tracer
        if payload[0] != "text" or payload[1] != 0:
            sys.exit(f"warm-up report failed: {payload}")

    def report(self, path: Path, fault: bool):
        with (self.tracer.span("report") if self.tracer is not None
              else contextlib.nullcontext()):
            if self.w.path == "api" and not fault:
                return self.api_report(path)
            return self.cli_report(path)

    def cli_report(self, path: Path):
        args = report_args(self.w, path)
        if self.w.path == "cli-process":
            return self.cli_process(args)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.console_main(args)
        except Exception as exc:  # a crash fails the report's rows
            return ("error", f"console_main raised {exc!r}")
        return ("text", code, buf.getvalue())

    def keep(self, i: int, payload):
        """One copy of each distinct output, so memory stays flat.

        Reports are deterministic, so every round repeats the outputs of
        the first; a repeat is kept as a reference to its first copy.
        """
        content = payload[1:]
        if payload[0] == "api":
            content = hashlib.sha256(pickle.dumps(content)).digest()
        return self._kept.setdefault((i, payload[0], content), payload)

    def cli_process(self, args: list[str]):
        if self.tracer is None:
            argv = [sys.executable, "-m", "deakit", *args]
            code, out, err, rss = run_child(argv)
        else:
            code, out, err, rss = self.traced_child(args)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if code != 0:
            return ("error", f"exit {code}: {err.strip()[-300:]}")
        return ("text", code, out)

    def traced_child(self, args: list[str]):
        """A child that wraps the layers itself; its spans join the trace."""
        out_json = WORK / "traces" / "child.json"
        out_json.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "trace",
                str(out_json), *args]
        t = self.tracer
        parent = t.current()
        launched = time.perf_counter()
        result = run_child(argv)
        reaped = time.perf_counter()
        if result[0] == 0:
            got = json.loads(out_json.read_text())
            t.add("interpreter.start", launched, got["t_first"], parent)
            t.add("import", got["t_import"], got["t_imported"], parent)
            t.adopt([tuple(s) for s in got["spans"]], parent)
            t.add("interpreter.exit", got["t_last"], reaped, parent)
        return result

    def api_report(self, path: Path):
        dk = self.dk
        rts = (dk.ReturnsToScale.vrs() if self.w.vrs
               else dk.ReturnsToScale.crs())
        try:
            d = dk.load_csv(path)
            ee = dk.evaluate_all(d, dk.ModelSpec(dk.ModelKind.CCR_OUTPUT, rts))
            epi = dk.evaluate_all(
                d, dk.ModelSpec(dk.ModelKind.SBM_UNDESIRABLE, rts))
            return ("api", ee, epi, dk.compare_models(ee, epi, d))
        except Exception as exc:  # a crash fails the report's rows
            return ("error", f"API pipeline raised {exc!r}")


def timed_phase(runner: Runner, inputs, seconds: float, paced: Paced):
    """Whole rounds until `seconds` have passed.

    Returns [(panel index, payload, raw wall, adjusted wall, start offset)]
    and the phase's wall time.
    """
    reports = []
    t0 = time.perf_counter()
    while True:
        for i, (panel, path) in enumerate(zip(inputs.panels, inputs.paths)):
            if runner.tracer is not None:
                runner.tracer.report = f"r{len(reports)}"
            payload, wall, adjusted, start = paced.measure(
                runner.report, path, panel.raw)
            reports.append((i, runner.keep(i, payload), wall, adjusted,
                            start - t0))
        if time.perf_counter() - t0 >= seconds:
            return reports, time.perf_counter() - t0


def check_reports(w, inputs, reports) -> tuple[int, int, Counter, bool]:
    """attempted rows, failed rows, failures with their counts, correct."""
    import numpy as np
    import reference
    reference.self_check()
    refs = reference.scores(inputs.panels, w.vrs, WORK / "cache")
    seeded = [r for p, r in zip(inputs.panels, refs) if not p.raw]
    print(f"{w.name}: efficient share of the seeded DMUs (HiGHS score 1): "
          + ", ".join(f"{m} {np.mean([r[m] >= 1 - 1e-9 for r in seeded]):.1%}"
                      for m in ("EE", "EPI")))
    memo = {}
    attempted = failed = 0
    failures: Counter = Counter()
    correct = True
    for i, payload, *_ in reports:
        panel = inputs.panels[i]
        if id(payload) not in memo:  # `Runner.keep` shares repeated outputs
            memo[id(payload)] = check_payload(payload, panel, refs[i], w.vrs)
        bad, why = memo[id(payload)]
        attempted += panel.n
        failed += len(bad)
        failures.update(why)
        if bad and not panel.raw:
            correct = False
    return attempted, failed, failures, correct


def check_payload(payload, panel, ref, vrs: bool):
    import checks
    if payload[0] == "error":
        return checks.all_failed(panel, payload[1])
    if payload[0] == "api":
        return checks.check_api_report(*payload[1:], panel, ref, vrs)
    if payload[1] != 0:
        return checks.all_failed(panel, f"exit {payload[1]}")
    return checks.check_cli_report(payload[2], panel, ref)


def print_summary(w, seed, reports, wall, attempted, failed, failures):
    print(f"{w.name} seed {seed}: {len(reports)} reports in {wall:.2f} s")
    print(f"{w.name}: attempted {attempted} DMU rows, failed {failed}")
    if failures:
        print("failing rows (panel, DMU, model, check, deakit, reference, "
              "times):")
    listed = sorted(failures.items())
    for f, times in listed[:MAX_LISTED]:
        print(f"  {f.panel} {f.dmu} {f.model} {f.check}: deakit "
              f"{f.deakit:.9g} reference {f.reference:.9g} (x{times})")
    if len(listed) > MAX_LISTED:
        print(f"  ... and {len(listed) - MAX_LISTED} more")


def print_breakdown(tracer, n_reports: int) -> None:
    """Self time per layer and per report, as a share of traced wall time."""
    from spans import self_times
    agg = self_times(tracer.spans)
    wall = agg["report"][1]
    print(f"traced breakdown, per report ({n_reports} reports); the layers "
          f"cover {100 * (1 - agg['report'][2] / wall):.2f} % of the traced "
          "report wall time:")
    for name, (calls, _total, own) in sorted(agg.items(),
                                             key=lambda kv: -kv[1][2]):
        label = "report (outside every layer)" if name == "report" else name
        print(f"  {label:34s} {calls / n_reports:10.1f} calls "
              f"{own / n_reports:10.6f} s {100 * own / wall:6.2f} %")


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so every child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not (SRC / "deakit" / "__init__.py").is_file():
        print(f"error: no deakit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    setup_walls: list[float] = []
    setup_imports: list[float] = []
    timed_setups(w.name, args.seed, SETUPS_BEFORE, setup_walls, setup_imports)
    inputs = make_inputs(w, args.seed, input_dir(w, args.seed))
    runner = Runner(w, tracer)
    runner.warm_up(inputs.warmup)
    runner.child_rss_kib = 0
    paced = Paced()
    if tracer is not None and w.path != "cli-process":
        tracer.install()
    reports, wall = timed_phase(runner, inputs, args.seconds, paced)
    if tracer is not None:
        tracer.uninstall()
    rss_kib = (runner.child_rss_kib if w.path == "cli-process" else
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    timed_setups(w.name, args.seed, SETUPS_AFTER, setup_walls, setup_imports)

    attempted, failed, failures, correct = check_reports(w, inputs, reports)
    print_summary(w, args.seed, reports, wall, attempted, failed, failures)
    rows = sum(inputs.panels[i].n for i, *_ in reports)
    e2e = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "dmus_per_s": (rows / sum(r[3] for r in reports), "1/s"),
        "report_p50_s": (statistics.median(r[3] for r in reports), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    print(f"raw wall times: dmus_per_s {rows / sum(r[2] for r in reports):.6g}"
          f" 1/s, report_p50_s "
          f"{statistics.median(r[2] for r in reports):.6g} s")
    if tracer is None:
        metrics = e2e
    else:
        from spans import layer_metrics, write_spans
        imports = [s[5] - s[4] for s in tracer.spans if s[3] == "import"]
        metrics = layer_metrics(
            tracer.spans, len(reports),
            statistics.median(imports or setup_imports))
        print_breakdown(tracer, len(reports))
        print("traced end-to-end: " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items()))
        write_spans(tracer.spans,
                    WORK / "traces" / f"{w.name}-seed{args.seed}.jsonl")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    out = WORK / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "result": result, "setup_walls": setup_walls,
        "probes": paced.probes,
        "reports": [(i, start, wall, adjusted)
                    for i, _p, wall, adjusted, start in reports]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
