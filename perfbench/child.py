"""Fresh interpreters started by the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED
        One set-up as a user pays it: import deakit, generate and write
        the workload's inputs, run one small warm-up report.  Prints
        {"import_s": ...}.
    python3 perfbench/child.py trace OUT_JSON REPORT_ARGS...
        Import deakit, wrap its layers, run `deakit REPORT_ARGS...` and
        write the spans and the child's own clock readings to OUT_JSON.

Both need deakit's `src` directory on PYTHONPATH.
"""

import time

T_FIRST = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(workload: str, seed: int) -> None:
    t = time.perf_counter()
    import deakit.cli
    import_s = time.perf_counter() - t
    from workloads import WORKLOADS, input_dir, make_inputs, report_args
    w = WORKLOADS[workload]
    inputs = make_inputs(w, seed, input_dir(w, seed))
    with contextlib.redirect_stdout(io.StringIO()):
        code = deakit.cli.console_main(report_args(w, inputs.warmup))
    if code != 0:
        sys.exit(f"warm-up report exited {code}")
    print(json.dumps({"import_s": import_s}))


def trace(out: str, args: list[str]) -> int:
    t = time.perf_counter()
    import deakit.cli
    t_imported = time.perf_counter()
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    code = deakit.cli.console_main(args)
    sys.stdout.flush()
    Path(out).write_text(json.dumps({
        "t_first": T_FIRST, "t_import": t, "t_imported": t_imported,
        "t_last": time.perf_counter(), "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
