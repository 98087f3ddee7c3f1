import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import deakit
import deakit.cli as cli
import deakit.models as models
from deakit import (Column, ModelKind, ModelSpec, ReturnsToScale,
                    compare_models, descriptive_stats, evaluate_all,
                    improvement_targets, load_csv, rank_scores)
from deakit.cli import console_main, parse_args
from oracles import nine_decade, table1_panel
from test_acceptance import published_dataset

PAIR = (b"dmu,in:x,out+:yg,out-:yb,meta:gdp\n"
        b"A,1,2,1,5.0\n"
        b"B,1,1,2,3.0\n")

# five DMUs: B's CCR stage 1 takes more than one pivot
FIVE = (b"dmu,in:x1,in:x2,out+:yg,out-:yb\n"
        b"A,2,3,4,1\nB,3,1,2,2\nC,4,4,5,3\nD,1,5,3,2\nE,5,2,6,4\n")

SPEC = (b"name,role,min,max,mean,sd\n"
        b"x,in,1,9,4,2.5\n"
        b"y,out+,5,50,20,14\n"
        b"b,out-,2,30,10,8\n")


@pytest.fixture
def pair_csv(tmp_path):
    p = tmp_path / "pair.csv"
    p.write_bytes(PAIR)
    return str(p)


@pytest.fixture
def spec_csv(tmp_path):
    p = tmp_path / "spec.csv"
    p.write_bytes(SPEC)
    return str(p)


def run_cli(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_md_canonical(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "report", "--input", pair_csv)
    assert code == 0
    assert "1.00/1" in out
    assert "0.36/2" in out and "0.50/2" in out
    assert "Mean" in out
    assert "Levels by EPI" in out
    assert "level 1: A" in out


def test_report_json_idempotent(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "report", "--input", pair_csv,
                           "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n" == out
    b = json.loads(out)[1]
    assert b["EPI"] == pytest.approx(4 / 11, abs=1e-9)
    assert b["SBM reduce x (%)"] == pytest.approx(50.0, abs=1e-6)


def test_report_csv_parses(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "report", "--input", pair_csv,
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "dmu"
    assert len(rows) == 4  # header + A + B + Mean
    assert "Levels" not in out


def test_stats_roundtrip(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "stats", "--input", pair_csv,
                           "--format", "json")
    assert code == 0
    objs = json.loads(out)
    assert [o["name"] for o in objs] == ["x", "yg", "yb"]
    x = next(o for o in objs if o["name"] == "x")
    assert x["max"] == 1.0 and x["sd"] == 0.0


def test_stats_csv_is_a_synth_spec(capsys, tmp_path):
    # the stats csv of a panel is a synth spec, and the panel synthesized
    # from it has the panel's min and max, and its mean and sd within
    # synthesize_matching's tolerance
    d = table1_panel(30, seed=1)
    panel, spec = tmp_path / "panel.csv", tmp_path / "stats.csv"
    panel.write_text(deakit.render_csv(d))
    code, out, err = run_cli(capsys, "stats", "--input", str(panel),
                             "--format", "csv")
    assert code == 0, err
    spec.write_text(out)
    code, out, err = run_cli(capsys, "synth", "--spec", str(spec),
                             "--n", "50")
    assert code == 0, err
    rtol = deakit.dataset.SYNTH_RTOL
    want, got = descriptive_stats(d), descriptive_stats(load_csv(out.encode()))
    assert [(r.indicator, r.role) for r in got] == \
        [(r.indicator, r.role) for r in want]
    for w, g in zip(want, got):
        assert (g.min, g.max) == (w.min, w.max)
        assert g.mean == pytest.approx(w.mean, rel=rtol)
        assert g.sd == pytest.approx(w.sd, rel=rtol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_stats_near_the_float_range(capsys, tmp_path, fmt):
    # x's squared deviations overflow unscaled: md and csv printed an sd
    # of inf, and json ended in a traceback
    p = tmp_path / "big.csv"
    p.write_bytes(b"dmu,in:x,out+:y\nA,1e308,2\nB,1e307,3\nC,5e307,4\n")
    code, out, err = run_cli(capsys, "stats", "--input", str(p),
                             "--format", fmt)
    assert code == 0, err
    assert "inf" not in out and "nan" not in out
    if fmt == "json":
        assert all(math.isfinite(o["sd"]) for o in json.loads(out))


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize("command,column,header", [
    ("report", "meta:dmu", "dmu"), ("report", "meta:EE", "EE"),
    ("report", "meta:EE rank", "EE rank"),
    ("report", "meta:SBM reduce yb (%)", "SBM reduce yb (%)"),
    ("corr", "in:indicator", "indicator")])
def test_repeated_header_exit_1(capsys, monkeypatch, tmp_path, command,
                                column, header, fmt):
    # a panel column whose header the table already has: json once printed
    # one of the two under it, and csv both.  The headers depend on the
    # panel only, so no model runs
    monkeypatch.setattr(cli, "_evaluate",
                        lambda *args: pytest.fail("a model ran"))
    p = tmp_path / "panel.csv"
    p.write_text(f"dmu,in:x,out+:yg,out-:yb,{column}\n"
                 "A,1,2,1,10\nB,1,1,2,3\nC,2,3,1,4\n")
    code, out, err = run_cli(capsys, command, "--input", str(p),
                             "--format", fmt)
    assert code == 1 and out == ""
    assert err == f"error: repeated column header {header!r}\n"


def test_report_prints_a_meta_column_named_as_a_rate_ccr_lacks(capsys,
                                                               tmp_path):
    # CCR reports no undesirable-output rate, so a meta column under that
    # header repeats none: the report prints it after the rates
    p = tmp_path / "panel.csv"
    p.write_text("dmu,in:x,out+:yg,out-:yb,meta:CCR reduce yb (%)\n"
                 "A,1,2,1,10\nB,1,1,2,3\nC,2,3,1,4\n")
    code, out, err = run_cli(capsys, "report", "--input", str(p),
                             "--format", "csv")
    assert code == 0, err
    assert [line.rsplit(",", 1)[1] for line in out.splitlines()] == [
        "CCR reduce yb (%)", "10", "3", "4", "5.666666666666667"]


def test_corr_command(capsys, tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"dmu,in:x,out+:y,out-:b\n"
                  b"A,1,1,2\nB,2,3,2.5\nC,3,2,5\n")
    code, out, _ = run_cli(capsys, "corr", "--input", str(p),
                           "--format", "json", "--method", "spearman")
    assert code == 0
    objs = json.loads(out)
    row_x = next(o for o in objs if o["indicator"] == "x")
    assert row_x["x"] == pytest.approx(1.0)
    assert row_x["y"] == pytest.approx(0.5)


def test_rank_command(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "rank", "--input", pair_csv,
                           "--model", "ccr", "--format", "json")
    assert code == 0
    objs = json.loads(out)
    assert [(o["dmu"], o["rank"]) for o in objs] == [("A", 1), ("B", 2)]


def test_evaluate_command_sbm(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "evaluate", "--input", pair_csv,
                           "--model", "sbm-u", "--format", "json")
    assert code == 0
    objs = json.loads(out)
    b = objs[1]
    assert b["score"] == pytest.approx(4 / 11, abs=1e-9)
    assert b["reduce yb (%)"] == pytest.approx(75.0, abs=1e-6)


def test_evaluate_ccr_md_zero_cells(capsys, pair_csv):
    code, out, _ = run_cli(capsys, "evaluate", "--input", pair_csv,
                           "--model", "ccr")
    assert code == 0
    a_line = [ln for ln in out.splitlines() if ln.startswith("| A")][0]
    cells = [c.strip() for c in a_line.strip("|").split("|")]
    assert cells[1] == "1.00"
    assert cells[2] == "0" and cells[3] == "0"


def test_synth_emits_loadable_dataset(capsys, spec_csv):
    code, out, _ = run_cli(capsys, "synth", "--spec", spec_csv,
                           "--n", "11", "--seed", "9")
    assert code == 0
    d = load_csv(out.encode())
    assert d.n_dmus == 11
    assert [i.role.value for i in d.indicators] == ["in", "out+", "out-"]


def test_synth_deterministic(capsys, spec_csv):
    _, out1, _ = run_cli(capsys, "synth", "--spec", spec_csv,
                         "--n", "7", "--seed", "3")
    _, out2, _ = run_cli(capsys, "synth", "--spec", spec_csv,
                         "--n", "7", "--seed", "3")
    assert out1 == out2


@pytest.mark.parametrize("n", ["0", "-2"])
def test_synth_rejects_fewer_than_one_dmu(capsys, tmp_path, n):
    p = tmp_path / "const.csv"
    p.write_bytes(b"name,role,min,max,mean,sd\nx,in,2,2,2,0\n")
    code, out, err = run_cli(capsys, "synth", "--spec", str(p), "--n", n)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_missing_file_exit_1(capsys):
    code, out, err = run_cli(capsys, "evaluate", "--model", "ccr",
                             "--input", "missing.csv")
    assert code == 1
    assert out == ""
    assert "file not found" in err


def test_data_error_exit_1(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"dmu,in:x,out+:y\nA,0,1\n")
    code, _, err = run_cli(capsys, "stats", "--input", str(p))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv,fragment", [
    (("stats", "--input", "{dir}"), "Is a directory"),
    (("stats", "--input", "{latin1}"), "not UTF-8"),
    (("synth", "--spec", "{latin1}", "--n", "4"), "not UTF-8"),
    (("synth", "--spec", "{spec}", "--n", "4", "--seed", "-1"), "seed >= 0"),
    *((("report", "--input", "{meta}", "--format", fmt), "non-finite value")
      for fmt in ("md", "csv", "json")),
    (("synth", "--spec", "{zero_in}", "--n", "11"), "non-positive value"),
    (("synth", "--spec", "{dup_name}", "--n", "11"), "duplicate indicator"),
    (("synth", "--spec", "{no_good}", "--n", "11"), "no desirable output"),
    (("synth", "--spec", "{inf_max}", "--n", "11"), "inconsistent stats"),
    (("synth", "--spec", "{huge_sd}", "--n", "11"), "achievable range"),
    (("report", "--input", "{no_bads}"), "no 'out-' column"),
    (("evaluate", "--model", "sbm-u", "--input", "{no_bads}"),
     "no 'out-' column"),
], ids=["directory", "latin1-input", "latin1-spec", "negative-seed",
        "non-finite-meta-md", "non-finite-meta-csv", "non-finite-meta-json",
        "synth-zero-input", "synth-duplicate-name", "synth-no-good",
        "synth-infinite-max", "synth-sd-past-float-range",
        "report-no-bads", "evaluate-sbm-no-bads"])
def test_input_fault_exit_1(capsys, tmp_path, spec_csv, argv, fragment):
    # each of these once ended in a traceback; or (non-finite meta cells,
    # in csv and md) in a report that printed nan and inf; or (synth) in a
    # panel that load_csv rejects, and exit 0; or (no 'out-' column) in an
    # error naming an API keyword the CLI cannot pass; or (synth, an
    # infinite max) in the range [inf, nan]
    head = b"name,role,min,max,mean,sd\n"
    files = {
        "latin1": b"dmu,in:caf\xe9,out+:y\nA,1,2\n",
        "meta": b"dmu,in:x,out+:y,out-:b,meta:z\nA,1,2,1,nan\nB,1,1,2,inf\n",
        "zero_in": head + b"x,in,0,9,4,2.5\ny,out+,5,50,20,14\n",
        "dup_name": head + b"x,in,1,9,4,2.5\nx,out+,5,50,20,14\n",
        "no_good": head + b"x,in,1,9,4,2.5\nb,out-,2,30,10,8\n",
        "inf_max": head + b"x,in,1,inf,4,2.5\ny,out+,5,50,20,14\n",
        "huge_sd": head + b"x,in,1e-300,1e300,1e299,1e300\n"
                          b"y,out+,5,50,20,14\n",
        "no_bads": b"dmu,in:x,out+:y\nA,1,2\nB,1,1\n"}
    paths = {"dir": tmp_path, "spec": spec_csv}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(text)
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_report_checks_thresholds_before_any_lp(capsys, pair_csv,
                                                monkeypatch, fmt):
    # only md prints the levels, but every format rejects the thresholds
    monkeypatch.setattr(cli, "_evaluate",
                        lambda *args: pytest.fail("an LP ran"))
    code, out, err = run_cli(capsys, "report", "--input", pair_csv,
                             "--t1", "5", "--t2", "7", "--format", fmt)
    assert code == 1 and out == ""
    assert err == ("error: thresholds must satisfy 0 < t2 < t1 < 1, "
                   "got (5.0, 7.0)\n")


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_report_checks_the_sbm_gate_before_any_lp(capsys, tmp_path,
                                                  monkeypatch, fmt):
    # whether the SBM can run depends on the panel only, so a panel with
    # no 'out-' column solves no CCR LP either
    monkeypatch.setattr(cli, "_evaluate",
                        lambda *args: pytest.fail("an LP ran"))
    p = tmp_path / "no_bads.csv"
    p.write_bytes(b"dmu,in:x,out+:y\nA,1,2\nB,1,1\n")
    code, out, err = run_cli(capsys, "report", "--input", str(p),
                             "--format", fmt)
    assert code == 1 and out == ""
    assert err == ("error: no 'out-' column: the SBM with undesirable "
                   "outputs needs one\n")


@pytest.fixture
def validate_calls(monkeypatch):
    """The panels `validate` is called on; the spy replaces every module
    binding of `validate`, as the benchmark's spans do."""
    real, calls = deakit.dataset.validate, []

    def spy(d):
        calls.append(d)
        return real(d)

    for name, mod in list(sys.modules.items()):
        if name.startswith("deakit") and getattr(mod, "validate",
                                                 None) is real:
            monkeypatch.setattr(mod, "validate", spy)
    return calls


def test_report_validates_its_panel_once(capsys, pair_csv, validate_calls):
    code, _, err = run_cli(capsys, "report", "--input", pair_csv)
    assert code == 0, err
    assert len(validate_calls) == 1


def test_api_path_validates_its_panel_once(pair_csv, validate_calls):
    # the Dataset checks itself when load_csv builds it; neither model
    # nor the comparison checks it again
    d = load_csv(pair_csv)
    ee = evaluate_all(d, ModelSpec(ModelKind.CCR_OUTPUT))
    epi = evaluate_all(d, ModelSpec(ModelKind.SBM_UNDESIRABLE))
    assert len(compare_models(ee, epi, d)) == 3
    assert validate_calls == [d]


def test_usage_error_exit_2(capsys, pair_csv, spec_csv):
    # synth always writes CSV, and no command takes --verbose
    for argv in (["evaluate", "--input", pair_csv],  # --model missing
                 ["frobnicate"],
                 ["synth", "--spec", spec_csv, "--n", "4", "--format", "json"],
                 ["rank", "--input", pair_csv, "--model", "ccr", "--verbose"],
                 ["evaluate", "--input", pair_csv, "--model", "ccr",
                  "--verbose"],
                 ["report", "--input", pair_csv, "--verbose"]):
        with pytest.raises(SystemExit) as exc:
            console_main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv,message", [
    (["report", "--rts", "nirs"],
     "argument --rts: invalid choice: 'nirs' (choose from 'crs', 'vrs')"),
    (["rank", "--model", "ccr", "--rts", "nirs"],
     "argument --rts: invalid choice: 'nirs' (choose from 'crs', 'vrs')"),
    (["evaluate", "--model", "dea"],
     "argument --model: invalid choice: 'dea' (choose from 'ccr', 'sbm-u')")],
    ids=["report-rts", "rank-rts", "evaluate-model"])
def test_model_and_rts_tokens_are_the_enums(capsys, pair_csv, argv, message):
    # the choices are the enums' values in definition order
    with pytest.raises(SystemExit) as exc:
        console_main([*argv, "--input", pair_csv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_epsilon_shift_flag(capsys, tmp_path):
    p = tmp_path / "z.csv"
    p.write_bytes(b"dmu,in:x,out+:y\nA,1,2\nB,1,0\n")
    code, _, _ = run_cli(capsys, "stats", "--input", str(p))
    assert code == 1
    with pytest.warns(UserWarning):
        code, out, _ = run_cli(capsys, "stats", "--input", str(p),
                               "--epsilon-shift", "--format", "json")
    assert code == 0


def test_byte_identical_reruns(capsys, pair_csv):
    runs = [run_cli(capsys, "report", "--input", pair_csv,
                    "--format", "csv")[1] for _ in range(2)]
    assert runs[0] == runs[1]


def test_md_rounding_never_alters_ranking():
    from deakit import rank_scores
    # scores that round to the same 2-decimal string but differ by > tol
    scores = [0.5009, 0.4951, 0.49]
    ranks = rank_scores(scores)
    assert ranks == [1, 2, 3] or ranks[0] == 1
    # ties within tol share rank even when rounding separates them
    assert rank_scores([0.5001, 0.4999]) == [1, 1]


def test_parse_args_defaults(pair_csv):
    cfg = parse_args(["report", "--input", pair_csv])
    assert cfg.command == "report"
    assert cfg.fmt == "md" and cfg.rts == "crs"
    assert cfg.t1 == 0.999 and cfg.t2 == 0.20
    cfg2 = parse_args(["corr", "--input", pair_csv, "--method", "spearman"])
    assert cfg2.method == "spearman"


def test_rank_wide_range_panel_scores_or_reports_error(tmp_path, capsys):
    # columns spanning 9 decades once crashed `rank` with a traceback
    path = tmp_path / "wide.csv"
    path.write_text(deakit.render_csv(nine_decade(89, 30)))
    code, out, err = run_cli(capsys, "rank", "--input", str(path),
                             "--model", "ccr", "--rts", "vrs")
    assert code in (0, 1)
    if code:
        assert err.startswith("error:")
    else:
        assert "d12" in out


def test_rank_solver_failure_prints_error(capsys, pair_csv, monkeypatch):
    # phi = 0 from the lockstep solve and from the cold retry
    # the stand-in batch adopts the cold retry's solution as a no-op
    monkeypatch.setattr(models, "_solve_stage",
                        lambda tpl, ks, *args, **kwargs: SimpleNamespace(
                            objective=np.zeros(ks.size),
                            adopt=lambda l, basis, x: None))
    monkeypatch.setattr(models.linprog, "solve", lambda lp: SimpleNamespace(
        status=models.Status.OPTIMAL, objective=-0.0, basis=(),
        primal=np.empty(0)))
    code, out, err = run_cli(capsys, "rank", "--input", pair_csv,
                             "--model", "ccr")
    assert code == 1
    assert out == ""
    assert err.startswith("error: CCR stage 1 for DMU 'A'")


def test_report_ignores_former_solver_knobs(tmp_path):
    # earlier versions read DEA_BACKEND and DEA_ITER_CAP at import and per
    # solve; the package reads no environment variable, so they change
    # nothing
    path = tmp_path / "five.csv"
    path.write_bytes(FIVE)
    env = {k: v for k, v in os.environ.items()
           if k not in ("DEA_BACKEND", "DEA_ITER_CAP")}
    # the child must import the same deakit as this process, whether it
    # was found through PYTHONPATH or an install
    pkg_root = str(Path(deakit.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    knobs = dict(env, DEA_BACKEND="nope", DEA_ITER_CAP="1")

    found = subprocess.run(
        [sys.executable, "-c", "import deakit; print(deakit.__file__)"],
        capture_output=True, text=True, env=knobs)
    assert found.returncode == 0, found.stderr
    assert (Path(found.stdout.strip()).resolve()
            == Path(deakit.__file__).resolve())

    outs = []
    for e in (env, knobs):
        run = subprocess.run(
            [sys.executable, "-m", "deakit", "report", "--input", str(path),
             "--format", "json"], capture_output=True, env=e)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])[1]["EE"] == pytest.approx(2 / 3, abs=1e-12)


GOLDEN = Path(__file__).parent / "golden"
# each golden file is the md stdout of `deakit <args> --input panel.csv`
# on `golden_panel()`; md only, because its rounding hides the last-digit
# differences between BLAS builds that csv and json (17 digits) would show
GOLDEN_CASES = {
    "report-crs": ("report", "--rts", "crs"),
    "report-vrs": ("report", "--rts", "vrs"),
    "evaluate-ccr-crs": ("evaluate", "--model", "ccr", "--rts", "crs"),
    "evaluate-sbm-u-vrs": ("evaluate", "--model", "sbm-u", "--rts", "vrs"),
    "rank-ccr-vrs": ("rank", "--model", "ccr", "--rts", "vrs"),
    "rank-sbm-u-crs": ("rank", "--model", "sbm-u", "--rts", "crs"),
}


def golden_panel() -> str:
    """40 DMUs: two inputs, two desirable outputs, one undesirable output
    and a meta column, lognormal around per-column scales."""
    rng = np.random.default_rng(2011)
    header = ("dmu,in:labor,in:capital,out+:gdp,out+:exports,out-:waste,"
              "meta:population")
    scales = np.array([50.0, 800.0, 300.0, 40.0, 12.0, 4000.0])
    values = scales * rng.lognormal(0.0, 0.7, (40, scales.size))
    lines = [header] + [
        f"p{i + 1:02d}," + ",".join(repr(float(v)) for v in row)
        for i, row in enumerate(values)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_md_output_matches_golden(capsys, tmp_path, name):
    path = tmp_path / "panel.csv"
    path.write_text(golden_panel())
    code, out, err = run_cli(capsys, *GOLDEN_CASES[name], "--input",
                             str(path))
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.md").read_bytes().decode()


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py replaces these functions by name to time them; a
    # renamed or removed one fails only the traced benchmark runs
    import importlib
    import importlib.util
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, name in spans.WRAPPED.values():
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name}"


def api_tables(d, rts):
    """{command args: columns} of `report`, `evaluate` under both models and
    `rank` on the panel `d`, built cell by cell from the API's objects:
    `compare_models` records, `evaluate_all` results and their
    `improvement_targets`."""

    def rate_columns(prefix, reports, bads):
        """One column per rate of the RateReports `reports`, each of which
        holds exactly the panel's rates in the panel's order."""
        columns = []
        for verb, attr, names in (
                ("reduce", "input_reduction_pct", d.input_names),
                ("reduce", "bad_reduction_pct",
                 d.bad_names if bads else ()),
                ("increase", "good_increase_pct", d.good_names)):
            cells = [getattr(rep, attr) for rep in reports]
            assert all(list(c) == list(names) for c in cells)
            columns += [Column(f"{prefix}{verb} {name} (%)", "rate",
                               [c[name] for c in cells]) for name in names]
        return columns

    token = rts.value
    results = {kind: evaluate_all(d, ModelSpec(kind, rts))
               for kind in ModelKind}
    records = compare_models(results[ModelKind.CCR_OUTPUT],
                             results[ModelKind.SBM_UNDESIRABLE], d)
    meta = sorted(records[0].meta)
    tables = {("report", "--rts", token): [
        Column("dmu", "text", [rec.dmu for rec in records]),
        Column("EE", "score", [rec.ee for rec in records],
               [rec.ee_rank for rec in records]),
        Column("EPI", "score", [rec.epi for rec in records],
               [rec.epi_rank for rec in records]),
        *rate_columns("CCR ", [rec.ccr_rates for rec in records], False),
        *rate_columns("SBM ", [rec.sbm_rates for rec in records], True),
        *(Column(name, "num", [rec.meta[name] for rec in records])
          for name in meta)]}
    for kind, rs in results.items():
        args = ("--model", kind.value, "--rts", token)
        dmu = Column("dmu", "text", [r.dmu for r in rs])
        score = Column("score", "score", [r.score for r in rs])
        tables[("evaluate", *args)] = [dmu, score, *rate_columns(
            "", [improvement_targets(r, d) for r in rs],
            kind is ModelKind.SBM_UNDESIRABLE)]
        tables[("rank", *args)] = [dmu, score, Column(
            "rank", "int", rank_scores(score.values))]
    return tables


def agreement_panel(name: str):
    return {"golden": lambda: load_csv(golden_panel().encode()),
            "paper11": published_dataset,
            "table1-30": lambda: table1_panel(30, seed=1),
            "table1-wave": lambda: table1_panel(models.WAVE_FROM + 44,
                                                seed=1)}[name]()


@pytest.mark.parametrize("name,rts", [
    ("golden", "crs"), ("golden", "vrs"), ("paper11", "crs"),
    ("table1-30", "vrs"), ("table1-wave", "crs"), ("table1-wave", "vrs")])
def test_cli_matches_api_in_full_precision(capsys, tmp_path, name, rts):
    # the CLI reads the models' arrays, not the API's objects; its json and
    # csv carry 17 digits, so they show any difference the md goldens round
    # away
    d = agreement_panel(name)
    path = tmp_path / f"{name}.csv"
    path.write_text(deakit.render_csv(d))
    tables = api_tables(d, ReturnsToScale(rts))
    for args, columns in tables.items():
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, *args, "--input", str(path),
                                     "--format", fmt)
            assert code == 0, err
            assert out == deakit.render_table(columns, fmt), (args, fmt)


def test_report_allocates_no_n_by_n_array(capsys, tmp_path):
    # lambda is kept as each DMU's basic entries, and full-width pricing
    # runs in blocks, so a report's traced peak stays well below one n x n
    # array of floats
    n = 2000
    path = tmp_path / "panel.csv"
    path.write_text(deakit.render_csv(table1_panel(n, seed=1)))
    tracemalloc.start()
    try:
        code = console_main(["report", "--input", str(path), "--format",
                             "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 8 * n * n, f"peak {peak / 2**20:.1f} MiB"
