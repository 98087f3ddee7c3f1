"""Command-line frontend.

Commands: stats, corr, rank, evaluate, synth, report.  The argparse
namespace is the whole configuration: each subcommand's parser sets `run`
to the function that builds its output.  `synth` always writes CSV, and
only `evaluate` and `report` take `--verbose`.  Results go to stdout;
diagnostics to stderr.  Exit codes: 0 success, 1 data/model errors and
unreadable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import _bands, _meta, _summary, correlation_matrix
from .dataset import Dataset, Role, descriptive_stats, load_csv, \
    load_stats_spec, render_csv, synthesize_matching
from .errors import DeaError
from .models import ModelKind, ModelSpec, ReturnsToScale, RoleSlice, _evaluate
from .render import Column, Table, render_table

_MODEL_TOKENS = {k.value: k for k in ModelKind}
_RTS_TOKENS = {"crs": ReturnsToScale.crs, "vrs": ReturnsToScale.vrs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deakit",
        description="DEA efficiency toolkit: CCR and SBM with undesirable "
                    "outputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_p = argparse.ArgumentParser(add_help=False)
    fmt_p.add_argument("--format", choices=("csv", "json", "md"),
                       default="md", dest="fmt")

    verbose_p = argparse.ArgumentParser(add_help=False)
    verbose_p.add_argument("--verbose", action="store_true")

    in_p = argparse.ArgumentParser(add_help=False)
    in_p.add_argument("--input", required=True, help="dataset CSV path")
    in_p.add_argument("--epsilon-shift", action="store_true",
                      help="replace zeros in non-meta columns by "
                           "1e-6 x column max")

    model_p = argparse.ArgumentParser(add_help=False)
    model_p.add_argument("--model", choices=sorted(_MODEL_TOKENS),
                         required=True)

    rts_p = argparse.ArgumentParser(add_help=False)
    rts_p.add_argument("--rts", choices=sorted(_RTS_TOKENS), default="crs")

    sub.add_parser("stats", parents=[in_p, fmt_p],
                   help="per-indicator max/min/mean/sd"
                   ).set_defaults(run=_cmd_stats)
    corr = sub.add_parser("corr", parents=[in_p, fmt_p],
                          help="indicator correlation matrix")
    corr.add_argument("--method", choices=("pearson", "spearman"),
                      default="pearson")
    corr.set_defaults(run=_cmd_corr)
    sub.add_parser("rank", parents=[in_p, model_p, rts_p, fmt_p],
                   help="scores with competition ranks"
                   ).set_defaults(run=_cmd_rank)
    sub.add_parser("evaluate", parents=[in_p, model_p, rts_p, fmt_p,
                                        verbose_p],
                   help="scores and improvement rates for one model"
                   ).set_defaults(run=_cmd_evaluate)
    synth = sub.add_parser("synth",
                           help="synthesize a dataset matching a stats spec")
    synth.add_argument("--spec", required=True,
                       help="stats spec CSV (name,role,min,max,mean,sd)")
    synth.add_argument("--n", required=True, type=int,
                       help="number of DMUs")
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(run=_cmd_synth)
    report = sub.add_parser("report", parents=[in_p, fmt_p, verbose_p, rts_p],
                            help="joint CCR and SBM report with mean row")
    report.add_argument("--t1", type=float, default=0.999,
                        help="level-1 score threshold")
    report.add_argument("--t2", type=float, default=0.20,
                        help="level-2 score threshold")
    report.set_defaults(run=_cmd_report)
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _load(args: argparse.Namespace) -> Dataset:
    return load_csv(args.input, epsilon_shift=args.epsilon_shift)


def _model_spec(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(_MODEL_TOKENS[args.model], _RTS_TOKENS[args.rts]())


def _note(args: argparse.Namespace, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def _rate_columns(rates, prefix: str = "") -> list[Column]:
    """The headers of `rates` (`analysis._summary`), one per column."""
    (ins, _), (bads, _), (goods, _) = rates
    return ([Column(f"{prefix}reduce {name} (%)", "rate")
             for name in ins + bads]
            + [Column(f"{prefix}increase {name} (%)", "rate")
               for name in goods])


def _cmd_stats(args: argparse.Namespace) -> str:
    d = _load(args)
    rows = descriptive_stats(d)
    table = Table(
        columns=(Column("indicator", "text"), Column("role", "text"),
                 Column("max"), Column("min"), Column("mean"),
                 Column("sd")),
        rows=tuple((r.indicator, r.role.value, r.max, r.min, r.mean, r.sd)
                   for r in rows))
    return render_table(table, args.fmt)


def _cmd_corr(args: argparse.Namespace) -> str:
    d = _load(args)
    cm = correlation_matrix(d, args.method)
    columns = [Column("indicator", "text")]
    columns += [Column(lbl, "score") for lbl in cm.labels]
    rows = tuple((lbl, *cm.values[i]) for i, lbl in enumerate(cm.labels))
    return render_table(Table(tuple(columns), rows), args.fmt)


def _cmd_rank(args: argparse.Namespace) -> str:
    d = _load(args)
    res = _evaluate(d, _model_spec(args))
    _, ranks, _ = _summary(res, RoleSlice(d))
    # zipped with the scores, the ranks drop their Mean row
    table = Table(
        columns=(Column("dmu", "text"), Column("score", "score"),
                 Column("rank", "int")),
        rows=tuple(zip(d.dmu_names, res.score.tolist(), ranks)))
    return render_table(table, args.fmt)


def _cmd_evaluate(args: argparse.Namespace) -> str:
    d = _load(args)
    res = _evaluate(d, _model_spec(args))
    if args.verbose:
        for dmu, score in zip(d.dmu_names, res.score.tolist()):
            _note(args, f"evaluated {dmu}: score {score:.6f}")
    _, _, rates = _summary(res, RoleSlice(d))
    # zipped with the scores, the rates drop their Mean row
    table = Table(
        columns=(Column("dmu", "text"), Column("score", "score"),
                 *_rate_columns(rates)),
        rows=tuple((dmu, s, *r) for dmu, s, r in zip(
            d.dmu_names, res.score.tolist(),
            np.hstack([v for _, v in rates]).tolist())))
    return render_table(table, args.fmt)


def _cmd_synth(args: argparse.Namespace) -> str:
    spec_rows = load_stats_spec(args.spec)
    d = synthesize_matching(spec_rows, args.n, args.seed)
    return render_csv(d)


def _cmd_report(args: argparse.Namespace) -> str:
    d = _load(args)
    thresholds = (args.t1, args.t2)
    _bands((), (), thresholds)  # checks them before any LP runs
    rts = _RTS_TOKENS[args.rts]()
    roles = RoleSlice(d)
    _note(args, "running CCR (EE)")
    ee = _evaluate(d, ModelSpec(ModelKind.CCR_OUTPUT, rts))
    _note(args, "running SBM with undesirable outputs (EPI)")
    epi = _evaluate(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, rts))
    (ee_mean, ee_ranks, ccr), (epi_mean, epi_ranks, sbm) = (
        _summary(res, roles) for res in (ee, epi))

    meta_cols = sorted(d.role_columns(Role.META),
                       key=lambda j: d.indicators[j].name)
    columns = [Column("dmu", "text"), Column("EE", "scorerank"),
               Column("EPI", "scorerank")]
    columns += _rate_columns(ccr, prefix="CCR ")
    columns += _rate_columns(sbm, prefix="SBM ")
    columns += [Column(d.indicators[j].name) for j in meta_cols]
    epi_score = epi.score.tolist()
    rows = tuple((dmu, (a, ra), (b, rb), *rates, *meta)
                 for dmu, a, ra, b, rb, rates, meta in zip(
                     (*d.dmu_names, "Mean"), ee.score.tolist() + [ee_mean],
                     ee_ranks, epi_score + [epi_mean], epi_ranks,
                     np.hstack([v for _, v in ccr + sbm]).tolist(),
                     _meta(d, meta_cols)))
    out = render_table(Table(tuple(columns), rows), args.fmt)
    if args.fmt == "md":
        bands = _bands(d.dmu_names, epi_score, thresholds)
        lines = ["", f"Levels by EPI (t1={args.t1:g}, t2={args.t2:g}):"]
        for level in (1, 2, 3):
            members = ", ".join(bands[level]) if bands[level] else "-"
            lines.append(f"- level {level}: {members}")
        out += "\n".join(lines) + "\n"
    return out


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; print its output to stdout and return the exit
    code (usage errors exit through argparse with 2)."""
    args = parse_args(argv)
    try:
        out = args.run(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (OSError, DeaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0
