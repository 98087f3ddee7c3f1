"""Command-line frontend.

Commands: stats, corr, rank, evaluate, synth, report.  The argparse
namespace is the whole configuration: each subcommand's parser sets `run`
to the function that builds its output.  `synth` always writes CSV.
Each table goes to `render_table` as columns, each one list taken from
the models' arrays or the panel's.  `report` checks all that depends on
the panel alone (thresholds, headers, the SBM's 'out-' column) before
any LP runs.  Results go to stdout; diagnostics to stderr.  Exit codes: 0
success, 1 data/model errors and unreadable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import BAND_THRESHOLDS, _bands, _summary, \
    correlation_matrix, rank_scores
from .dataset import Dataset, Role, descriptive_stats, load_csv, \
    load_stats_spec, render_csv, synthesize_matching
from .errors import DeaError
from .models import ModelKind, ModelSpec, ReturnsToScale, _evaluate, \
    _rates, build_instance
from .render import Column, _flat_columns, render_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deakit",
        description="DEA efficiency toolkit: CCR and SBM with undesirable "
                    "outputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_p = argparse.ArgumentParser(add_help=False)
    fmt_p.add_argument("--format", choices=("csv", "json", "md"),
                       default="md", dest="fmt")

    in_p = argparse.ArgumentParser(add_help=False)
    in_p.add_argument("--input", required=True, help="dataset CSV path")
    in_p.add_argument("--epsilon-shift", action="store_true",
                      help="replace zeros in non-meta columns with a "
                           "positive max by 1e-6 x column max")

    model_p = argparse.ArgumentParser(add_help=False)
    model_p.add_argument("--model", choices=[k.value for k in ModelKind],
                         required=True)

    rts_p = argparse.ArgumentParser(add_help=False)
    rts_p.add_argument("--rts", choices=[r.value for r in ReturnsToScale],
                       default="crs")

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
    sub.add_parser("evaluate", parents=[in_p, model_p, rts_p, fmt_p],
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
    report = sub.add_parser("report", parents=[in_p, fmt_p, rts_p],
                            help="joint CCR and SBM report with mean row")
    report.add_argument("--t1", type=float, default=BAND_THRESHOLDS[0],
                        help="level-1 score threshold")
    report.add_argument("--t2", type=float, default=BAND_THRESHOLDS[1],
                        help="level-2 score threshold")
    report.set_defaults(run=_cmd_report)
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _load(args: argparse.Namespace) -> Dataset:
    return load_csv(args.input, epsilon_shift=args.epsilon_shift)


def _model_spec(args: argparse.Namespace) -> ModelSpec:
    return ModelSpec(ModelKind(args.model), ReturnsToScale(args.rts))


def _rate_columns(rates, prefix: str = "") -> list[Column]:
    """One column per rate of `rates` (`models._rates`, or
    `analysis._summary`'s with the Mean row)."""
    (ins, x), (bads, yb), (goods, yg) = rates
    return ([Column(f"{prefix}reduce {name} (%)", "rate", v)
             for name, v in zip(ins + bads, x.T.tolist() + yb.T.tolist())]
            + [Column(f"{prefix}increase {name} (%)", "rate", v)
               for name, v in zip(goods, yg.T.tolist())])


def _cmd_stats(args: argparse.Namespace) -> str:
    rows = descriptive_stats(_load(args))
    columns = [Column("name", "text", [r.indicator for r in rows]),
               Column("role", "text", [r.role.value for r in rows])]
    columns += [Column(h, "num", [getattr(r, h) for r in rows])
                for h in ("max", "min", "mean", "sd")]
    return render_table(columns, args.fmt)


def _cmd_corr(args: argparse.Namespace) -> str:
    cm = correlation_matrix(_load(args), args.method)
    columns = [Column("indicator", "text", cm.labels)]
    columns += [Column(lbl, "score", v)
                for lbl, v in zip(cm.labels, cm.values.T.tolist())]
    return render_table(columns, args.fmt)


def _cmd_rank(args: argparse.Namespace) -> str:
    d = _load(args)
    score = _evaluate(build_instance(d, _model_spec(args))).score.tolist()
    return render_table([Column("dmu", "text", d.dmu_names),
                         Column("score", "score", score),
                         Column("rank", "int", rank_scores(score))],
                        args.fmt)


def _cmd_evaluate(args: argparse.Namespace) -> str:
    d = _load(args)
    res = _evaluate(build_instance(d, _model_spec(args)))
    return render_table([Column("dmu", "text", d.dmu_names),
                         Column("score", "score", res.score.tolist()),
                         *_rate_columns(_rates(res, d))],
                        args.fmt)


def _cmd_synth(args: argparse.Namespace) -> str:
    spec_rows = load_stats_spec(args.spec)
    d = synthesize_matching(spec_rows, args.n, args.seed)
    return render_csv(d)


def _report_columns(d: Dataset, ee, epi) -> list[Column]:
    """The report's columns from CCR's (EE) and the SBM's (EPI) summaries
    (`analysis._summary`); the dmu and meta columns keep as many cells as
    `ee` has scores, so the summaries of no DMU give the headers alone."""
    (ee_score, ee_ranks, ccr), (epi_score, epi_ranks, sbm) = ee, epi
    cells = slice(len(ee_score))
    columns = [Column("dmu", "text", [*d.dmu_names, "Mean"][cells]),
               Column("EE", "score", ee_score, ee_ranks),
               Column("EPI", "score", epi_score, epi_ranks),
               *_rate_columns(ccr, prefix="CCR "),
               *_rate_columns(sbm, prefix="SBM ")]
    for j in sorted(d.role_columns(Role.META),
                    key=lambda j: d.indicators[j].name):
        v = d.values[:, j]
        columns.append(Column(d.indicators[j].name, "num",
                              (v.tolist() + [float(v.mean())])[cells]))
    return columns


def _cmd_report(args: argparse.Namespace) -> str:
    d = _load(args)
    thresholds = (args.t1, args.t2)
    _bands((), (), thresholds)  # checks them before any LP runs
    # and the headers, which depend on the panel only: the summaries of no
    # DMU, CCR's with no undesirable-output rate
    _flat_columns(_report_columns(d, *(
        ([], [], [(d.input_names, d.X[:0]), (bads, d.Yb[:0, :len(bads)]),
                  (d.good_names, d.Yg[:0])]) for bads in ((), d.bad_names))))
    rts = ReturnsToScale(args.rts)
    # building the SBM's template checks its 'out-' column
    ccr, sbm = (build_instance(d, ModelSpec(kind, rts)) for kind in
                (ModelKind.CCR_OUTPUT, ModelKind.SBM_UNDESIRABLE))
    ee, epi = _summary(_evaluate(ccr), d), _summary(_evaluate(sbm), d)
    out = render_table(_report_columns(d, ee, epi), args.fmt)
    if args.fmt == "md":
        bands = _bands(d.dmu_names, epi[0], thresholds)
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
