"""Command-line frontend.

Commands: stats, corr, rank, evaluate, synth, report.  Results go to
stdout; diagnostics to stderr.  Exit codes: 0 success, 1 data/model
errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import _bands, _meta, _summary, correlation_matrix
from .dataset import CsvSchema, Dataset, Role, descriptive_stats, load_csv, \
    load_stats_spec, render_csv, synthesize_matching
from .errors import DeaError
from .models import ModelKind, ModelSpec, ReturnsToScale, RoleSlice, _evaluate
from .render import Column, Table, render_table

_MODEL_TOKENS = {k.value: k for k in ModelKind}
_RTS_TOKENS = {"crs": ReturnsToScale.crs, "vrs": ReturnsToScale.vrs}


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Optional[str] = None
    model: Optional[str] = None
    rts: str = "crs"
    fmt: str = "md"
    method: str = "pearson"
    spec: Optional[str] = None
    n: Optional[int] = None
    seed: int = 0
    t1: float = 0.999
    t2: float = 0.20
    epsilon_shift: bool = False
    verbose: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deakit",
        description="DEA efficiency toolkit: CCR and SBM with undesirable "
                    "outputs.")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_p = argparse.ArgumentParser(add_help=False)
    fmt_p.add_argument("--format", choices=("csv", "json", "md"),
                       default="md", dest="fmt")
    fmt_p.add_argument("--verbose", action="store_true")

    in_p = argparse.ArgumentParser(add_help=False)
    in_p.add_argument("--input", required=True, help="dataset CSV path")
    in_p.add_argument("--epsilon-shift", action="store_true",
                      help="replace zeros in non-meta columns by "
                           "1e-6 x column max")

    model_p = argparse.ArgumentParser(add_help=False)
    model_p.add_argument("--model", choices=sorted(_MODEL_TOKENS),
                         required=True)
    model_p.add_argument("--rts", choices=("crs", "vrs"), default="crs")

    sub.add_parser("stats", parents=[in_p, fmt_p],
                   help="per-indicator max/min/mean/sd")
    corr = sub.add_parser("corr", parents=[in_p, fmt_p],
                          help="indicator correlation matrix")
    corr.add_argument("--method", choices=("pearson", "spearman"),
                      default="pearson")
    sub.add_parser("rank", parents=[in_p, model_p, fmt_p],
                   help="scores with competition ranks")
    sub.add_parser("evaluate", parents=[in_p, model_p, fmt_p],
                   help="scores and improvement rates for one model")
    synth = sub.add_parser("synth", parents=[fmt_p],
                           help="synthesize a dataset matching a stats spec")
    synth.add_argument("--spec", required=True,
                       help="stats spec CSV (name,role,min,max,mean,sd)")
    synth.add_argument("--n", required=True, type=int,
                       help="number of DMUs")
    synth.add_argument("--seed", type=int, default=0)
    report = sub.add_parser("report", parents=[in_p, fmt_p],
                            help="joint CCR and SBM report with mean row")
    report.add_argument("--rts", choices=("crs", "vrs"), default="crs")
    report.add_argument("--t1", type=float, default=0.999,
                        help="level-1 score threshold")
    report.add_argument("--t2", type=float, default=0.20,
                        help="level-2 score threshold")
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    args = build_parser().parse_args(argv)
    fields = {f: getattr(args, f) for f in RunConfig.__dataclass_fields__
              if hasattr(args, f)}
    return RunConfig(**fields)


def _load(cfg: RunConfig) -> Dataset:
    return load_csv(cfg.input, CsvSchema(epsilon_shift=cfg.epsilon_shift))


def _model_spec(cfg: RunConfig) -> ModelSpec:
    return ModelSpec(_MODEL_TOKENS[cfg.model], _RTS_TOKENS[cfg.rts]())


def _note(cfg: RunConfig, msg: str) -> None:
    if cfg.verbose:
        print(msg, file=sys.stderr)


def _rate_columns(roles: RoleSlice, prefix: str = "",
                  include_bads: bool = True) -> list[Column]:
    reduced = roles.input_names + (roles.bad_names if include_bads else ())
    return ([Column(f"{prefix}reduce {name} (%)", "rate")
             for name in reduced]
            + [Column(f"{prefix}increase {name} (%)", "rate")
               for name in roles.good_names])


def _cmd_stats(cfg: RunConfig) -> str:
    d = _load(cfg)
    rows = descriptive_stats(d)
    table = Table(
        columns=(Column("indicator", "text"), Column("role", "text"),
                 Column("max"), Column("min"), Column("mean"),
                 Column("sd")),
        rows=tuple((r.indicator, r.role.value, r.max, r.min, r.mean, r.sd)
                   for r in rows))
    return render_table(table, cfg.fmt)


def _cmd_corr(cfg: RunConfig) -> str:
    d = _load(cfg)
    cm = correlation_matrix(d, cfg.method)
    columns = [Column("indicator", "text")]
    columns += [Column(lbl, "score") for lbl in cm.labels]
    rows = tuple((lbl, *cm.values[i]) for i, lbl in enumerate(cm.labels))
    return render_table(Table(tuple(columns), rows), cfg.fmt)


def _cmd_rank(cfg: RunConfig) -> str:
    d = _load(cfg)
    res = _evaluate(d, _model_spec(cfg))
    _, ranks, _ = _summary(res, RoleSlice(d))
    # zipped with the scores, the ranks drop their Mean row
    table = Table(
        columns=(Column("dmu", "text"), Column("score", "score"),
                 Column("rank", "int")),
        rows=tuple(zip(d.dmu_names, res.score.tolist(), ranks)))
    return render_table(table, cfg.fmt)


def _cmd_evaluate(cfg: RunConfig) -> str:
    d = _load(cfg)
    spec = _model_spec(cfg)
    res = _evaluate(d, spec)
    roles = RoleSlice(d)
    if cfg.verbose:
        for dmu, score in zip(d.dmu_names, res.score.tolist()):
            _note(cfg, f"evaluated {dmu}: score {score:.6f}")
    _, _, rates = _summary(res, roles)
    # CCR results have no undesirable slacks, so their bad rates have no
    # columns; zipped with the scores, the rates drop their Mean row
    with_bads = spec.kind is ModelKind.SBM_UNDESIRABLE
    table = Table(
        columns=(Column("dmu", "text"), Column("score", "score"),
                 *_rate_columns(roles, include_bads=with_bads)),
        rows=tuple((dmu, s, *r) for dmu, s, r in zip(
            d.dmu_names, res.score.tolist(),
            np.hstack([v for _, v in rates]).tolist())))
    return render_table(table, cfg.fmt)


def _cmd_synth(cfg: RunConfig) -> str:
    spec_rows = load_stats_spec(cfg.spec)
    d = synthesize_matching(spec_rows, cfg.n, cfg.seed)
    return render_csv(d)


def _cmd_report(cfg: RunConfig) -> str:
    d = _load(cfg)
    rts = _RTS_TOKENS[cfg.rts]()
    roles = RoleSlice(d)
    _note(cfg, "running CCR (EE)")
    ee = _evaluate(d, ModelSpec(ModelKind.CCR_OUTPUT, rts))
    _note(cfg, "running SBM with undesirable outputs (EPI)")
    epi = _evaluate(d, ModelSpec(ModelKind.SBM_UNDESIRABLE, rts))
    (ee_mean, ee_ranks, ccr), (epi_mean, epi_ranks, sbm) = (
        _summary(res, roles) for res in (ee, epi))

    meta_cols = sorted(d.role_columns(Role.META),
                       key=lambda j: d.indicators[j].name)
    columns = [Column("dmu", "text"), Column("EE", "scorerank"),
               Column("EPI", "scorerank")]
    columns += _rate_columns(roles, prefix="CCR ", include_bads=False)
    columns += _rate_columns(roles, prefix="SBM ")
    columns += [Column(d.indicators[j].name) for j in meta_cols]
    epi_score = epi.score.tolist()
    # CCR's bad rates have no columns
    rows = tuple((dmu, (a, ra), (b, rb), *rates, *meta)
                 for dmu, a, ra, b, rb, rates, meta in zip(
                     (*d.dmu_names, "Mean"), ee.score.tolist() + [ee_mean],
                     ee_ranks, epi_score + [epi_mean], epi_ranks,
                     np.hstack([v for _, v in ccr + sbm]).tolist(),
                     _meta(d, meta_cols)))
    out = render_table(Table(tuple(columns), rows), cfg.fmt)
    if cfg.fmt == "md":
        bands = _bands(d.dmu_names, epi_score, (cfg.t1, cfg.t2))
        lines = ["", f"Levels by EPI (t1={cfg.t1:g}, t2={cfg.t2:g}):"]
        for level in (1, 2, 3):
            members = ", ".join(bands[level]) if bands[level] else "-"
            lines.append(f"- level {level}: {members}")
        out += "\n".join(lines) + "\n"
    return out


_COMMANDS = {
    "stats": _cmd_stats,
    "corr": _cmd_corr,
    "rank": _cmd_rank,
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def dispatch(cfg: RunConfig) -> int:
    """Run one command; print its table to stdout and return the exit code."""
    try:
        out = _COMMANDS[cfg.command](cfg)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except DeaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(parse_args(argv))
