"""DEA efficiency toolkit.

Output-oriented CCR and SBM-with-undesirable-outputs models over small
datasets of decision-making units, with dataset I/O, descriptive stats,
synthesis, correlations, rankings, and report rendering.  Every model is
solved on the package's own revised simplex (`linprog.Lockstep`), whose
two-phase batch of one is `solve`.
"""

from .analysis import (ComparisonRecord, CorrelationMatrix, compare_models,
                       correlation_matrix, efficiency_bands, rank_scores)
from .dataset import (Dataset, Indicator, Role, StatsRow, descriptive_stats,
                      load_csv, load_stats_spec, render_csv,
                      synthesize_matching)
from .errors import DataError, DeaError, ModelError, SolverError, \
    SynthesisError
from .linprog import (LPSolution, StandardFormLP, Status, solve,
                      verify_optimality)
from .models import (EfficiencyResult, ModelKind, ModelSpec, RateReport,
                     ReturnsToScale, evaluate_all, evaluate_ccr_output,
                     evaluate_sbm_undesirable, improvement_targets)
from .render import Column, render_table

__version__ = "0.1.0"

__all__ = [
    "ComparisonRecord", "CorrelationMatrix", "compare_models",
    "correlation_matrix", "efficiency_bands", "rank_scores",
    "Dataset", "Indicator", "Role", "StatsRow", "descriptive_stats",
    "load_csv", "load_stats_spec", "render_csv", "synthesize_matching",
    "DataError", "DeaError", "ModelError", "SolverError", "SynthesisError",
    "LPSolution", "StandardFormLP", "Status", "solve", "verify_optimality",
    "EfficiencyResult", "ModelKind", "ModelSpec", "RateReport",
    "ReturnsToScale", "evaluate_all", "evaluate_ccr_output",
    "evaluate_sbm_undesirable", "improvement_targets",
    "Column", "render_table",
    "__version__",
]
