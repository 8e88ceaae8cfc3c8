"""Analysis utilities: experiment output containers, ASCII rendering,
replication statistics, and theory-vs-simulation validation checks."""

from .report import (
    grid_cell_axes,
    grid_digest,
    render_result,
    render_series_table,
    render_table,
    sparkline,
)
from .series import ExperimentResult, Series, Table
from .shapes import CHECKS, ShapeCheck, audit
from .stats import (
    MeanCI,
    dominates_paired,
    mean_ci,
    paired_delta_ci,
)
from .validate import (
    analytic_lower_bound,
    dominance_holds,
    knee_index,
    relative_spread,
    respects_lower_bound,
)

__all__ = [
    "render_result", "render_series_table", "render_table", "sparkline",
    "grid_cell_axes", "grid_digest",
    "ExperimentResult", "Series", "Table",
    "CHECKS", "ShapeCheck", "audit",
    "MeanCI", "dominates_paired", "mean_ci", "paired_delta_ci",
    "analytic_lower_bound", "dominance_holds", "knee_index",
    "relative_spread", "respects_lower_bound",
]
