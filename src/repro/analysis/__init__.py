"""Analysis layer: metrics and regeneration of every table and figure."""

from repro.analysis.metrics import mean_step_power_w
from repro.analysis.figures import (
    Fig2Point,
    Fig3Point,
    fig2_llm_series,
    fig3_resnet_series,
    FIG2_BATCH_SIZES,
    FIG3_BATCH_SIZES,
)
from repro.analysis.tables import table2_ipu_gpt, table3_ipu_resnet
from repro.analysis.heatmap import HeatmapCell, fig4_heatmap, heatmap_grid_for
from repro.analysis.compare import llm_claims, resnet_claims, ClaimCheck
from repro.analysis.scaling import weak_scaling, strong_scaling, ScalingPoint
from repro.analysis.carbon import SiteProfile, CarbonEstimate, estimate, get_site
from repro.analysis.svgplot import LineChart, HeatmapChart
from repro.analysis.render import render_fig2, render_fig3, render_fig4, render_all
from repro.analysis.explore import Objective, explore_llm, explore_cnn
from repro.analysis.report import build_report, write_report
from repro.analysis.roofline import Roofline, build_roofline
from repro.analysis.sensitivity import sweep as sensitivity_sweep
from repro.analysis.serving import (
    SERVING_SYSTEM_TAGS,
    ServingScenario,
    serving_rows,
)
from repro.analysis.tts import time_to_loss, batch_size_tradeoff
from repro.analysis.validate import validate_reproduction, validation_summary

__all__ = [
    "Objective",
    "explore_llm",
    "explore_cnn",
    "build_report",
    "write_report",
    "Roofline",
    "build_roofline",
    "sensitivity_sweep",
    "SERVING_SYSTEM_TAGS",
    "ServingScenario",
    "serving_rows",
    "time_to_loss",
    "batch_size_tradeoff",
    "validate_reproduction",
    "validation_summary",
    "weak_scaling",
    "strong_scaling",
    "ScalingPoint",
    "SiteProfile",
    "CarbonEstimate",
    "estimate",
    "get_site",
    "LineChart",
    "HeatmapChart",
    "render_fig2",
    "render_fig3",
    "render_fig4",
    "render_all",
    "mean_step_power_w",
    "Fig2Point",
    "Fig3Point",
    "fig2_llm_series",
    "fig3_resnet_series",
    "FIG2_BATCH_SIZES",
    "FIG3_BATCH_SIZES",
    "table2_ipu_gpt",
    "table3_ipu_resnet",
    "HeatmapCell",
    "fig4_heatmap",
    "heatmap_grid_for",
    "llm_claims",
    "resnet_claims",
    "ClaimCheck",
]
