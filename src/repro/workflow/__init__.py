"""Experiment orchestration: sweeps, result tables, and text rendering."""

from repro.workflow.sweep import (
    SweepConfig,
    compression_sweep,
    transit_sweep,
    decompression_sweep,
    read_sweep,
    default_nodes,
)
from repro.workflow.results import sampleset_to_rows, rows_to_csv
from repro.workflow.report import render_table, render_series
from repro.workflow.asciiplot import ascii_chart
from repro.workflow.campaign import (
    RunConfig,
    CampaignReport,
    CheckpointCampaign,
    run_campaign,
    run_campaign_sweep,
)
from repro.workflow.validation import leave_one_dataset_out, loocv_rows
from repro.workflow.export import export_campaign

__all__ = [
    "SweepConfig",
    "compression_sweep",
    "transit_sweep",
    "decompression_sweep",
    "read_sweep",
    "default_nodes",
    "sampleset_to_rows",
    "rows_to_csv",
    "render_table",
    "render_series",
    "ascii_chart",
    "CheckpointCampaign",
    "CampaignReport",
    "RunConfig",
    "run_campaign",
    "run_campaign_sweep",
    "leave_one_dataset_out",
    "loocv_rows",
    "export_campaign",
]
