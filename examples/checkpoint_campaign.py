#!/usr/bin/env python
"""Checkpoint campaign: the paper's HACC-style motivating scenario.

A long simulation dumps compressed snapshots every hour. Compute phases
need the full clock (the paper's premise); only the dump pipeline is
tuned. Shows the asymmetry the paper's argument rests on: campaign-level
I/O energy drops by the full tuning margin while the wall-clock penalty
is diluted to a fraction of a percent.

    python examples/checkpoint_campaign.py
"""

from repro import SZCompressor, default_nodes, load_field
from repro.workflow.campaign import CheckpointCampaign, RunConfig, run_campaign
from repro.workflow.report import render_table


def main() -> None:
    arr = load_field("nyx", "velocity_x", scale=16)
    campaign = CheckpointCampaign(
        snapshot_bytes=int(128e9),      # 128 GB per snapshot
        n_snapshots=12,                 # half-day run, hourly dumps
        compute_interval_s=3600.0,
    )
    rows = []
    for node in default_nodes():
        cpu = node.cpu
        base = run_campaign(node, SZCompressor(), arr, 1e-2, campaign)
        eqn3 = RunConfig(
            1e-2,
            compress_freq_ghz=cpu.snap_frequency(0.875 * cpu.fmax_ghz),
            write_freq_ghz=cpu.snap_frequency(0.85 * cpu.fmax_ghz),
        )
        tuned = run_campaign(node, SZCompressor(), arr, eqn3, campaign)
        rows.append(
            {
                "arch": cpu.arch,
                "io_share_pct": base.io_time_fraction * 100,
                "io_base_kj": base.io_energy_j / 1e3,
                "io_saved_pct": (1 - tuned.io_energy_j / base.io_energy_j) * 100,
                "io_saved_kj": (base.io_energy_j - tuned.io_energy_j) / 1e3,
                "wall_penalty_pct": (tuned.total_wall_s / base.total_wall_s - 1) * 100,
            }
        )
    print(render_table(rows, title="12-snapshot campaign (128 GB each, SZ eb=1e-2)"))

    for r in rows:
        assert r["io_saved_pct"] > 3.0
        assert r["wall_penalty_pct"] < 1.5
    print("\nI/O energy savings carry through to the campaign level while "
          "the wall-clock penalty stays under 1.5 % — compression and I/O "
          "'can afford a longer runtime' exactly as the paper argues.")


if __name__ == "__main__":
    main()
