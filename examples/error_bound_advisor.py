#!/usr/bin/env python
"""Error-bound advisor: pick eb from a storage budget or quality target.

Profiles SZ on a NYX field across a log grid of bounds, then answers
the two questions users actually ask — "what bound gives me 8x?" and
"what bound keeps 60 dB PSNR?" — and feeds the chosen bound straight
into the tuned dump pipeline.

    python examples/error_bound_advisor.py
"""

from repro import SZCompressor, default_nodes, load_field
from repro.core.advisor import ErrorBoundAdvisor
from repro.iosim import DataDumper, RunConfig
from repro.workflow.report import render_table


def main() -> None:
    arr = load_field("nyx", "velocity_x", scale=16)
    advisor = ErrorBoundAdvisor(SZCompressor(), arr)
    print(render_table(advisor.table(), title="SZ profile on nyx/velocity_x"))

    eb_storage = advisor.bound_for_ratio(8.0)
    eb_quality = advisor.bound_for_psnr(60.0)
    print(f"\nFor an 8x storage budget : eb = {eb_storage:.2e}")
    print(f"For a 60 dB PSNR target  : eb = {eb_quality:.2e}")

    # Apply the storage-driven bound in a tuned 512 GB dump.
    node = next(n for n in default_nodes() if n.cpu.arch == "skylake")
    dumper = DataDumper(node)
    cpu = node.cpu
    base = dumper.dump(SZCompressor(), arr, eb_storage, int(512e9))
    eqn3 = RunConfig(
        eb_storage,
        compress_freq_ghz=cpu.snap_frequency(0.875 * cpu.fmax_ghz),
        write_freq_ghz=cpu.snap_frequency(0.85 * cpu.fmax_ghz),
    )
    tuned = dumper.dump(SZCompressor(), arr, eqn3, int(512e9))
    saved = base.total_energy_j - tuned.total_energy_j
    print(f"\n512 GB dump at the advised bound: ratio {base.compression_ratio:.1f}x, "
          f"saved {saved / 1e3:.1f} kJ "
          f"({saved / base.total_energy_j:.1%}) with Eqn. 3 tuning.")
    assert 6.0 < base.compression_ratio < 11.0  # the advisor hit its target
    assert saved > 0


if __name__ == "__main__":
    main()
