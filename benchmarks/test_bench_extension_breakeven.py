"""Extension bench: the compress-or-not crossover.

Maps the boundary the paper's introduction gestures at: raw writes win
on an uncontended fast link; compression wins once per-client bandwidth
drops below ``v_c (1 - 1/r)``. Prints the crossover client count for
each (codec, bound) and checks the analytic threshold against the
strategy simulator.
"""

from conftest import emit

from repro.compressors import SZCompressor, ZFPCompressor
from repro.core.breakeven import breakeven_clients, compare_strategies
from repro.data import load_field
from repro.hardware.cpu import BROADWELL_D1548
from repro.hardware.workload import WorkloadKind
from repro.workflow.report import render_table

_KINDS = {"sz": WorkloadKind.COMPRESS_SZ, "zfp": WorkloadKind.COMPRESS_ZFP}


def test_bench_extension_breakeven(benchmark, ctx):
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)

    def run():
        rows = []
        for codec in (SZCompressor(), ZFPCompressor()):
            for eb in (1e-1, 1e-3):
                ratio = codec.compress(arr, eb).ratio
                n_time = breakeven_clients(
                    BROADWELL_D1548, _KINDS[codec.name], ratio, eb,
                    criterion="time",
                )
                n_energy = breakeven_clients(
                    BROADWELL_D1548, _KINDS[codec.name], ratio, eb,
                    criterion="energy",
                )
                rows.append(
                    {
                        "codec": codec.name,
                        "eb": eb,
                        "ratio": ratio,
                        "clients_for_time_win": n_time if n_time else ">4096",
                        "clients_for_energy_win": n_energy if n_energy else ">4096",
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(rows, title="EXTENSION — compress-or-not crossovers (Broadwell)"))

    by = {(r["codec"], r["eb"]): r for r in rows}
    # Coarse bounds (higher ratio, faster codec) cross over earlier.
    sz_coarse = by[("sz", 1e-1)]["clients_for_time_win"]
    sz_fine = by[("sz", 1e-3)]["clients_for_time_win"]
    assert isinstance(sz_coarse, int) and isinstance(sz_fine, int)
    assert sz_coarse <= sz_fine
    # Consistency with the explicit strategy comparison at the crossover.
    ratio = by[("sz", 1e-1)]["ratio"]
    n = sz_coarse
    out = compare_strategies(
        BROADWELL_D1548, WorkloadKind.COMPRESS_SZ, ratio, 1e-1, int(1e9),
        concurrent_clients=n,
    )
    assert out["compressed"].time_s < out["raw"].time_s
