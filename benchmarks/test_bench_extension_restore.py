"""Extension bench: tuning the restore (read + decompress) path.

Not in the paper — its dump experiment's natural counterpart. Verifies
the methodology transfers: Eqn. 3-style tuning saves energy when
fetching and decompressing a 512 GB snapshot, and restoring costs less
than dumping.
"""

from conftest import emit

from repro.compressors import SZCompressor
from repro.data import load_field
from repro.iosim.dumper import DataDumper
from repro.iosim.loader import DataLoader
from repro.workflow.report import render_table


def test_bench_extension_restore(benchmark, ctx):
    arr = load_field("nyx", "velocity_x", scale=ctx.config.data_scale)

    def run():
        rows = []
        for arch in ("broadwell", "skylake"):
            node = ctx.node(arch)
            cpu = node.cpu
            f_codec = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
            f_io = cpu.snap_frequency(0.85 * cpu.fmax_ghz)
            dumper, loader = DataDumper(node), DataLoader(node)
            for eb in (1e-1, 1e-3):
                dump = dumper.dump(SZCompressor(), arr, eb, int(512e9))
                base = loader.restore(SZCompressor(), arr, eb, int(512e9))
                tuned = loader.restore(SZCompressor(), arr, eb, int(512e9),
                                       read_freq_ghz=f_io,
                                       decompress_freq_ghz=f_codec)
                rows.append(
                    {
                        "arch": arch,
                        "eb": eb,
                        "dump_kj": dump.total_energy_j / 1e3,
                        "restore_base_kj": base.total_energy_j / 1e3,
                        "restore_tuned_kj": tuned.total_energy_j / 1e3,
                        "saved_pct": (1 - tuned.total_energy_j
                                      / base.total_energy_j) * 100,
                    }
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(render_table(rows, title="EXTENSION — restore-path tuning (512 GB, SZ)"))

    for r in rows:
        assert r["saved_pct"] > 0, r
        assert r["restore_base_kj"] < r["dump_kj"], r
