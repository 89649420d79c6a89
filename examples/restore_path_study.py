#!/usr/bin/env python
"""Restore-path study: tuning the read-then-decompress pipeline.

Extends the paper's dump experiment (Section VI-B) to its natural
counterpart: fetching a 512 GB compressed snapshot from the NFS and
decompressing it, with Eqn. 3-style per-stage frequency pinning. The
extension uses the same methodology; decompression sensitivities are
slightly lower than compression (decode is more memory-bound).

    python examples/restore_path_study.py
"""

from repro import SZCompressor, default_nodes, load_field
from repro.iosim import DataDumper, DataLoader, RunConfig
from repro.workflow.report import render_table


def main() -> None:
    rows = []
    arr = load_field("nyx", "velocity_x", scale=16)
    for node in default_nodes():
        cpu = node.cpu
        dumper = DataDumper(node)
        loader = DataLoader(node)
        f_codec = cpu.snap_frequency(0.875 * cpu.fmax_ghz)
        f_io = cpu.snap_frequency(0.85 * cpu.fmax_ghz)
        for eb in (1e-1, 1e-3):
            dump_base = dumper.dump(SZCompressor(), arr, eb, int(512e9))
            eqn3 = RunConfig(eb, compress_freq_ghz=f_codec, write_freq_ghz=f_io)
            dump_tuned = dumper.dump(SZCompressor(), arr, eqn3, int(512e9))
            rest_base = loader.restore(SZCompressor(), arr, eb, int(512e9))
            rest_tuned = loader.restore(SZCompressor(), arr, eb, int(512e9),
                                        read_freq_ghz=f_io,
                                        decompress_freq_ghz=f_codec)
            rows.append(
                {
                    "arch": cpu.arch,
                    "eb": eb,
                    "dump_base_kj": dump_base.total_energy_j / 1e3,
                    "dump_saved_pct": (1 - dump_tuned.total_energy_j
                                       / dump_base.total_energy_j) * 100,
                    "restore_base_kj": rest_base.total_energy_j / 1e3,
                    "restore_saved_pct": (1 - rest_tuned.total_energy_j
                                          / rest_base.total_energy_j) * 100,
                }
            )
    print(render_table(rows, title="Eqn. 3 tuning on dump vs restore (512 GB, SZ)"))

    # Restore costs less than the dump (decode is faster than encode)
    # and tuning helps on both paths.
    for r in rows:
        assert r["restore_base_kj"] < r["dump_base_kj"]
        assert r["restore_saved_pct"] > 0
    print("\nTuning saves energy on the restore path as well; restoring is "
          "cheaper than dumping because decompression outruns compression.")


if __name__ == "__main__":
    main()
