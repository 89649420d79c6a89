"""Worker process: executes shards shipped by a coordinator.

A worker is one OS process with one TCP connection. Its life is a
loop: receive a ``task`` frame, run the map function over the shard's
items, send back one ``result`` (or ``task_error``) frame, repeat. A
background thread emits ``heartbeat`` frames on a fixed cadence so the
coordinator can tell a slow worker from a dead one.

Workers are deliberately stateless between tasks except for one cached
map function: the coordinator ships the (pickled) function once per
``map_id`` per worker and later tasks reference it by id, so a sweep
over hundreds of points serializes its closure (which may embed a
sample field array) once per worker instead of once per shard.

Run directly (the ``repro-tool workers`` subcommand and the
coordinator's self-spawn path both use this entry point)::

    python -m repro.distributed.worker --connect 127.0.0.1:47001
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
from typing import Any, Optional, Sequence

from repro.distributed.wire import (
    WireError,
    pack_blob,
    recv_frame,
    send_frame,
    unpack_blob,
)

__all__ = ["WorkerSession", "run_worker", "main"]

#: Seconds between heartbeat frames unless the coordinator overrides.
DEFAULT_HEARTBEAT_S = 0.5


class WorkerSession:
    """One worker's connection, send lock and cached map function."""

    def __init__(self, sock: socket.socket, heartbeat_s: float) -> None:
        self.sock = sock
        self.heartbeat_s = float(heartbeat_s)
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._map_id: Optional[str] = None
        self._fn = None

    # -- plumbing ------------------------------------------------------

    def send(self, doc: Any) -> None:
        """Frame-send under the lock shared with the heartbeat thread."""
        with self._send_lock:
            send_frame(self.sock, doc)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            try:
                self.send({"type": "heartbeat", "pid": os.getpid()})
            except OSError:
                return  # connection is gone; the main loop will notice

    # -- task execution ------------------------------------------------

    def _resolve_fn(self, msg: dict):
        """The map function for this task, unpickling at most once per map."""
        map_id = msg["map_id"]
        if map_id != self._map_id:
            if "fn" not in msg:
                raise WireError(
                    f"task references unknown map {map_id!r} and carries "
                    "no function"
                )
            self._fn = unpack_blob(msg["fn"])
            self._map_id = map_id
        return self._fn

    def _run_task(self, msg: dict) -> None:
        fn = self._resolve_fn(msg)
        items = unpack_blob(msg["items"])
        indices: Sequence[int] = msg["item_indices"]
        results = []
        for global_index, item in zip(indices, items):
            try:
                results.append(fn(item))
            except BaseException as exc:  # noqa: BLE001 - shipped to the coordinator
                self.send(
                    {
                        "type": "task_error",
                        "map_id": msg["map_id"],
                        "shard_index": msg["shard_index"],
                        "item_index": int(global_index),
                        "error": pack_blob(exc),
                        "pid": os.getpid(),
                    }
                )
                return
        self.send(
            {
                "type": "result",
                "map_id": msg["map_id"],
                "shard_index": msg["shard_index"],
                "shard_id": msg["shard_id"],
                "results": pack_blob(results),
                "pid": os.getpid(),
            }
        )

    # -- main loop -----------------------------------------------------

    def run(self) -> int:
        self.send({"type": "hello", "pid": os.getpid()})
        beat = threading.Thread(
            target=self._heartbeat_loop, name="repro-dist-heartbeat", daemon=True
        )
        beat.start()
        try:
            while True:
                msg = recv_frame(self.sock)
                if msg is None or msg.get("type") == "shutdown":
                    return 0
                if msg.get("type") == "task":
                    self._run_task(msg)
                # Other frame types are skipped: a coordinator of
                # another build may send frames this one does not know.
        finally:
            self._stop.set()


def run_worker(
    host: str,
    port: int,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    cache_dir: Optional[str] = None,
) -> int:
    """Connect to a coordinator and serve tasks until told to stop.

    With *cache_dir*, the worker's process-global result cache gets a
    disk tier on that directory — the coordinator passes its own cache
    directory here so every worker in the fleet shares one
    content-addressed store and warm sub-results short-circuit.
    """
    if cache_dir:
        from repro.cache import configure_cache

        configure_cache(disk_dir=cache_dir)
    try:
        sock = socket.create_connection((host, port), timeout=30.0)
    except OSError as exc:
        # A coordinator that shut down between spawning us and our
        # connect is routine fleet teardown, not a crash.
        print(
            f"repro-dist-worker: cannot reach coordinator at "
            f"{host}:{port}: {exc}",
            file=sys.stderr,
        )
        return 1
    try:
        sock.settimeout(None)
        return WorkerSession(sock, heartbeat_s).run()
    except (WireError, OSError):
        # A dying coordinator is not the worker's error to report.
        return 0
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-dist-worker",
        description="Worker process for the distributed executor fleet.",
    )
    ap.add_argument("--connect", required=True, metavar="HOST:PORT",
                    help="coordinator address to join")
    ap.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT_S,
                    help="seconds between liveness heartbeats")
    ap.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="shared on-disk result cache directory")
    args = ap.parse_args(argv)
    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        ap.error(f"--connect must be HOST:PORT, got {args.connect!r}")
    return run_worker(host, int(port), args.heartbeat, args.cache_dir)


if __name__ == "__main__":
    sys.exit(main())
