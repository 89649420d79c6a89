"""Process-global power-cap state for distributed workers.

The coordinator broadcasts ``{"type": "powercap", ...}`` wire frames
whenever the :class:`~repro.powercap.controller.ClusterCapController`
runs an epoch; each worker stores its personalized cap here. The state
is **observational only**: task results are a pure function of the
:class:`~repro.iosim.dumper.RunConfig` (where a watt budget
travels as ``power_budget_w``), so runtime caps never alter what a
shard computes — that is what keeps a distributed capped campaign
byte-identical to the serial run. Operators read the cap back through
:func:`current_cap` (and the worker heartbeat path may surface it in
logs/telemetry).

Epoch-monotonic: a frame carrying an older epoch than the one already
applied is ignored, so out-of-order delivery after a coordinator
restart cannot roll a cap back.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = ["set_node_cap", "current_cap", "clear_node_cap"]

_lock = threading.Lock()
_state: Dict[str, object] = {}


def set_node_cap(
    cap_w: Optional[float],
    cap_ghz: Optional[float],
    epoch: int,
    node_id: Optional[str] = None,
) -> bool:
    """Apply a cap frame; returns False if it was stale (older epoch)."""
    epoch = int(epoch)
    with _lock:
        if _state and epoch < int(_state.get("epoch", 0)):
            return False
        _state.clear()
        _state.update(
            {
                "cap_w": None if cap_w is None else float(cap_w),
                "cap_ghz": None if cap_ghz is None else float(cap_ghz),
                "epoch": epoch,
                "node_id": node_id,
            }
        )
        return True


def current_cap() -> Optional[Dict[str, object]]:
    """The last applied cap frame, or None when uncapped."""
    with _lock:
        return dict(_state) if _state else None


def clear_node_cap() -> None:
    """Forget the cap (worker shutdown / tests)."""
    with _lock:
        _state.clear()
