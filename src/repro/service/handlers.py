"""Request handlers: JSON payloads in, core-model answers out.

This module is the only place where service payloads meet the core
library, and it adds **no arithmetic of its own**: ``tune`` delegates
to :class:`repro.core.service.TuningService` (hence
:mod:`repro.core.tuning` / :mod:`repro.core.objectives`), ``decide``
delegates to :mod:`repro.core.breakeven`. Responses carry exactly the
floats those calls return, so a served answer is byte-identical to the
same query made in-process — the property the end-to-end suite pins.

Validation is strict: unknown fields are rejected (a typo'd optional
field silently ignored would be a misconfigured production tuner), and
every error is a typed :class:`~repro.service.errors.ServiceError`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.breakeven import (
    breakeven_bandwidth_bps,
    breakeven_clients,
    compare_strategies,
)
from repro.core.objectives import Objective
from repro.core.service import TuningService
from repro.core.tuning import PAPER_POLICY
from repro.hardware.cpu import KNOWN_CPUS, get_cpu
from repro.hardware.workload import CODECS, stage_kind
from repro.iosim.nfs import NfsTarget
from repro.service.errors import BadRequestError, NotFoundError
from repro.service.registry import ModelRegistry

__all__ = ["RequestHandlers"]

def _require(payload: Dict[str, Any], key: str) -> Any:
    if key not in payload:
        raise BadRequestError(f"missing required field {key!r}")
    return payload[key]


def _check_fields(payload: Dict[str, Any], allowed: Tuple[str, ...]) -> None:
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    unknown = set(payload) - set(allowed)
    if unknown:
        raise BadRequestError(
            f"unknown fields {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _as_float(payload: Dict[str, Any], key: str, value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BadRequestError(f"field {key!r} must be a number, got {value!r}")


def _get_cpu_checked(arch: Any):
    try:
        return get_cpu(str(arch))
    except KeyError:
        raise NotFoundError(
            f"unknown architecture {arch!r}; known: {sorted(KNOWN_CPUS)}"
        ) from None


class RequestHandlers:
    """Dispatch table the scheduler's handler callback routes into."""

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry

    def __call__(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            handler = getattr(self, f"handle_{kind}")
        except AttributeError:
            raise NotFoundError(f"unknown request kind {kind!r}") from None
        return handler(payload)

    # -- POST /v1/tune -------------------------------------------------

    def handle_tune(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Objective-aware frequency recommendation from a named bundle."""
        _check_fields(payload, ("model", "version", "arch", "stage",
                                "policy", "objective", "max_slowdown"))
        name = str(_require(payload, "model"))
        arch = str(_require(payload, "arch"))
        stage = str(_require(payload, "stage"))
        version = payload.get("version")
        if version is not None:
            try:
                version = int(version)
            except (TypeError, ValueError):
                raise BadRequestError(
                    f"field 'version' must be an integer, got {version!r}"
                )
        policy_name = str(payload.get("policy", "optimal"))
        if policy_name not in ("optimal", "eqn3"):
            raise BadRequestError(
                f"policy must be 'optimal' or 'eqn3', got {policy_name!r}"
            )
        objective_name = str(payload.get("objective", "energy"))
        try:
            objective = Objective(objective_name)
        except ValueError:
            raise BadRequestError(
                f"unknown objective {objective_name!r}; "
                f"known: {[o.value for o in Objective]}"
            ) from None
        max_slowdown = payload.get("max_slowdown")
        if max_slowdown is not None:
            max_slowdown = _as_float(payload, "max_slowdown", max_slowdown)
        if policy_name == "eqn3" and payload.get("max_slowdown") is not None:
            raise BadRequestError(
                "max_slowdown only applies to policy 'optimal' "
                "(eqn3 is a fixed factor)"
            )

        bundle, entry = self.registry.get_with_entry(name, version)
        service = TuningService(bundle)
        try:
            decision = service.decide(
                arch, stage,
                objective=objective,
                policy=PAPER_POLICY if policy_name == "eqn3" else None,
                max_slowdown=max_slowdown,
            )
        except KeyError as exc:
            raise NotFoundError(str(exc.args[0]) if exc.args else str(exc))
        except ValueError as exc:
            raise BadRequestError(str(exc))
        return {
            "model": entry.name,
            "version": entry.version,
            "fingerprint": entry.fingerprint,
            "arch": decision.cpu,
            "stage": decision.stage,
            "policy": policy_name,
            "objective": decision.objective,
            "freq_ghz": decision.freq_ghz,
            "predicted_power_saving": decision.predicted_power_saving,
            "predicted_slowdown": decision.predicted_slowdown,
            "predicted_energy_saving": decision.predicted_energy_saving,
        }

    # -- POST /v1/decide -----------------------------------------------

    def handle_decide(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Break-even compress-vs-raw verdict for one write."""
        _check_fields(payload, ("arch", "codec", "ratio", "error_bound",
                                "nbytes", "clients", "criterion"))
        cpu = _get_cpu_checked(_require(payload, "arch"))
        codec = str(payload.get("codec", "sz"))
        try:
            kind = stage_kind("compress", codec)
        except KeyError:
            raise BadRequestError(
                f"unknown codec {codec!r}; known: {sorted(CODECS)}"
            ) from None
        ratio = _as_float(payload, "ratio", _require(payload, "ratio"))
        error_bound = _as_float(
            payload, "error_bound", _require(payload, "error_bound")
        )
        nbytes = _require(payload, "nbytes")
        try:
            nbytes = int(nbytes)
        except (TypeError, ValueError):
            raise BadRequestError(f"field 'nbytes' must be an integer, got {nbytes!r}")
        clients = payload.get("clients", 1)
        try:
            clients = int(clients)
        except (TypeError, ValueError):
            raise BadRequestError(
                f"field 'clients' must be an integer, got {clients!r}"
            )
        criterion = str(payload.get("criterion", "time"))
        if criterion not in ("time", "energy"):
            raise BadRequestError(
                f"criterion must be 'time' or 'energy', got {criterion!r}"
            )
        try:
            outcomes = compare_strategies(
                cpu, kind, ratio, error_bound, nbytes,
                concurrent_clients=clients,
            )
            threshold = breakeven_bandwidth_bps(
                cpu, kind, ratio, error_bound, criterion
            )
            flip_clients = breakeven_clients(
                cpu, kind, ratio, error_bound, criterion=criterion
            )
        except ValueError as exc:
            raise BadRequestError(str(exc))
        raw, compressed = outcomes["raw"], outcomes["compressed"]
        if criterion == "time":
            compress_wins = compressed.time_s < raw.time_s
        else:
            compress_wins = compressed.energy_j < raw.energy_j
        return {
            "arch": cpu.arch,
            "codec": codec,
            "criterion": criterion,
            "clients": clients,
            "decision": "compress" if compress_wins else "raw-write",
            "raw": {"time_s": raw.time_s, "energy_j": raw.energy_j},
            "compressed": {
                "time_s": compressed.time_s,
                "energy_j": compressed.energy_j,
            },
            "breakeven_bandwidth_bps": threshold,
            "breakeven_clients": flip_clients,
            "effective_bandwidth_bps": NfsTarget().effective_bandwidth_bps(clients),
        }

    # -- POST /v1/characterize (job body; runs on a job thread) --------

    @staticmethod
    def parse_characterize(payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a characterize request up front (fail before 202)."""
        _check_fields(payload, ("model", "repeats", "stride", "scale",
                                "seed", "curve"))
        name = str(_require(payload, "model"))
        doc = {
            "model": name,
            "repeats": int(payload.get("repeats", 3)),
            "stride": int(payload.get("stride", 4)),
            "scale": int(payload.get("scale", 32)),
            "seed": int(payload.get("seed", 0)),
            "curve": str(payload.get("curve", "calibrated")),
        }
        if doc["curve"] not in ("calibrated", "physical"):
            raise BadRequestError(
                f"curve must be 'calibrated' or 'physical', got {doc['curve']!r}"
            )
        for key in ("repeats", "stride", "scale"):
            if doc[key] < 1:
                raise BadRequestError(f"field {key!r} must be >= 1")
        return doc

    def run_characterize(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """The job body: sweep, fit, register the resulting bundle."""
        from repro.core.persistence import ModelBundle
        from repro.core.pipeline import TunedIOPipeline
        from repro.hardware.powercurves import (
            CalibratedPowerCurve,
            PhysicalPowerCurve,
        )
        from repro.workflow.sweep import SweepConfig, default_nodes

        curve_cls = {
            "calibrated": CalibratedPowerCurve,
            "physical": PhysicalPowerCurve,
        }[spec["curve"]]
        pipeline = TunedIOPipeline(
            default_nodes(power_curve=curve_cls(), seed=spec["seed"])
        )
        config = SweepConfig(
            repeats=spec["repeats"],
            frequency_stride=spec["stride"],
            data_scale=spec["scale"],
            seed=spec["seed"],
            measure_ratios=False,
        )
        outcome = pipeline.characterize(config)
        bundle = ModelBundle.from_outcome(
            outcome,
            metadata={
                "curve": spec["curve"],
                "repeats": spec["repeats"],
                "frequency_stride": spec["stride"],
                "data_scale": spec["scale"],
                "seed": spec["seed"],
                "source": "service-characterize",
            },
        )
        entry = self.registry.put(spec["model"], bundle)
        return entry.as_dict()
