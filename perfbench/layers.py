"""Where each layer is wrapped, and how its per-layer metrics are derived.

Every wrap point is the attribute the caller resolves at call time:

* nodes and the fleet reach the kernels through the kernel *module*
  (``kernel.step``, ``kernel.drain_block_np``), so the module attributes
  are wrapped;
* ``repro.verification.statistical`` imports ``run_terminating_fleet`` /
  ``run_nonoriented_fleet`` by name, so its own globals are wrapped;
* ``repro.verification.reduced`` and ``repro.verification.symmetry``
  import the schema encoders by name, so theirs are wrapped;
* the invariant batteries are read from the ``COLUMN_INVARIANTS`` and
  ``ALGORITHM_HOOKS`` registries at call time, so their entries are;
* methods (``Engine.run``, scheduler ``choose``, ``apply_np``,
  ``ResultStore.put``/``get``) are wrapped on their classes.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from tracing import Tracer, WrapPoint, layer_totals, root_wall

#: The layers each workload is built to exercise (their self times
#: should cover most of the workload's traced op time).
WORKLOAD_LAYERS = {
    "elect": ("core.kernels", "simulator.engine", "simulator.scheduler"),
    "certify": (
        "core.kernels",
        "core.invariants",
        "core.schema",
        "verification.reduced",
        "verification.symmetry",
    ),
    "fleet": (
        "core.kernels",
        "simulator.fleet",
        "core.invariants",
        "verification.statistical",
        "faults.fleet",
        "adversary.search",
        "farm.service",
        "farm.store",
        "farm.keys",
    ),
}


# -- counters read off return values ----------------------------------------

def _engine_run(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("engine.steps", result.steps)
    tracer.count("engine.pulses", result.total_sent)


def _fleet_run(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("fleet.rounds", result.rounds)
    tracer.count("fleet.lap_skips", result.lap_skips)
    if result.fault_events:
        tracer.count("faults.events", sum(result.fault_events.values()))


def _explored(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("reduced.explorations")
    tracer.count("reduced.states", result.states_explored)
    tracer.count("reduced.transitions", result.transitions)
    tracer.count("reduced.enabled_transitions", result.enabled_transitions)
    tracer.count("reduced.visited_bytes", result.visited_bytes)


def _statistical(tracer: Tracer, report: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("statistical.samples", report.samples)


def _recovery_shard(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    counts = result[0]
    tracer.count("statistical.samples", sum(counts.values()))


def _evaluated(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("search.evaluations")


def _searched(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    # Cross-entropy asks its memo for iterations x population plans.
    tracer.count("search.lookups", kwargs["iterations"] * kwargs["population"])


def _baselined(tracer: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("search.lookups", kwargs["count"])


def _put(tracer: Tracer, path: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("store.puts")
    tracer.count("store.bytes_written", os.path.getsize(path))


def _get(tracer: Tracer, payload: Any, args: tuple, kwargs: dict) -> None:
    tracer.count("store.gets")
    if payload is not None:
        tracer.count("store.hits")


def wrap_points() -> Tuple[List[WrapPoint], list]:
    """The wrap points and invariant registries of every layer."""
    from repro.adversary import search
    from repro.core import invariants
    from repro.core.kernels import nonoriented, terminating, warmup
    from repro.farm import campaign, service, store, workloads
    from repro.faults import fleet as faults_fleet
    from repro.simulator import engine, scheduler
    from repro.verification import reduced, statistical, symmetry

    kernels = [
        (warmup, "step"),
        (warmup, "step_block_np"),
        (warmup, "skip_margins_np"),
        (terminating, "step"),
        (terminating, "drain"),
        (terminating, "drain_block_np"),
        (terminating, "cw_skip_margins_np"),
        (terminating, "ccw_skip_margins_np"),
        (nonoriented, "step"),
    ]
    points = [WrapPoint(owner, attr, "core.kernels") for owner, attr in kernels]
    points += [
        WrapPoint(engine.Engine, "run", "simulator.engine", _engine_run),
        WrapPoint(scheduler.GlobalFifoScheduler, "choose", "simulator.scheduler"),
        WrapPoint(scheduler.LongestRunScheduler, "choose", "simulator.scheduler"),
        WrapPoint(statistical, "run_terminating_fleet", "simulator.fleet", _fleet_run),
        WrapPoint(statistical, "run_nonoriented_fleet", "simulator.fleet", _fleet_run),
        WrapPoint(reduced, "pack_frozen", "core.schema"),
        WrapPoint(reduced, "freeze_value", "core.schema"),
        WrapPoint(reduced, "node_state_dict", "core.schema"),
        WrapPoint(reduced, "node_fingerprint", "core.schema"),
        WrapPoint(symmetry, "pack_frozen", "core.schema"),
        WrapPoint(reduced, "explore_reduced", "verification.reduced", _explored),
        WrapPoint(symmetry.RingSymmetry, "canonical", "verification.symmetry"),
        WrapPoint(symmetry.RingSymmetry, "orbit_factor", "verification.symmetry"),
        WrapPoint(symmetry.RingSymmetry, "permute_nodes", "verification.symmetry"),
        WrapPoint(
            symmetry.RingSymmetry, "to_canonical_channel", "verification.symmetry"
        ),
        WrapPoint(
            statistical, "run_statistical_check", "verification.statistical",
            _statistical,
        ),
        WrapPoint(
            statistical, "run_recovery_shard", "verification.statistical",
            _recovery_shard,
        ),
        WrapPoint(faults_fleet.DirectionFaults, "apply_np", "faults.fleet"),
        WrapPoint(faults_fleet.TerminatingFaults, "apply_np", "faults.fleet"),
        WrapPoint(search, "evaluate_plan", "adversary.search", _evaluated),
        WrapPoint(search, "search_worst_plan", "adversary.search", _searched),
        WrapPoint(search, "random_baseline", "adversary.search", _baselined),
        WrapPoint(service.Farm, "submit", "farm.service"),
        WrapPoint(service.Farm, "collect_object", "farm.service"),
        WrapPoint(store.ResultStore, "put", "farm.store", _put),
        WrapPoint(store.ResultStore, "get", "farm.store", _get),
        WrapPoint(campaign, "shard_key", "farm.keys"),
        WrapPoint(campaign, "campaign_id", "farm.keys"),
        WrapPoint(campaign, "canonical_fault_model", "farm.keys"),
        WrapPoint(store, "canonical_json", "farm.keys"),
        WrapPoint(store, "digest", "farm.keys"),
        WrapPoint(service, "canonical_json", "farm.keys"),
        WrapPoint(workloads, "fault_model_from_canonical", "farm.keys"),
        WrapPoint(search, "canonical_json", "farm.keys"),
    ]
    registries = [
        (invariants.COLUMN_INVARIANTS, "core.invariants"),
        (invariants.ALGORITHM_HOOKS, "core.invariants"),
    ]
    return points, registries


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, ops: int, named: Tuple[str, ...]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run of ``ops`` ops.

    Times and counts are per traced op; ratios are over the whole run.
    ``trace.layer_share`` is the share of traced op time that the
    ``named`` layers' self times account for.
    """
    totals = layer_totals(tracer)
    c = tracer.counters

    def spans(layer: str) -> Tuple[int, float, float]:
        return totals.get(layer, (0, 0.0, 0.0))

    def per_op(value: float) -> float:
        return value / ops

    def self_ms(layer: str) -> Tuple[float, str]:
        return (per_op(spans(layer)[1] * 1000.0), "ms/op")

    def call_count(layer: str) -> Tuple[float, str]:
        return (per_op(spans(layer)[0]), "count/op")

    reduced_wall = spans("verification.reduced")[2]
    covered = sum(spans(layer)[1] for layer in named)
    return {
        "core.kernels.calls": call_count("core.kernels"),
        "core.kernels.self_ms": self_ms("core.kernels"),
        "simulator.engine.self_ms": self_ms("simulator.engine"),
        "simulator.engine.steps": (per_op(c["engine.steps"]), "count/op"),
        "simulator.engine.pulses_per_step": (
            _ratio(c["engine.pulses"], c["engine.steps"]), "ratio",
        ),
        "simulator.scheduler.calls": call_count("simulator.scheduler"),
        "simulator.scheduler.self_ms": self_ms("simulator.scheduler"),
        "simulator.fleet.self_ms": self_ms("simulator.fleet"),
        "simulator.fleet.rounds": (per_op(c["fleet.rounds"]), "count/op"),
        "simulator.fleet.lap_skips": (per_op(c["fleet.lap_skips"]), "count/op"),
        "core.invariants.calls": call_count("core.invariants"),
        "core.invariants.self_ms": self_ms("core.invariants"),
        "core.schema.calls": call_count("core.schema"),
        "core.schema.self_ms": self_ms("core.schema"),
        "verification.symmetry.calls": call_count("verification.symmetry"),
        "verification.symmetry.self_ms": self_ms("verification.symmetry"),
        "verification.reduced.self_ms": self_ms("verification.reduced"),
        "verification.reduced.states": (per_op(c["reduced.states"]), "count/op"),
        "verification.reduced.states_per_s": (
            _ratio(c["reduced.states"], reduced_wall), "1/s",
        ),
        "verification.reduced.transitions": (
            per_op(c["reduced.transitions"]), "count/op",
        ),
        "verification.reduced.prune_ratio": (
            _ratio(c["reduced.transitions"], c["reduced.enabled_transitions"]),
            "ratio",
        ),
        "verification.reduced.visited_bytes": (
            _ratio(c["reduced.visited_bytes"], c["reduced.explorations"]), "bytes",
        ),
        "verification.statistical.self_ms": self_ms("verification.statistical"),
        "verification.statistical.samples": (
            per_op(c["statistical.samples"]), "count/op",
        ),
        "faults.fleet.calls": call_count("faults.fleet"),
        "faults.fleet.self_ms": self_ms("faults.fleet"),
        "faults.fleet.events": (per_op(c["faults.events"]), "count/op"),
        "adversary.search.evaluations": (
            per_op(c["search.evaluations"]), "count/op",
        ),
        "adversary.search.memo_hit_ratio": (
            1.0 - _ratio(c["search.evaluations"], c["search.lookups"])
            if c["search.lookups"]
            else 0.0,
            "ratio",
        ),
        "adversary.search.self_ms": self_ms("adversary.search"),
        "farm.service.self_ms": self_ms("farm.service"),
        "farm.store.puts": (per_op(c["store.puts"]), "count/op"),
        "farm.store.gets": (per_op(c["store.gets"]), "count/op"),
        "farm.store.hit_ratio": (_ratio(c["store.hits"], c["store.gets"]), "ratio"),
        "farm.store.bytes_written": (
            per_op(c["store.bytes_written"]), "bytes/op",
        ),
        "farm.store.self_ms": self_ms("farm.store"),
        "farm.keys.self_ms": self_ms("farm.keys"),
        "trace.layer_share": (_ratio(covered, root_wall(tracer)), "ratio"),
        "trace.spans": (per_op(len(tracer)), "count/op"),
    }
