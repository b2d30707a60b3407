"""The traced run: self-time arithmetic, exact restore, unchanged outputs."""

import signal
import time

import pytest

import reference
import run
from layers import WORKLOAD_LAYERS, layer_metrics, wrap_points
from tracing import Tracer, install, layer_totals, root_wall, traced
from workloads import WORKLOADS, deck_rng


def _span(tracer, layer, start, end, parent):
    tracer.layer.append(tracer.layer_id(layer))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.op.append(0)
    return len(tracer.start) - 1


def test_self_time_subtracts_children_at_every_depth():
    tracer = Tracer()
    root = _span(tracer, "op", 0.0, 10.0, -1)
    a = _span(tracer, "a", 1.0, 4.0, root)
    _span(tracer, "b", 2.0, 3.0, a)
    _span(tracer, "c", 5.0, 9.0, root)
    _span(tracer, "b", 6.0, 8.5, 3)
    second = _span(tracer, "op", 20.0, 21.0, -1)
    _span(tracer, "a", 20.25, 20.75, second)
    totals = layer_totals(tracer)
    assert {name: own for name, (_, own, _) in totals.items()} == pytest.approx(
        {"op": 3.0 + 0.5, "a": 2.0 + 0.5, "b": 1.0 + 2.5, "c": 1.5}
    )
    assert totals["b"][0] == 2 and totals["a"][2] == pytest.approx(3.5)
    assert root_wall(tracer) == pytest.approx(11.0)
    # Self times partition the traced wall time exactly.
    assert sum(own for _, own, _ in totals.values()) == pytest.approx(11.0)


def test_live_spans_nest_and_count():
    tracer = Tracer()
    inner = traced(tracer, "inner", lambda x: x + 1)
    outer = traced(tracer, "outer", lambda x: inner(x) * 2)
    span = tracer.begin_op()
    assert outer(1) == 4
    tracer.close(span)
    assert list(tracer.parent) == [-1, 0, 1]
    totals = layer_totals(tracer)
    assert totals["inner"][0] == totals["outer"][0] == 1


def _owners_snapshot(points, registries):
    attrs = {
        (id(p.owner), p.attr): (p.owner, p.attr in vars(p.owner), vars(p.owner).get(p.attr))
        for p in points
    }
    items = {
        (id(registry), key): value
        for registry, _ in registries
        for key, value in registry.items()
    }
    return attrs, items


def test_restore_puts_back_the_very_same_objects():
    points, registries = wrap_points()
    attrs, items = _owners_snapshot(points, registries)
    tracer = Tracer()
    installed = install(tracer, points, registries)
    for point in points:
        assert getattr(point.owner, point.attr).__wrapped__ is not None
    installed.restore()
    for (_, attr), (owner, had_own, original) in attrs.items():
        assert (attr in vars(owner)) == had_own
        assert vars(owner).get(attr) is original
    for registry, _ in registries:
        for key, value in registry.items():
            assert value is items[(id(registry), key)]


def test_restore_also_runs_when_the_traced_run_raises():
    points, registries = wrap_points()
    attrs, _ = _owners_snapshot(points, registries)
    installed = install(Tracer(), points, registries)
    with pytest.raises(RuntimeError):
        try:
            raise RuntimeError("op failed")
        finally:
            installed.restore()
    for (_, attr), (owner, _, original) in attrs.items():
        assert vars(owner).get(attr) is original


#: Cheap op classes of every workload (label prefixes).
CHEAP = {
    "elect": ("terminating/per_pulse", "nonoriented/per_pulse"),
    "certify": ("warmup/n7", "ear/n4", "nonoriented/n3"),
    "fleet": (
        "adversary/search",
        "adversary/drop",
        "adversary/crash",
        "terminating/lockstep/numpy/n8",
        "terminating/seeded/numpy/n6",
    ),
}


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_traced_outputs_equal_untraced_outputs(name, tmp_path):
    workload = WORKLOADS[name]

    def deck(root):
        ops = workload.build_deck(deck_rng(3, 0), root)
        return [op for op in ops if op.label.startswith(CHEAP[name]) and op.twin is None]

    plain = run.Phase()
    expected = run.run_deck(workload, deck(tmp_path / "plain"), "plain", plain)
    assert plain.failed == 0, plain.problems

    tracer = Tracer()
    points, registries = wrap_points()
    installed = install(tracer, points, registries)
    try:
        phase = run.Phase()
        got = run.run_deck(
            workload, deck(tmp_path / "traced"), "traced", phase, tracer=tracer
        )
    finally:
        installed.restore()
    assert got == expected
    assert phase.failed == 0, phase.problems

    metrics = layer_metrics(tracer, phase.ops, WORKLOAD_LAYERS[name])
    assert metrics["trace.layer_share"][0] > 0.5
    if name == "elect":
        assert metrics["simulator.engine.steps"][0] > 0
        assert metrics["core.kernels.calls"][0] > 0
    if name == "certify":
        assert metrics["verification.reduced.states"][0] > 0
        assert metrics["core.schema.calls"][0] > 0
        assert metrics["core.invariants.calls"][0] > 0
    if name == "fleet":
        assert metrics["simulator.fleet.rounds"][0] > 0
        assert metrics["verification.statistical.samples"][0] > 0
        assert metrics["core.invariants.calls"][0] > 0
        assert metrics["faults.fleet.events"][0] > 0
        assert metrics["adversary.search.evaluations"][0] > 0
        assert metrics["farm.store.puts"][0] > 0


def test_an_op_counts_its_fastest_pass():
    phase = run.Phase()
    for seconds in ((0.3, 0.1), (0.2, 0.4), (0.25, 0.5)):  # three passes
        for deck, value in enumerate(seconds):
            phase.record((deck, 0), f"class{deck}", 2 * value, value)
    assert (phase.ops, phase.runs, phase.attempted) == (2, 6, 6)
    assert phase.latencies == [0.2, 0.1]
    assert phase.wall_latencies == [0.4, 0.2]
    assert phase.rate == pytest.approx(2 / 0.3)
    assert phase.p50 == pytest.approx(0.15)
    assert phase.op_seconds == pytest.approx(3.5)


def test_tail_leaves_ten_ops_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(1 for x in latencies if x > value) == 10


def test_meter_samples_during_the_block_and_disarms_after():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Meter() as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 5  # before, after, and ticks during the block
    assert 0.0 < meter.spent < 0.1
    assert meter.scale > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
