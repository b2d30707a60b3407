"""Pinned certificates of the reduced explorer.

Every field of :class:`~repro.verification.reduced.ReducedExplorationResult`
is pinned on a small grid that spans the explorer's representations and
reduction layers: counting and content-carrying queues, ample/sleep/full
reductions, orientation duals, a duplicate-ID stabilizer, the ear walk
on a cycle, a fault profile and a disk spill.  The search is
deterministic, so any change to how successors are built or how states
are keyed must reproduce these numbers (and the SHA-256 digests of the
terminal and canonical-terminal fingerprints) byte for byte.

The second half checks the copy-on-write successor contract directly:
the packed key components a successor carries equal a from-scratch
repack, and a delivery leaves its parent state untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.chang_roberts import ChangRobertsNode
from repro.core.ear_election import EarElectionNode
from repro.core.invariants import hooks_for
from repro.core.kernels.ear import build_routing, virtual_ids
from repro.core.nonoriented import NonOrientedNode
from repro.core.schema import freeze_value, node_state_dict, pack_frozen
from repro.core.terminating import TerminatingNode
from repro.core.warmup import WarmupNode
from repro.faults import FaultModel, apply_fault_model
from repro.graphs.connectivity import Graph
from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring
from repro.verification import explore_reduced
from repro.verification import reduced as reduced_module


def oriented(node_cls, ids, defective=True):
    def build():
        nodes = [node_cls(i) for i in ids]
        return build_oriented_ring(nodes, defective=defective).network

    return build


def nonoriented(ids, flips):
    def build():
        return build_nonoriented_ring(
            [NonOrientedNode(i) for i in ids], flips=flips
        ).network

    return build


def ear_cycle(ids):
    routing = build_routing(Graph.ring(len(ids)))
    vids = virtual_ids(ids, routing)

    def build():
        nodes = []
        for vertex in range(len(ids)):
            out_ports, in_route = routing.node_tables(vertex)
            own = tuple(vids[j] for j in routing.occurrences[vertex])
            nodes.append(EarElectionNode(own, out_ports, in_route))
        return routing.topology.wire(nodes)

    return build


def faulted(ids, model):
    def build():
        network = build_oriented_ring([WarmupNode(i) for i in ids]).network
        apply_fault_model(network, model)
        return network

    return build


#: label -> (factory, explore_reduced keyword arguments).
CASES = {
    "warmup-5-full": (
        oriented(WarmupNode, [1, 2, 3, 4, 5]),
        {"reduction": "full", "invariant_hooks": hooks_for("warmup")},
    ),
    "terminating-4-ample": (
        oriented(TerminatingNode, [2, 3, 1, 4]),
        {"reduction": "ample"},
    ),
    "terminating-4-sleep": (
        oriented(TerminatingNode, [2, 3, 1, 4]),
        {"reduction": "sleep"},
    ),
    "terminating-4-full": (
        oriented(TerminatingNode, [2, 3, 1, 4]),
        {"reduction": "full", "invariant_hooks": hooks_for("terminating")},
    ),
    "nonoriented-3-duals": (
        nonoriented([1, 2, 3], [False, True, False]),
        {"reduction": "full", "include_duals": True},
    ),
    "warmup-dup-full": (oriented(WarmupNode, [1, 2, 1, 2]), {"reduction": "full"}),
    "ear-c5-sleep": (ear_cycle([2, 5, 1, 4, 3]), {"reduction": "sleep"}),
    "warmup-3-drops-sleep": (
        faulted([1, 2, 3], FaultModel(drop_rate=0.3, seed=7)),
        {"reduction": "sleep"},
    ),
    "chang-roberts-4-ample": (
        oriented(ChangRobertsNode, [2, 3, 1, 4], defective=False),
        {"reduction": "ample"},
    ),
    "chang-roberts-4-sleep": (
        oriented(ChangRobertsNode, [2, 3, 1, 4], defective=False),
        {"reduction": "sleep"},
    ),
    "terminating-4-sleep-spilled": (
        oriented(TerminatingNode, [2, 3, 1, 4]),
        {"reduction": "sleep", "spill_threshold": 1},
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(pack_frozen(value)).hexdigest()


def certificate(result) -> dict:
    """Every field of a result, fingerprints lowered to SHA-256 digests."""
    return {
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "enabled_transitions": result.enabled_transitions,
        "ample_states": result.ample_states,
        "full_expansion_states": result.full_expansion_states,
        "terminal_node_fingerprints": _digest(
            tuple(result.terminal_node_fingerprints)
        ),
        "terminal_outputs": _digest(tuple(result.terminal_outputs)),
        "terminal_total_sent": list(result.terminal_total_sent),
        "quiescence_violations": result.quiescence_violations,
        "max_in_flight": result.max_in_flight,
        "reduction": result.reduction,
        "include_duals": result.include_duals,
        "sleep_skipped": result.sleep_skipped,
        "orbit_factor": result.orbit_factor,
        "instances_certified": result.instances_certified,
        "spot_checks": result.spot_checks,
        "visited_bytes": result.visited_bytes,
        "spilled": result.spilled,
        "canonical_terminal_fingerprints": _digest(
            tuple(result.canonical_terminal_fingerprints)
        ),
    }


#: Certificates recorded from the deep-copying, full-repack explorer.
EXPECTED = {
    "chang-roberts-4-ample": {
        "states_explored": 33,
        "transitions": 60,
        "enabled_transitions": 60,
        "ample_states": 0,
        "full_expansion_states": 32,
        "terminal_node_fingerprints": (
            "cb6e4d1f8ed8bdd0a27401b72a6c83cc"
            "ba6c732cd4f568c239e6130c27134b4f"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [12],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "ample",
        "include_duals": False,
        "sleep_skipped": 0,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 14689,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "chang-roberts-4-sleep": {
        "states_explored": 33,
        "transitions": 32,
        "enabled_transitions": 60,
        "ample_states": 0,
        "full_expansion_states": 32,
        "terminal_node_fingerprints": (
            "cb6e4d1f8ed8bdd0a27401b72a6c83cc"
            "ba6c732cd4f568c239e6130c27134b4f"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [12],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "sleep",
        "include_duals": False,
        "sleep_skipped": 28,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 14913,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "ear-c5-sleep": {
        "states_explored": 197,
        "transitions": 196,
        "enabled_transitions": 477,
        "ample_states": 0,
        "full_expansion_states": 196,
        "terminal_node_fingerprints": (
            "e9cf6c48eead493d7d9819acd9912dc3"
            "5a565cc3eece731147f5207a2c8e273c"
        ),
        "terminal_outputs": (
            "5dddf98c695992c7a06d72bc7c5cfae9"
            "33844754107dc68399098f9e4a0ef5f9"
        ),
        "terminal_total_sent": [25],
        "quiescence_violations": 0,
        "max_in_flight": 5,
        "reduction": "sleep",
        "include_duals": False,
        "sleep_skipped": 281,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 159474,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "nonoriented-3-duals": {
        "states_explored": 386,
        "transitions": 847,
        "enabled_transitions": 1111,
        "ample_states": 179,
        "full_expansion_states": 206,
        "terminal_node_fingerprints": (
            "68f3e77eb69cb86712057b5a06be22d3"
            "d8ffcc0b5f0a6e142f774cf1ace9244f"
        ),
        "terminal_outputs": (
            "ec23bf8609dfb843c02e84b1f5ee3066"
            "97d7a7028eed9f12b5c337396fb95a43"
        ),
        "terminal_total_sent": [21],
        "quiescence_violations": 0,
        "max_in_flight": 6,
        "reduction": "full",
        "include_duals": True,
        "sleep_skipped": 134,
        "orbit_factor": 6,
        "instances_certified": 6,
        "spot_checks": 0,
        "visited_bytes": 242510,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "28e7f092b9eeab87aa53a85120cc4645"
            "fe64cf311912e91f446c773312e6049a"
        ),
    },
    "terminating-4-ample": {
        "states_explored": 253,
        "transitions": 546,
        "enabled_transitions": 604,
        "ample_states": 45,
        "full_expansion_states": 207,
        "terminal_node_fingerprints": (
            "86bddf94d8eb2f08359dbaabd1aa30fc"
            "5c75aaefc58f0cfa309a180f910cb873"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [36],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "ample",
        "include_duals": False,
        "sleep_skipped": 0,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 226087,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "terminating-4-full": {
        "states_explored": 239,
        "transitions": 357,
        "enabled_transitions": 563,
        "ample_states": 34,
        "full_expansion_states": 204,
        "terminal_node_fingerprints": (
            "86bddf94d8eb2f08359dbaabd1aa30fc"
            "5c75aaefc58f0cfa309a180f910cb873"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [36],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "full",
        "include_duals": False,
        "sleep_skipped": 180,
        "orbit_factor": 4,
        "instances_certified": 4,
        "spot_checks": 239,
        "visited_bytes": 216636,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "8ac40713560289d983d2dbb4eadcf0e2"
            "a86baf084c707cdbc98eacda808b00e2"
        ),
    },
    "terminating-4-sleep": {
        "states_explored": 239,
        "transitions": 357,
        "enabled_transitions": 563,
        "ample_states": 34,
        "full_expansion_states": 204,
        "terminal_node_fingerprints": (
            "86bddf94d8eb2f08359dbaabd1aa30fc"
            "5c75aaefc58f0cfa309a180f910cb873"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [36],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "sleep",
        "include_duals": False,
        "sleep_skipped": 180,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 215202,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "terminating-4-sleep-spilled": {
        "states_explored": 239,
        "transitions": 357,
        "enabled_transitions": 563,
        "ample_states": 34,
        "full_expansion_states": 204,
        "terminal_node_fingerprints": (
            "86bddf94d8eb2f08359dbaabd1aa30fc"
            "5c75aaefc58f0cfa309a180f910cb873"
        ),
        "terminal_outputs": (
            "1eb88697851122a62b7a12e288c2c5c8"
            "4e09dd726081b8b8f01e9641e63cfcaf"
        ),
        "terminal_total_sent": [36],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "sleep",
        "include_duals": False,
        "sleep_skipped": 180,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 215202,
        "spilled": True,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "warmup-3-drops-sleep": {
        "states_explored": 6,
        "transitions": 5,
        "enabled_transitions": 8,
        "ample_states": 2,
        "full_expansion_states": 3,
        "terminal_node_fingerprints": (
            "e32c92549373f179138a2b011023530d"
            "c8e5421ebdbef39195481c95c80f4c57"
        ),
        "terminal_outputs": (
            "ec23bf8609dfb843c02e84b1f5ee3066"
            "97d7a7028eed9f12b5c337396fb95a43"
        ),
        "terminal_total_sent": [6],
        "quiescence_violations": 0,
        "max_in_flight": 3,
        "reduction": "sleep",
        "include_duals": False,
        "sleep_skipped": 0,
        "orbit_factor": 1,
        "instances_certified": 1,
        "spot_checks": 0,
        "visited_bytes": 3014,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "0a6361b3a802f55cd5ae06101c88a1e2"
            "16320fe11cc0cfe1d791eed08a1200fd"
        ),
    },
    "warmup-5-full": {
        "states_explored": 26,
        "transitions": 25,
        "enabled_transitions": 48,
        "ample_states": 16,
        "full_expansion_states": 9,
        "terminal_node_fingerprints": (
            "41127acf9781fff16e5913dab982e205"
            "61dd03ad9c4892229574905f285a49b9"
        ),
        "terminal_outputs": (
            "5dddf98c695992c7a06d72bc7c5cfae9"
            "33844754107dc68399098f9e4a0ef5f9"
        ),
        "terminal_total_sent": [25],
        "quiescence_violations": 0,
        "max_in_flight": 5,
        "reduction": "full",
        "include_duals": False,
        "sleep_skipped": 0,
        "orbit_factor": 5,
        "instances_certified": 5,
        "spot_checks": 26,
        "visited_bytes": 19735,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "c93b4037bc6d099e8a357e3d57198aae"
            "5cf9488271a325f3134b174cf436c6b2"
        ),
    },
    "warmup-dup-full": {
        "states_explored": 9,
        "transitions": 8,
        "enabled_transitions": 17,
        "ample_states": 6,
        "full_expansion_states": 2,
        "terminal_node_fingerprints": (
            "2e22467a77b14cf58ce826cd8e6e13d6"
            "c001fe2eac49e91b7994162517a51a2b"
        ),
        "terminal_outputs": (
            "eeacf1ab39815a0f2264a55cf884390d"
            "494a5fe4430b989f81f0a7e93b08b06d"
        ),
        "terminal_total_sent": [8],
        "quiescence_violations": 0,
        "max_in_flight": 4,
        "reduction": "full",
        "include_duals": False,
        "sleep_skipped": 0,
        "orbit_factor": 2,
        "instances_certified": 2,
        "spot_checks": 0,
        "visited_bytes": 5623,
        "spilled": False,
        "canonical_terminal_fingerprints": (
            "bbb2f3f95d88c9fc7d8a8f74d269f94c"
            "d0cc3a4a26d02cf36ab48dab68384e37"
        ),
    },
}


def explore(label, tmp_path):
    factory, kwargs = CASES[label]
    if "spill_threshold" in kwargs:
        kwargs = dict(kwargs, spill_dir=str(tmp_path))
    return explore_reduced(factory, **kwargs)


@pytest.mark.parametrize("label", sorted(CASES))
def test_certificate_is_pinned(label, tmp_path):
    assert certificate(explore(label, tmp_path)) == EXPECTED[label]


def _from_scratch(state):
    """A state's key components repacked from its live objects."""
    nodes = [pack_frozen(freeze_value(node_state_dict(node))) for node in state.nodes]
    queues = [
        pack_frozen(queue if isinstance(queue, int) else freeze_value(queue))
        for queue in state.queues
    ]
    return nodes, queues


@pytest.mark.parametrize("label", sorted(CASES))
def test_carried_components_match_a_full_repack(label, tmp_path, monkeypatch):
    """Every successor's carried key equals a from-scratch repack, and
    the delivery leaves its parent state exactly as it was."""
    build = reduced_module._successor
    built = []

    def checked(static, state, channel_id):
        before = _from_scratch(state)
        carried = (list(state.node_packed), list(state.queue_packed))
        queues = [q if isinstance(q, int) else list(q) for q in state.queues]
        cursors = None if state.fault_idx is None else list(state.fault_idx)
        sent = state.total_sent
        child, violated = build(static, state, channel_id)
        assert (child.node_packed, child.queue_packed) == _from_scratch(child)
        assert _from_scratch(state) == before
        assert (state.node_packed, state.queue_packed) == carried == before
        assert state.queues == queues and state.fault_idx == cursors
        assert state.total_sent == sent
        built.append(channel_id)
        return child, violated

    monkeypatch.setattr(reduced_module, "_successor", checked)
    result = explore(label, tmp_path)
    assert len(built) == result.transitions == EXPECTED[label]["transitions"]
