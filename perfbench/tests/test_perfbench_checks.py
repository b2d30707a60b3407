"""Every per-op check passes on real outcomes and fires on wrong ones."""

import copy
import random

import pytest

import run
import workloads
from workloads import Op, deck_rng

#: Every workload the checks are written for; montecarlo blocks and
#: adversary calls are the two parts of the fleet workload.
PARTS = {
    **workloads.WORKLOADS,
    "montecarlo": workloads.MONTECARLO,
    "adversary": workloads.ADVERSARY,
}


def _summary(workload, op):
    return PARTS[workload].summarize(op, PARTS[workload].run(op))


def _check(workload, op, summary):
    return PARTS[workload].check(op, summary)


def _wrong(summary, **changes):
    broken = copy.deepcopy(summary)
    broken.update(changes)
    return broken


@pytest.fixture(scope="module")
def terminating_election():
    op = Op(
        "terminating",
        {"algorithm": "terminating", "ids": [3, 9, 4, 7], "batched": False,
         "scheduler": "fifo"},
    )
    return op, _summary("elect", op)


def test_elect_check_passes_on_real_outcomes():
    ops = PARTS["elect"].build_deck(deck_rng(0, 0), None)
    for op in ops:
        if not op.params["batched"]:
            assert _check("elect", op, _summary("elect", op)) == []


def test_elect_check_fires_on_pulse_count_off_by_one(terminating_election):
    op, summary = terminating_election
    assert _check("elect", op, summary) == []
    broken = _wrong(summary, total_pulses=summary["total_pulses"] + 1)
    assert any("pulses" in p for p in _check("elect", op, broken))


def test_elect_check_fires_on_wrong_leader_and_termination(terminating_election):
    op, summary = terminating_election
    assert _check("elect", op, _wrong(summary, leaders=[0]))
    assert _check("elect", op, _wrong(summary, leaders=[0, 1]))
    assert _check("elect", op, _wrong(summary, terminated=False))
    order = summary["termination_order"]
    assert _check("elect", op, _wrong(summary, termination_order=order[::-1]))


def test_elect_check_fires_on_inconsistent_orientation():
    op = Op(
        "nonoriented",
        {"algorithm": "nonoriented", "ids": [2, 6, 5], "flips": [True, False, True],
         "batched": True, "scheduler": "longest_run"},
    )
    summary = _summary("elect", op)
    assert _check("elect", op, summary) == []
    assert _check("elect", op, _wrong(summary, orientation_consistent=False))


@pytest.mark.parametrize(
    "params",
    [
        {"algorithm": "terminating", "ids": [2, 3, 1]},
        {"algorithm": "warmup", "ids": [4, 1, 3, 2]},
        {"algorithm": "nonoriented", "ids": [3, 1, 2], "flips": [True, False, False]},
        {"algorithm": "ear", "ids": [2, 4, 1, 3]},
    ],
)
def test_certify_check_fires_on_wrong_certificates(params):
    op = Op(params["algorithm"], params)
    summary = _summary("certify", op)
    assert _check("certify", op, summary) == []
    sent = summary["terminal_total_sent"]
    assert _check("certify", op, _wrong(summary, terminal_total_sent=[sent[0] - 1]))
    assert _check("certify", op, _wrong(summary, terminal_total_sent=[]))
    assert _check("certify", op, _wrong(summary, quiescence_violations=1))
    assert _check("certify", op, _wrong(summary, confluent=False, terminal_states=2))


def test_montecarlo_check_fires_on_violations_and_backend():
    op = Op(
        "block",
        {"algorithm": "terminating", "scheduler": "seeded", "n": 4, "id_max": 20,
         "samples": 8, "backend": "numpy", "seed": 3, "sched_seed": 5},
    )
    summary = _summary("montecarlo", op)
    assert _check("montecarlo", op, summary) == []
    assert _check("montecarlo", op, _wrong(summary, violations=1))
    assert _check("montecarlo", op, _wrong(summary, backend="python"))
    assert _check("montecarlo", op, _wrong(summary, samples=7))


def test_montecarlo_twin_blocks_agree_and_a_mismatch_fails():
    deck = PARTS["fleet"].build_deck(deck_rng(4, 0), None)
    twins = [op for op in deck if op.twin is not None]
    assert twins and all(op.params["backend"] == "python" for op in twins)
    pair = [deck[twins[-1].twin], twins[-1]]
    pair[1].twin = 0
    phase = run.Phase()
    run.run_deck(PARTS["fleet"], pair, "test", phase)
    assert phase.failed == 0, phase.problems

    class Skewed:
        """The fleet workload, except python blocks report a skewed interval."""

        def __getattr__(self, name):
            return getattr(PARTS["fleet"], name)

        def summarize(self, op, report):
            summary = PARTS["fleet"].summarize(op, report)
            if op.params["backend"] == "python":
                summary["rate_low"] = 0.0
            return summary

    phase = run.Phase()
    run.run_deck(Skewed(), pair, "test", phase)
    assert any("twin" in problem for problem in phase.problems)


@pytest.fixture(scope="module")
def adversary_deck(tmp_path_factory):
    root = tmp_path_factory.mktemp("farm")
    deck = PARTS["adversary"].build_deck(random.Random(7), root)
    return deck, [_summary("adversary", op) for op in deck]


def test_adversary_checks_pass_and_fire(adversary_deck):
    deck, summaries = adversary_deck
    for op, summary in zip(deck, summaries):
        assert _check("adversary", op, summary) == []
    search_op, search = deck[0], summaries[0]
    best = dict(search["best"], stuck=search["best"]["stuck"] + 1)
    assert _check("adversary", search_op, _wrong(search, best=best))
    best = dict(search["best"], cost=99)
    assert _check("adversary", search_op, _wrong(search, best=best))
    drop_op, drop = deck[1], summaries[1]
    points = copy.deepcopy(drop["points"])
    points[0]["recovered"] -= 1
    points[0]["wrong_stable"] += 1
    assert any("rate-0" in p for p in _check("adversary", drop_op, _wrong(drop, points=points)))


def test_warm_replay_fails_on_a_mismatched_warm_result(adversary_deck):
    deck, summaries = adversary_deck
    phase = run.Phase()
    run.run_deck(PARTS["adversary"], deck, "warm", phase, expect=summaries)
    assert phase.failed == 0, phase.problems
    assert phase.attempted == len(deck)  # each call is one op
    skewed = copy.deepcopy(summaries)
    skewed[2]["points"][1]["recovered"] += 1
    phase = run.Phase()
    run.run_deck(PARTS["adversary"], deck, "warm", phase, expect=skewed)
    assert phase.failed == 1
    assert "identical earlier call" in phase.problems[0]


def test_an_op_that_raises_counts_as_failed():
    op = Op(
        "bad",
        {"algorithm": "terminating", "ids": [1, 1], "batched": False, "scheduler": "fifo"},
    )
    phase = run.Phase()
    run.run_deck(PARTS["elect"], [op], "test", phase)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "not unique" in phase.problems[0]
