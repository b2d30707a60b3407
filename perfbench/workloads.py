"""The benchmark's workloads: inputs, ops, summaries and checks.

A workload is a *deck*: a fixed list of op classes whose concrete inputs
(ID draws, ring order, port flips, fault and search seeds) come from the
run's seed and the deck's index.  A run draws a fixed number of decks
and times whole passes over them, so every run has the same mix of op
classes whatever the seed, and the numbers are comparable between runs
and commits.

Each op is run, then summarized into plain data, then checked against
values the benchmark derives from the op's *inputs* (the paper's exact
pulse counts, the maximal-ID leader), never from the outcome itself.
The repro package receives only the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Summary of a finished op: plain, comparable data.
Summary = Dict[str, Any]


@dataclass
class Op:
    """One op of a deck.

    ``label`` names the op class; ``params`` are its generated inputs;
    ``twin`` is the deck index of the op whose outcome this one must
    reproduce exactly (python-backend blocks repeat a numpy block).
    """

    label: str
    params: Dict[str, Any]
    twin: Optional[int] = None


def deck_rng(seed: int, deck: int) -> random.Random:
    """The input stream of deck ``deck`` of a run seeded ``seed``."""
    return random.Random(f"perfbench:{seed}:{deck}")


def _ids_with_max(rng: random.Random, n: int, id_max: int) -> List[int]:
    """``n`` distinct IDs with maximum ``id_max``, in a random ring order.

    ID ``k`` is drawn from its own stratum ``(id_max*k/n, id_max*(k+1)/n]``.
    An election's cost follows the gaps between IDs: plain uniform draws
    move a batched run's step count by 20-30% from draw to draw, and
    stratified draws by 2-5%, so runs on different seeds stay comparable.
    """
    ids = [rng.randint(id_max * k // n + 1, id_max * (k + 1) // n) for k in range(n - 1)]
    ids.append(id_max)
    rng.shuffle(ids)
    return ids


def _expected_leader(ids: List[int]) -> int:
    return ids.index(max(ids))


def _thm1_bound(ids: List[int]) -> int:
    """Theorem 1 and Theorem 2: exactly ``n(2*IDmax + 1)`` pulses."""
    return len(ids) * (2 * max(ids) + 1)


@dataclass
class Workload:
    """A deck factory plus how to run, summarize and check one op."""

    build_deck: Callable[[random.Random, Path], List[Op]]
    run: Callable[[Op], Any]
    summarize: Callable[[Op, Any], Summary]
    check: Callable[[Op, Summary], List[str]]
    #: How many of the deck's first ops are repeated after it (the warm
    #: phase); decks list the classes to repeat first.  An odd count puts the
    #: warm median inside one op class, not on a boundary.
    warm: int = 0
    #: Decks a run draws: a pass over them takes 4-12 seconds when the
    #: machine runs at full speed.
    decks: int = 4


# -- elect --------------------------------------------------------------------

#: (algorithm, n, IDmax, batched, scheduler).  Mostly batched whole-run
#: deliveries; a minority per pulse at smaller IDmax.  n=32, IDmax=10^4
#: batched is the engine profile quoted in perfbench/README.md.
ELECT_CLASSES = (
    ("terminating", 8, 100, False, "fifo"),
    ("nonoriented", 8, 100, False, "fifo"),
    ("nonoriented", 8, 200, False, "longest_run"),
    ("terminating", 16, 150, False, "longest_run"),
    ("terminating", 32, 10_000, True, "fifo"),
    ("terminating", 16, 2_000, True, "fifo"),
    ("terminating", 8, 5_000, True, "fifo"),
    ("terminating", 32, 5_000, True, "longest_run"),
    ("terminating", 16, 2_000, True, "longest_run"),
    ("nonoriented", 8, 2_000, True, "fifo"),
    ("nonoriented", 16, 1_000, True, "fifo"),
    ("nonoriented", 32, 2_000, True, "longest_run"),
    ("nonoriented", 16, 5_000, True, "longest_run"),
)


def _elect_deck(rng: random.Random, workdir: Path) -> List[Op]:
    deck = []
    for algorithm, n, id_max, batched, scheduler in ELECT_CLASSES:
        ids = _ids_with_max(rng, n, id_max)
        params = {
            "algorithm": algorithm,
            "ids": ids,
            "batched": batched,
            "scheduler": scheduler,
        }
        if algorithm == "nonoriented":
            params["flips"] = [rng.random() < 0.5 for _ in ids]
        mode = "batched" if batched else "per_pulse"
        deck.append(Op(f"{algorithm}/{mode}/{scheduler}/n{n}/id{id_max}", params))
    return deck


def _elect_run(op: Op) -> Any:
    from repro.core.nonoriented import run_nonoriented
    from repro.core.terminating import run_terminating
    from repro.simulator.scheduler import GlobalFifoScheduler, LongestRunScheduler

    p = op.params
    scheduler = (
        LongestRunScheduler() if p["scheduler"] == "longest_run" else GlobalFifoScheduler()
    )
    if p["algorithm"] == "terminating":
        return run_terminating(p["ids"], scheduler=scheduler, batched=p["batched"])
    return run_nonoriented(
        p["ids"], flips=p["flips"], scheduler=scheduler, batched=p["batched"]
    )


def _elect_summary(op: Op, outcome: Any) -> Summary:
    run = outcome.run
    summary = {
        "leaders": list(outcome.leaders),
        "total_pulses": outcome.total_pulses,
        "steps": run.steps,
        "quiescent": run.quiescent,
        "violations": len(run.quiescence_violations),
    }
    if op.params["algorithm"] == "terminating":
        summary["terminated"] = run.quiescently_terminated
        summary["termination_order"] = list(run.termination_order)
    else:
        summary["orientation_consistent"] = outcome.orientation_consistent
    return summary


def _elect_check(op: Op, s: Summary) -> List[str]:
    ids = op.params["ids"]
    problems = []
    if s["leaders"] != [_expected_leader(ids)]:
        problems.append(f"leaders {s['leaders']} != [{_expected_leader(ids)}]")
    if s["total_pulses"] != _thm1_bound(ids):
        problems.append(f"pulses {s['total_pulses']} != {_thm1_bound(ids)}")
    if not s["quiescent"] or s["violations"]:
        problems.append("run did not end quiescent")
    if op.params["algorithm"] == "terminating":
        if not s["terminated"]:
            problems.append("termination not quiescent")
        if s["termination_order"][-1:] != [_expected_leader(ids)]:
            problems.append("leader did not terminate last")
    elif not s["orientation_consistent"]:
        problems.append("orientation not consistent")
    return problems


# -- certify ------------------------------------------------------------------

#: (algorithm, n, copies per deck).  Terminating [1..5] and nonoriented
#: [1..3] sit just below the certified frontier; warmup [1..7] is on it;
#: ``ear`` instances are cycles C4/C5 wired through the general-graph
#: (2-edge-connected) path, which runs without symmetry reduction.  With
#: four decks a run holds 32 ops: the median falls inside the nonoriented
#: class and the tail (the 11th largest) inside the terminating class,
#: not on a boundary between two classes.
CERTIFY_CLASSES = (
    ("warmup", 7, 1),
    ("ear", 4, 1),
    ("ear", 5, 1),
    ("nonoriented", 3, 2),
    ("terminating", 5, 3),
)


def _certify_deck(rng: random.Random, workdir: Path) -> List[Op]:
    deck = []
    for algorithm, n, copies in CERTIFY_CLASSES:
        for _ in range(copies):
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            params: Dict[str, Any] = {"algorithm": algorithm, "ids": ids}
            if algorithm == "nonoriented":
                params["flips"] = [rng.random() < 0.5 for _ in ids]
            deck.append(Op(f"{algorithm}/n{n}", params))
    return deck


def _ring_factory(p: Dict[str, Any]) -> Callable[[], Any]:
    from repro.core.nonoriented import NonOrientedNode
    from repro.core.terminating import TerminatingNode
    from repro.core.warmup import WarmupNode
    from repro.simulator.ring import build_nonoriented_ring, build_oriented_ring

    ids = p["ids"]
    if p["algorithm"] == "nonoriented":
        return lambda: build_nonoriented_ring(
            [NonOrientedNode(i) for i in ids], flips=p["flips"]
        ).network
    node = {"warmup": WarmupNode, "terminating": TerminatingNode}[p["algorithm"]]
    return lambda: build_oriented_ring([node(i) for i in ids]).network


def _ear_factory(ids: List[int]) -> Tuple[Callable[[], Any], Any]:
    """The ear-walk network of the cycle on ``len(ids)`` vertices, built
    through the general-graph topology exactly as ``repro verify
    --topology`` builds it."""
    from repro.core.ear_election import EarElectionNode
    from repro.core.kernels.ear import build_routing, virtual_ids
    from repro.graphs.connectivity import Graph

    routing = build_routing(Graph.ring(len(ids)))

    def factory() -> Any:
        vids = virtual_ids(ids, routing)
        nodes = []
        for vertex in range(len(ids)):
            out_ports, in_route = routing.node_tables(vertex)
            own = tuple(vids[j] for j in routing.occurrences[vertex])
            nodes.append(EarElectionNode(own, out_ports, in_route))
        return routing.topology.wire(nodes)

    return factory, routing


def _certify_run(op: Op) -> Any:
    from repro.core import invariants
    from repro.verification import reduced

    p = op.params
    if p["algorithm"] == "ear":
        factory, _routing = _ear_factory(p["ids"])
        return reduced.explore_reduced(factory, reduction="sleep")
    return reduced.explore_reduced(
        _ring_factory(p),
        invariant_hooks=invariants.hooks_for(p["algorithm"]),
        reduction="full",
        include_duals=p["algorithm"] == "nonoriented",
    )


def _certify_summary(op: Op, result: Any) -> Summary:
    summary = dict(result.summary())
    summary["terminal_total_sent"] = list(result.terminal_total_sent)
    summary["terminal_outputs"] = [
        [str(value) for value in outputs] for outputs in result.terminal_outputs
    ]
    return summary


def certify_bound(op: Op) -> int:
    """The exact pulse count every schedule of the instance must send."""
    ids = op.params["ids"]
    algorithm = op.params["algorithm"]
    if algorithm == "warmup":
        return len(ids) * max(ids)  # Corollary 13
    if algorithm == "ear":
        _factory, routing = _ear_factory(ids)
        return routing.length * max(ids) * routing.stride  # L * IDmax * C
    return _thm1_bound(ids)


def _certify_check(op: Op, s: Summary) -> List[str]:
    problems = []
    bound = certify_bound(op)
    if not s["terminal_total_sent"] or any(
        sent != bound for sent in s["terminal_total_sent"]
    ):
        problems.append(f"terminal pulses {s['terminal_total_sent']} != {bound}")
    if not s["confluent"]:
        problems.append(f"{s['terminal_states']} terminal states (not confluent)")
    if s["quiescence_violations"]:
        problems.append(f"{s['quiescence_violations']} quiescence violations")
    return problems


# -- montecarlo ---------------------------------------------------------------

#: (algorithm, scheduler, n, IDmax, samples, backend, twin).  ``seeded``
#: blocks pay one Python iteration per round (rounds grow with IDmax);
#: ``lockstep`` blocks run at large IDmax where lap-skips make rounds
#: O(threshold crossings).  A ``python`` block repeats the numpy block at
#: deck position ``twin`` with the same seeds.
MONTECARLO_CLASSES = (
    ("terminating", "lockstep", 8, 1_000, 64, "numpy", None),
    ("nonoriented", "lockstep", 8, 1_000, 64, "numpy", None),
    ("terminating", "seeded", 6, 30, 16, "numpy", None),
    ("terminating", "seeded", 8, 100, 64, "numpy", None),
    ("terminating", "seeded", 8, 60, 64, "numpy", None),
    ("nonoriented", "seeded", 8, 200, 64, "numpy", None),
    ("nonoriented", "seeded", 8, 50, 64, "numpy", None),
    ("terminating", "lockstep", 16, 5_000, 500, "numpy", None),
    ("nonoriented", "lockstep", 16, 5_000, 500, "numpy", None),
    ("terminating", "lockstep", 32, 100_000, 200, "numpy", None),
    ("terminating", "lockstep", 8, 1_000, 64, "python", 0),
    ("nonoriented", "lockstep", 8, 1_000, 64, "python", 1),
    ("terminating", "seeded", 6, 30, 16, "python", 2),
)


def _montecarlo_deck(rng: random.Random, workdir: Path) -> List[Op]:
    deck: List[Op] = []
    for algorithm, scheduler, n, id_max, samples, backend, twin in MONTECARLO_CLASSES:
        if twin is None:
            seeds = {"seed": rng.getrandbits(32), "sched_seed": rng.getrandbits(32)}
        else:
            source = deck[twin].params
            seeds = {"seed": source["seed"], "sched_seed": source["sched_seed"]}
        params = {
            "algorithm": algorithm,
            "scheduler": scheduler,
            "n": n,
            "id_max": id_max,
            "samples": samples,
            "backend": backend,
            **seeds,
        }
        label = f"{algorithm}/{scheduler}/{backend}/n{n}/id{id_max}/B{samples}"
        deck.append(Op(label, params, twin=twin))
    return deck


def _montecarlo_run(op: Op) -> Any:
    from repro.verification import statistical

    p = op.params
    return statistical.run_statistical_check(
        p["algorithm"],
        n=p["n"],
        id_max=p["id_max"],
        samples=p["samples"],
        seed=p["seed"],
        sched_seed=p["sched_seed"],
        scheduler=p["scheduler"],
        backend=p["backend"],
        block_size=p["samples"],
        processes=1,
    )


def _montecarlo_summary(op: Op, report: Any) -> Summary:
    return {
        "backend": report.backend,
        "samples": report.samples,
        "violations": report.violations,
        "rate_low": report.rate_low,
        "rate_high": report.rate_high,
        "counterexamples": [
            [c.instance, list(c.ids), c.message] for c in report.counterexamples
        ],
    }


def _montecarlo_check(op: Op, s: Summary) -> List[str]:
    problems = []
    if s["backend"] != op.params["backend"]:
        problems.append(f"ran on {s['backend']}, asked for {op.params['backend']}")
    if s["samples"] != op.params["samples"]:
        problems.append(f"{s['samples']} samples != {op.params['samples']}")
    if s["violations"]:
        problems.append(f"{s['violations']} violations: {s['counterexamples'][:1]}")
    return problems


# -- adversary ----------------------------------------------------------------

#: Evaluation coordinates: the nonoriented ring of the adversary smoke
#: space, measured on the numpy fleet with lap-skips off under groups.
ADVERSARY_N = 6
ADVERSARY_ID_MAX = 48
ADVERSARY_SAMPLES = 48
ADVERSARY_BUDGET = 3
#: About one plan evaluation in eight costs five times the others, so a
#: call's cost varies up to 4x between draws.  With 18 evaluations a
#: search mostly stays above the largest blocks, and with 4 plans a
#: baseline mostly stays below them, so neither often moves the tail of
#: ``fleet`` by crossing a block class.
SEARCH_ITERATIONS = 3
SEARCH_POPULATION = 6
BASELINE_COUNT = 4
DROP_RATES = (0.0, 0.1, 0.25)
CRASH_RATES = (0.0, 0.05, 0.1)


def _adversary_deck(rng: random.Random, workdir: Path) -> List[Op]:
    common = {
        "seed": rng.getrandbits(32),
        "sched_seed": rng.getrandbits(32),
        "fault_seed": rng.getrandbits(32),
        "farm_root": str(workdir),
    }
    search_seed = rng.getrandbits(32)
    return [
        Op("adversary/search", {"kind": "search", "search_seed": search_seed, **common}),
        Op("adversary/drop", {"kind": "drop", "rates": DROP_RATES, **common}),
        Op("adversary/crash", {"kind": "crash", "rates": CRASH_RATES, **common}),
        Op(
            "adversary/baseline",
            {"kind": "baseline", "search_seed": search_seed ^ 0x5EED, **common},
        ),
    ]


def _adversary_space(p: Dict[str, Any]) -> Any:
    from repro.adversary.plans import PlanSpace

    return PlanSpace(n=ADVERSARY_N, budget=ADVERSARY_BUDGET, fault_seed=p["fault_seed"])


def _adversary_run(op: Op) -> Any:
    from repro.adversary import search
    from repro.analysis.degradation import measure_degradation

    p = op.params
    if p["kind"] in ("drop", "crash"):
        return measure_degradation(
            list(p["rates"]),
            kind=p["kind"],
            algorithm="nonoriented",
            n=ADVERSARY_N,
            id_max=ADVERSARY_ID_MAX,
            samples=ADVERSARY_SAMPLES,
            seed=p["seed"],
            sched_seed=p["sched_seed"],
            scheduler="lockstep",
            backend="numpy",
            fault_seed=p["fault_seed"],
            processes=1,
            farm_root=p["farm_root"],
        )
    settings = search.EvalSettings(
        algorithm="nonoriented",
        n=ADVERSARY_N,
        id_max=ADVERSARY_ID_MAX,
        samples=ADVERSARY_SAMPLES,
        seed=p["seed"],
        sched_seed=p["sched_seed"],
        scheduler="lockstep",
        backend="numpy",
    )
    if p["kind"] == "search":
        return search.search_worst_plan(
            _adversary_space(p),
            settings,
            strategy="cross-entropy",
            iterations=SEARCH_ITERATIONS,
            population=SEARCH_POPULATION,
            search_seed=p["search_seed"],
            farm_root=p["farm_root"],
        )
    return search.random_baseline(
        _adversary_space(p),
        settings,
        count=BASELINE_COUNT,
        search_seed=p["search_seed"],
        farm_root=p["farm_root"],
    )


def _adversary_summary(op: Op, result: Any) -> Summary:
    kind = op.params["kind"]
    if kind == "baseline":
        return {"best": result.to_dict()}
    return result.to_dict()


def _classified(evaluation: Dict[str, Any]) -> bool:
    return (
        evaluation["recovered"] + evaluation["wrong_stable"] + evaluation["stuck"]
        == evaluation["samples"]
        == ADVERSARY_SAMPLES
    )


def _adversary_check(op: Op, s: Summary) -> List[str]:
    problems = []
    if op.params["kind"] in ("search", "baseline"):
        best = s["best"]
        if not _classified(best):
            problems.append(f"best plan runs not all classified: {best}")
        if best["cost"] > ADVERSARY_BUDGET:
            problems.append(f"best plan cost {best['cost']} over budget")
        if op.params["kind"] == "search" and s["evaluations"] < 1:
            problems.append("no plan evaluated")
        return problems
    points = s["points"]
    if [point["rate"] for point in points] != list(op.params["rates"]):
        problems.append(f"curve rates {[p['rate'] for p in points]}")
    for point in points:
        if not _classified(point):
            problems.append(f"cell at rate {point['rate']} not all classified")
    if points and points[0]["rate"] == 0.0 and points[0]["recovered"] != ADVERSARY_SAMPLES:
        problems.append(f"rate-0 cell recovered {points[0]['recovered']}")
    return problems


MONTECARLO = Workload(
    _montecarlo_deck, _montecarlo_run, _montecarlo_summary, _montecarlo_check
)
ADVERSARY = Workload(
    _adversary_deck, _adversary_run, _adversary_summary, _adversary_check
)


# -- fleet: the adversary calls, then the montecarlo blocks ------------------


def _fleet_deck(rng: random.Random, workdir: Path) -> List[Op]:
    """The adversary calls, then the statistical-check blocks.  The calls
    come first, so the warm repeat reads the deck's now-warm farm root.
    The warm repeat stops before the baseline: the search always asks
    for the same number of distinct plans, the curves for the same
    cells, but the baseline's memo hits vary with its draw, so its warm
    reads would move the warm median from seed to seed."""
    calls = _adversary_deck(rng, workdir)
    blocks = _montecarlo_deck(rng, workdir)
    for op in blocks:
        if op.twin is not None:
            op.twin += len(calls)
    return calls + blocks


def _part(op: Op) -> Workload:
    return ADVERSARY if "kind" in op.params else MONTECARLO


WORKLOADS: Dict[str, Workload] = {
    "elect": Workload(_elect_deck, _elect_run, _elect_summary, _elect_check, warm=3),
    "certify": Workload(
        _certify_deck, _certify_run, _certify_summary, _certify_check, warm=3
    ),
    "fleet": Workload(
        _fleet_deck,
        lambda op: _part(op).run(op),
        lambda op, outcome: _part(op).summarize(op, outcome),
        lambda op, summary: _part(op).check(op, summary),
        warm=3,
        # Six decks: one plan evaluation in eight costs about five times
        # the others, so a search or baseline call costs up to 4x more
        # in one draw than in another; with four decks those calls moved
        # the tail (the 11th largest op) by up to 20% between seeds.
        decks=6,
    ),
}
