"""The repo benchmark: one command, three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload elect --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--workload`` is ``elect``,
``certify`` or ``fleet``.  ``--trace 0`` measures the end-to-end metrics
with no wrapper installed; ``--trace 1`` runs the same decks
untraced and then traced, and reports per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries provenance and per-op-class detail.  perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import os

# Pin every thread pool to one thread BEFORE numpy or repro is imported:
# pools size themselves at import, and the fleet must not fan out.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / ".work"

#: Setup probes per run; setup_s is their median.
SETUP_PROBES = 5
#: Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Repeats of each deck's warm ops after the deck.  Warm ops take a few
#: milliseconds, so a single one reads machine noise; like every op, a
#: warm op counts its fastest repeat.
WARM_REPEATS = 3

#: Modules each workload's user imports before the first op.
SETUP_MODULES = {
    "elect": (
        "repro.core.terminating",
        "repro.core.nonoriented",
        "repro.simulator.scheduler",
    ),
    "certify": (
        "repro.verification.reduced",
        "repro.core.invariants",
        "repro.core.ear_election",
        "repro.graphs.connectivity",
        "repro.simulator.ring",
    ),
    "fleet": (
        "repro.verification.statistical",
        "repro.adversary.search",
        "repro.analysis.degradation",
        "repro.farm.service",
    ),
}


@dataclass
class Phase:
    """Everything the passes over a run's decks produced.

    An op is one position of one deck; every pass runs it again with
    identical inputs.  Its latency is the fastest of its passes, each
    normalized to the reference's nominal speed (perfbench/reference.py):
    other tenants of the machine only ever add time, so the minimum over
    repeats of identical work is the steadiest estimate of the program's
    own cost (the convention of ``timeit``).
    """

    #: (deck, position) -> normalized seconds of each pass
    times: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    #: (deck, position) -> wall seconds of each pass
    wall: Dict[Tuple[int, int], List[float]] = field(default_factory=dict)
    labels: Dict[Tuple[int, int], str] = field(default_factory=dict)
    op_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: deck index -> per-op summaries of the first pass (None where the op raised)
    summaries: Dict[int, List[Optional[dict]]] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.times)

    @property
    def runs(self) -> int:
        """Op executions over all passes."""
        return sum(len(seconds) for seconds in self.times.values())

    @property
    def latencies(self) -> List[float]:
        """Each op's fastest pass, in seconds."""
        return [min(seconds) for seconds in self.times.values()]

    @property
    def rate(self) -> float:
        """Ops per second of one pass over the decks at each op's fastest
        latency (checks and bookkeeping excluded)."""
        return self.ops / sum(self.latencies)

    @property
    def p50(self) -> float:
        return statistics.median(self.latencies)

    @property
    def wall_latencies(self) -> List[float]:
        """Each op's fastest pass in wall seconds, not normalized."""
        return [min(seconds) for seconds in self.wall.values()]

    def record(
        self, key: Tuple[int, int], label: str, seconds: float, normalized: float
    ) -> None:
        self.times.setdefault(key, []).append(normalized)
        self.wall.setdefault(key, []).append(seconds)
        self.labels[key] = label
        self.op_seconds += seconds
        self.attempted += 1

    def fail(self, where: str, problems: List[str]) -> None:
        """Count a failed op; keep the first problems for the report."""
        self.failed += 1
        for problem in problems:
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {problem}")


def outcome_fields(summary: dict) -> dict:
    """What a twin op must reproduce bit for bit: all but the backend."""
    return {key: value for key, value in summary.items() if key != "backend"}


def run_deck(
    workload: Any,
    ops: List[Any],
    where: str,
    phase: Phase,
    deck: int = 0,
    tracer: Any = None,
    expect: Optional[List[Optional[dict]]] = None,
) -> List[Optional[dict]]:
    """Run one deck's ops in order, time each, check each.

    Each op runs under a :class:`reference.Meter`, which normalizes its
    latency to the reference's nominal speed.  ``expect`` holds summaries
    an identical earlier call produced; each op's summary must then
    equal its counterpart exactly.
    """
    summaries: List[Optional[dict]] = []
    gc.collect()  # start every deck from the same collector state
    for index, op in enumerate(ops):
        tag = f"{where}#{index} {op.label}"
        error = None
        with reference.Meter() as meter:
            if tracer is not None:
                span = tracer.begin_op()
            start = time.perf_counter()
            try:
                outcome = workload.run(op)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - start - meter.spent
                if tracer is not None:
                    tracer.close(span)
        phase.record((deck, index), op.label, elapsed, elapsed * meter.scale)
        summary = None
        problems = [error] if error else []
        if error is None:
            summary = workload.summarize(op, outcome)
            problems = workload.check(op, summary)
            if expect is not None:
                if expect[index] != summary:
                    problems.append("differs from the identical earlier call")
            elif op.twin is not None:
                twin = summaries[op.twin]
                if twin is None or outcome_fields(twin) != outcome_fields(summary):
                    problems.append(f"differs from its twin op #{op.twin}")
        summaries.append(summary)
        if problems:
            phase.fail(tag, problems)
    return summaries


def run_decks(
    workload: Any, seed: int, budget: float, name: str, tracer: Any = None
) -> Tuple[Phase, Phase]:
    """Passes over the run's ``workload.decks`` decks while they fit in
    ``budget`` seconds of op time (at least one pass): the cold phase.

    Every pass rebuilds the decks from ``(seed, deck)``, so it repeats
    identical inputs, on fresh farm roots; each op must reproduce its
    first pass exactly.  After each deck its first ``workload.warm`` ops
    are repeated ``WARM_REPEATS`` times (the adversary's against its
    now-warm farm root): the warm phase.
    """
    from workloads import deck_rng

    cold, warm = Phase(), Phase()
    passes = 0
    # Another pass only if it fits in the budget at the passes' mean time.
    while passes == 0 or cold.op_seconds * (passes + 1) / passes <= budget:
        for deck in range(workload.decks):
            root = WORKDIR / name / f"{passes}-{deck}"
            ops = workload.build_deck(deck_rng(seed, deck), root)
            where = f"{name} pass {passes} deck {deck}"
            summaries = run_deck(
                workload, ops, where, cold, deck, tracer, cold.summaries.get(deck)
            )
            cold.summaries.setdefault(deck, summaries)
            for _ in range(WARM_REPEATS):
                run_deck(
                    workload, ops[: workload.warm], f"{where} warm", warm, deck,
                    tracer, expect=summaries,
                )
            shutil.rmtree(root, ignore_errors=True)
        passes += 1
    return cold, warm


def warm_up(workload: Any, seed: int) -> Phase:
    """Deck 0 once, checked but not timed, so that lazy imports and first
    calls fall here and not in the timed passes."""
    from workloads import deck_rng

    phase = Phase()
    root = WORKDIR / "warm-up"
    run_deck(workload, workload.build_deck(deck_rng(seed, 0), root), "warm-up", phase)
    shutil.rmtree(root, ignore_errors=True)
    return phase


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, ops beyond it) at the highest percentile that
    leaves at least ``TAIL_BEYOND`` ops beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def setup(workload_name: str, seed: int) -> None:
    """What a user pays before the first op: imports, the first deck's
    inputs, and the (empty) farm root."""
    from workloads import WORKLOADS, deck_rng

    for module in SETUP_MODULES[workload_name]:
        importlib.import_module(module)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload_name].build_deck(deck_rng(seed, 0), WORKDIR / "setup")


def probe_setup(workload_name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Seconds of fresh processes that only set up and exit: normalized
    to the reference's nominal speed, and wall.  A probe runs on this
    process's one CPU, so the meter's samples read the speed the probe
    ran at; the time they take from the probe is subtracted."""
    times, wall = [], []
    for _ in range(SETUP_PROBES):
        with reference.Meter() as meter:
            start = time.perf_counter()
            subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", workload_name,
                    "--seed", str(seed),
                    "--probe-setup",
                ],
                check=True,
                timeout=120,
                stdout=subprocess.DEVNULL,
            )
            elapsed = time.perf_counter() - start
        times.append((elapsed - meter.spent) * meter.scale)
        wall.append(elapsed)
    return times, wall


def source_digest() -> str:
    """sha256 over ``src/repro`` sources: identifies the measured code
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance() -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "numba_present": importlib.util.find_spec("numba") is not None,
        # Every fleet call passes backend="numpy" or "python" explicitly.
        "compiled_tier": "unmeasured",
        "processes": 1,
    }


def end_to_end(
    phase: Phase, warm: Phase, setup: Tuple[List[float], List[float]]
) -> Dict[str, Any]:
    setup_times, setup_wall = setup
    tail_value, percentile, beyond = tail(phase.latencies)
    metrics = {
        "ops_per_s": (phase.rate, "1/s"),
        "op_p50_ms": (phase.p50 * 1000.0, "ms"),
        "op_tail_ms": (tail_value * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
        ),
        "warm_op_p50_ms": (warm.p50 * 1000.0, "ms"),
    }
    detail = {
        "op_tail_percentile": round(percentile, 2),
        "op_tail_ops_beyond": beyond,
        "ops": phase.ops,
        "warm_ops": warm.ops,
        "passes": phase.runs // phase.ops,
        # The same figures in wall time, not normalized.
        "wall_ops_per_s": phase.ops / sum(phase.wall_latencies),
        "wall_op_p50_ms": statistics.median(phase.wall_latencies) * 1000.0,
        "wall_all_passes_ops_per_s": phase.runs / phase.op_seconds,
        "wall_setup_s": statistics.median(setup_wall),
        "setup_s_probes": setup_times,
    }
    return {"metrics": metrics, "detail": detail}


def label_table(phase: Phase) -> Dict[str, Any]:
    """Per op class: ops, median fastest latency, and share of the
    pass time (the sum of fastest latencies)."""
    best: Dict[str, List[float]] = {}
    for key, seconds in phase.times.items():
        best.setdefault(phase.labels[key], []).append(min(seconds))
    total = sum(phase.latencies)
    return {
        label: {
            "ops": len(values),
            "p50_ms": statistics.median(values) * 1000.0,
            "share": sum(values) / total,
        }
        for label, values in sorted(best.items())
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("elect", "certify", "fleet"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(
    args: argparse.Namespace,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any], List[Phase]]:
    """Run the phases of one invocation: (metrics, detail, phases)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first = warm_up(workload, args.seed)
    if not args.trace:
        cold, warm = run_decks(workload, args.seed, args.seconds, "cold")
        result = end_to_end(cold, warm, probe_setup(args.workload, args.seed))
        result["detail"]["op_classes"] = label_table(cold)
        return result["metrics"], result["detail"], [first, cold, warm]

    from layers import WORKLOAD_LAYERS, layer_metrics, wrap_points
    from tracing import Tracer, install

    half = args.seconds / 2.0
    plain, plain_warm = run_decks(workload, args.seed, half, "plain")
    tracer = Tracer()
    points, registries = wrap_points()
    installed = install(tracer, points, registries)
    try:
        traced, warm = run_decks(workload, args.seed, half, "traced", tracer)
    finally:
        installed.restore()
    # Traced decks repeat the untraced decks' inputs: outputs must agree.
    for deck, summaries in traced.summaries.items():
        for index, summary in enumerate(summaries):
            if deck in plain.summaries and summary != plain.summaries[deck][index]:
                traced.fail(
                    f"traced deck {deck}#{index}", ["differs from the untraced run"]
                )
    ops = traced.runs + warm.runs
    metrics = layer_metrics(tracer, ops, WORKLOAD_LAYERS[args.workload])
    untraced_rate = plain.rate
    traced_rate = traced.rate
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    detail = {
        "traced_ops": ops,
        "spans": len(tracer),
        "untraced_ops": plain.runs,
        "op_classes": label_table(traced),
    }
    return metrics, detail, [first, plain, plain_warm, traced, warm]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the set-up probes it starts, so that
    # the reference meter reads the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe_setup:
        setup(args.workload, args.seed)
        return 0
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        setup(args.workload, args.seed)
        metrics, detail, phases = measure(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    problems = [problem for phase in phases for problem in phase.problems]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failed_ratio=failed / attempted,
        failures=problems[:20],
        provenance=provenance(),
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_ratio':40s} {failed / attempted:14.6g} ratio")
    if not args.trace:
        print(
            f"op_tail_ms is p{detail['op_tail_percentile']} "
            f"with {detail['op_tail_ops_beyond']} of {detail['ops']} ops beyond it"
        )
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
