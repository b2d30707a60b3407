"""Bit-identity battery for the compiled (numba-JIT) fleet tier.

:mod:`repro.core.kernels.compiled` keeps every ``@njit`` body plain
Python, so the exact code numba compiles also runs *interpreted* — this
battery therefore exercises the compiled tier's loops, hash twins, and
fleet glue even on installs without numba (like CI's tier-1 matrix),
while the ``jit-smoke`` CI job runs the same tests with numba actually
compiling them.

Three layers are pinned against the pure-Python oracle:

* the counter-hash twins — ``_roll`` vs :func:`repro.faults.model.roll_u64`
  and ``_sched_hit`` vs :func:`repro.simulator.fleet.schedule_bit`,
  cross-checked value-for-value over hypothesis-generated coordinates;
* the wrapper entry points — rejected deterministic clauses, the
  round-limit error, warm-up accounting;
* the fleet dispatch glue — ``backend="auto"`` forced onto the compiled
  tier must match the python and numpy backends field-for-field on all
  three algorithms, both schedulers, fault-free and under rate faults
  (with bursts), including shard replay at an ``instance_offset``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    BACKEND_CHOICES,
    HAVE_NUMPY,
    jit_available,
    maybe_warm_compiled,
    np,
    pin_jit_cache,
    resolve_backend,
)
from repro.exceptions import ConfigurationError, SimulationLimitExceeded
from repro.faults.model import (
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_SPURIOUS,
    FaultBurst,
    FaultModel,
    NodeCrash,
    PulseDrop,
    StateCorruption,
    mix64,
    roll_u64,
)
from repro.simulator import fleet
from repro.simulator.fleet import (
    run_anonymous_fleet,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
    schedule_bit,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the compiled tier rides on numpy arrays"
)

if HAVE_NUMPY:
    from repro.core.kernels import compiled

SCHEDULERS = ["lockstep", "seeded"]

#: Rate-only fault models — the clause shapes the JIT loop hosts itself
#: (deterministic clauses take the documented numpy fallback instead).
RATE_MODELS = [
    FaultModel(drop_rate=0.2, seed=11),
    FaultModel(duplicate_rate=0.15, spurious_rate=0.1, seed=7),
    FaultModel(drop_rate=0.15, duplicate_rate=0.1, spurious_rate=0.05,
               seed=5, burst=FaultBurst(start=2, length=6)),
    FaultModel(drop_rate=1.0, seed=3, burst=FaultBurst(start=3, length=1)),
]


@pytest.fixture
def force_compiled(monkeypatch):
    """Route ``backend="auto"`` through the compiled glue.

    Without numba the registry would resolve auto → numpy; forcing the
    resolver makes the fleet run the compiled module's loops interpreted
    — the same statements numba would compile — so the glue and loop
    bodies are covered on every install.
    """
    original = fleet._resolve_backend
    monkeypatch.setattr(
        fleet,
        "_resolve_backend",
        lambda backend: "compiled" if backend == "auto" else original(backend),
    )


# -- the counter-hash twins, value for value --------------------------------


class TestHashTwins:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        kind=st.sampled_from([KIND_DROP, KIND_DUPLICATE, KIND_SPURIOUS]),
        instance=st.integers(min_value=0, max_value=2**32),
        round_index=st.integers(min_value=0, max_value=2**32),
        channel=st.integers(min_value=0, max_value=2**20),
        pulse=st.integers(min_value=0, max_value=2**20),
    )
    def test_roll_u64(self, seed, kind, instance, round_index, channel, pulse):
        expected = roll_u64(seed, kind, instance, round_index, channel, pulse)
        with np.errstate(over="ignore"):
            got = int(
                compiled._roll(
                    np.uint64(mix64(seed)),
                    np.uint64(kind),
                    np.uint64(instance),
                    np.uint64(round_index),
                    np.uint64(channel),
                    np.uint64(pulse),
                )
            )
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        instance=st.integers(min_value=0, max_value=2**32),
        round_index=st.integers(min_value=0, max_value=2**32),
        channel=st.integers(min_value=0, max_value=2**20),
    )
    def test_schedule_bit(self, seed, instance, round_index, channel):
        expected = bool(schedule_bit(seed, instance, round_index, channel))
        with np.errstate(over="ignore"):
            got = bool(
                compiled._sched_hit(
                    np.uint64(mix64(seed)), instance, round_index, channel
                )
            )
        assert got == expected


# -- wrapper-level contracts -------------------------------------------------


class TestWrappers:
    def test_deterministic_clauses_rejected(self):
        for model in [
            FaultModel(drops=(PulseDrop(round_index=1, node=0),)),
            FaultModel(crashes=(NodeCrash(node=0, at_round=2),)),
            FaultModel(corruptions=(StateCorruption(node=0, at_round=2,
                                                    field="rho_cw", value=1),)),
        ]:
            with pytest.raises(ConfigurationError):
                compiled.warmup_fleet([[2, 1]], +1, "lockstep", 0, 0, 100,
                                      model=model)
            with pytest.raises(ConfigurationError):
                compiled.terminating_fleet([[2, 1]], "lockstep", 0, 100,
                                           model=model)

    def test_round_limit_raises_like_the_oracle(self):
        with pytest.raises(SimulationLimitExceeded, match="exceeded 5 rounds"):
            compiled.terminating_fleet([[100000, 1, 2]], "lockstep", 0, 5)
        with pytest.raises(SimulationLimitExceeded, match="exceeded 5 rounds"):
            compiled.warmup_fleet([[100000, 1, 2]], +1, "seeded", 0, 0, 5)

    def test_certain_rate_lowering(self):
        # rate 1.0's threshold is 2**64, which cannot ride in a uint64 —
        # it must lower to the *_all flag, not silently truncate.
        params = compiled._fault_params(FaultModel(drop_rate=1.0, seed=1))
        has_rates, _seed, _start, _len, t_drop, drop_all = params[:6]
        assert has_rates and drop_all and int(t_drop) == 0

    def test_warm_compiled_accounting(self):
        # Without numba warm-up is free and reports 0.0; with numba the
        # first call pays compilation and repeats are 0.0 (idempotent).
        first = compiled.warm_compiled()
        assert first >= 0.0
        assert compiled.warm_compiled() == 0.0
        if not compiled.HAVE_NUMBA:
            assert first == 0.0


# -- the three-way matrix through the fleet glue ----------------------------


def _assert_fleet_equal(a, b, fields):
    for field in fields:
        assert getattr(a, field) == getattr(b, field), field
    assert a.fault_events == b.fault_events


# ``rounds`` / ``lap_skips`` / ``ignored_deliveries`` are whole-fleet
# *batching* diagnostics: the numpy backend advances the batch in shared
# rounds while python and compiled iterate per instance, so those three
# only agree between the per-instance backends (the dict below adds them
# for the python oracle only); everything else is schedule-invariant and
# must match all backends bit-for-bit.
WARMUP_FIELDS = ["leaders", "states", "total_pulses", "rho_cw", "sigma_cw",
                 "unfinished"]
TERMINATING_FIELDS = ["leaders", "states", "total_pulses", "rho_cw",
                      "rho_ccw", "sigma_cw", "sigma_ccw", "term_pulse_sent",
                      "terminated", "unfinished"]
NONORIENTED_FIELDS = ["leaders", "states", "total_pulses", "rho_cw",
                      "rho_ccw", "sigma_cw", "sigma_ccw", "cw_port_labels",
                      "orientation_consistent", "unfinished"]


def _oracle_fields(oracle, fields):
    """Fields to compare against each oracle: everything above is
    schedule-invariant and must match every backend; ``rounds`` /
    ``lap_skips`` (and terminating's ``ignored_deliveries``) depend on
    the *batching*, which only the per-instance python oracle shares
    with the compiled tier."""
    if oracle != "python":
        return fields
    extra = ["rounds", "lap_skips"]
    if fields is TERMINATING_FIELDS:
        extra.append("ignored_deliveries")
    return fields + extra

POOL = [[5, 9, 2, 7], [3, 1, 4, 2], [4, 3, 2, 1]]
FLIPS = [[True, False, False, True], [False, True, True, False],
         [False, False, True, True]]


@pytest.mark.usefixtures("force_compiled")
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("model", [None] + RATE_MODELS, ids=str)
class TestCompiledMatchesOracles:
    def test_warmup(self, scheduler, model):
        got = run_warmup_fleet(POOL, backend="auto", scheduler=scheduler,
                               faults=model, instance_offset=3)
        assert got.backend == "compiled"
        for oracle in ("python", "numpy"):
            want = run_warmup_fleet(POOL, backend=oracle, scheduler=scheduler,
                                    faults=model, instance_offset=3)
            _assert_fleet_equal(got, want, _oracle_fields(oracle, WARMUP_FIELDS))

    def test_terminating(self, scheduler, model):
        got = run_terminating_fleet(POOL, backend="auto", scheduler=scheduler,
                                    faults=model, instance_offset=3)
        assert got.backend == "compiled"
        for oracle in ("python", "numpy"):
            want = run_terminating_fleet(POOL, backend=oracle,
                                         scheduler=scheduler, faults=model,
                                         instance_offset=3)
            _assert_fleet_equal(got, want,
                                _oracle_fields(oracle, TERMINATING_FIELDS))

    def test_nonoriented(self, scheduler, model):
        got = run_nonoriented_fleet(POOL, flip_lists=FLIPS, backend="auto",
                                    scheduler=scheduler, faults=model,
                                    instance_offset=3)
        assert got.backend == "compiled"
        for oracle in ("python", "numpy"):
            want = run_nonoriented_fleet(POOL, flip_lists=FLIPS,
                                         backend=oracle, scheduler=scheduler,
                                         faults=model, instance_offset=3)
            _assert_fleet_equal(got, want,
                                _oracle_fields(oracle, NONORIENTED_FIELDS))


@pytest.mark.usefixtures("force_compiled")
class TestCompiledGlue:
    def test_shard_replay_fidelity(self):
        # Fault rolls key on the global instance index: row 1 of a batch
        # rerun solo at instance_offset=1 replays its exact fault stream.
        model = FaultModel(drop_rate=0.1, duplicate_rate=0.05, seed=13)
        batch = run_terminating_fleet(POOL, backend="auto", faults=model)
        solo = run_terminating_fleet([POOL[1]], backend="auto", faults=model,
                                     instance_offset=1)
        assert batch.backend == solo.backend == "compiled"
        assert (batch.leaders[1], batch.states[1], batch.total_pulses[1],
                batch.rho_cw[1], batch.unfinished[1]) == (
            solo.leaders[0], solo.states[0], solo.total_pulses[0],
            solo.rho_cw[0], solo.unfinished[0])

    def test_watchdog_matches_python(self):
        model = FaultModel(spurious_rate=0.9, seed=3)
        a = run_warmup_fleet([[3, 1, 2]], backend="auto", faults=model,
                             watchdog_rounds=50)
        b = run_warmup_fleet([[3, 1, 2]], backend="python", faults=model,
                             watchdog_rounds=50)
        assert a.backend == "compiled"
        assert a.unfinished == b.unfinished == [True]
        _assert_fleet_equal(a, b, WARMUP_FIELDS)

    def test_anonymous_pipeline(self):
        a = run_anonymous_fleet(5, seeds=range(12), backend="auto")
        b = run_anonymous_fleet(5, seeds=range(12), backend="python")
        assert a.election.backend == "compiled"
        assert a.sampled_ids == b.sampled_ids
        assert a.succeeded == b.succeeded
        assert a.election.total_pulses == b.election.total_pulses

    def test_observer_falls_back_to_numpy(self):
        rounds = []
        result = run_warmup_fleet([[3, 1, 2]], backend="auto",
                                  observer=lambda v: rounds.append(v.round_index))
        assert result.backend == "numpy"
        assert rounds  # the observer actually fired

    def test_deterministic_clause_falls_back_to_numpy(self):
        model = FaultModel(drops=(PulseDrop(round_index=2, node=1),))
        result = run_terminating_fleet([[3, 1, 2]], backend="auto",
                                       faults=model)
        assert result.backend == "numpy"
        want = run_terminating_fleet([[3, 1, 2]], backend="python",
                                     faults=model)
        _assert_fleet_equal(result, want, TERMINATING_FIELDS)

    def test_recovery_check_runs_compiled(self):
        # The recovery harness passes no observer, so its fleet blocks
        # genuinely run on the compiled tier (unlike the invariant
        # checker, whose per-round observer takes the numpy fallback).
        # The forced dispatch routes the blocks through the compiled
        # glue here; the report label comes from the shared registry.
        from repro.verification.statistical import run_recovery_check

        report = run_recovery_check(
            algorithm="terminating", n=4, id_max=30, samples=12,
            faults=FaultModel(drop_rate=0.05, seed=2), block_size=8,
        )
        assert report.backend == resolve_backend("auto")
        assert report.recovered + report.wrong_stable + report.stuck == 12


# -- the shared backend registry --------------------------------------------


class TestBackendRegistry:
    def test_auto_matches_availability(self):
        resolved = resolve_backend("auto")
        if jit_available():
            assert resolved == "compiled"
        elif HAVE_NUMPY:
            assert resolved == "numpy"
        else:
            assert resolved == "python"

    def test_jit_available_reflects_module_flag(self):
        assert jit_available() == compiled.HAVE_NUMBA

    def test_env_var_pins_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend("auto") == "python"
        monkeypatch.setenv("REPRO_BACKEND", "plasma")
        with pytest.raises(ConfigurationError, match="REPRO_BACKEND"):
            resolve_backend("auto")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert resolve_backend("numpy") == "numpy"

    def test_unavailable_compiled_pin_raises_with_hint(self):
        if jit_available():
            pytest.skip("numba installed; the pin succeeds here")
        with pytest.raises(ConfigurationError, match=r"\[jit\]"):
            resolve_backend("compiled")

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ConfigurationError, match="compiled"):
            resolve_backend("gpu")
        assert BACKEND_CHOICES == ("auto", "compiled", "numpy", "python")

    def test_maybe_warm_is_quiet_when_not_compiled(self):
        assert maybe_warm_compiled("python") == 0.0
        if not jit_available():
            assert maybe_warm_compiled("compiled") == 0.0

    def test_pin_jit_cache_respects_preset(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NUMBA_CACHE_DIR", str(tmp_path))
        assert pin_jit_cache() == str(tmp_path)

    def test_pin_jit_cache_lands_in_build_dir(self, monkeypatch):
        monkeypatch.delenv("NUMBA_CACHE_DIR", raising=False)
        pinned = pin_jit_cache()
        assert pinned is not None and pinned.endswith("numba_cache")
