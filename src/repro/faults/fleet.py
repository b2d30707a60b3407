"""Fleet-backend compiler: the fault model over struct-of-arrays rounds.

The fleet engine (:mod:`repro.simulator.fleet`) advances ``B`` instances
in lockstep rounds over per-direction ``flight[B, n]`` columns.  This
module lowers a :class:`~repro.faults.model.FaultModel` onto that loop:

* **random channel faults** roll once per *(instance, round, channel)*
  — the fleet's notion of a fault opportunity (event channels roll per
  send; same declarative rates, per-backend opportunity grain).  Drops
  thin the in-flight population pulse-by-pulse (each of the ``f`` pulses
  on a channel rolls independently), duplicates/spurious add at most one
  pulse per channel per round.
* **deterministic drops** (:class:`~repro.faults.model.PulseDrop`)
  delete up to ``count`` pulses in flight toward one node at one round.
* **crashes** evaporate all deliveries toward the node while down (its
  state freezes: nothing is delivered, its pending is empty at round
  boundaries, so the kernels never touch it); a restart resets the node
  via the kernel's fresh-state semantics and re-sends its init pulse.
* **corruption** overwrites one materialized column value at the start
  of its round (fields pre-validated against the kernel ``SCHEMA``).

Every decision is a counter-based roll keyed on the **global** instance
index (``instance_offset + row``), so a counterexample replayed solo at
the same global index sees the identical fault pattern.  One clause
compiler serves all three algorithms: it walks the round loop's
directional flights (one for Algorithm 1 and each half of Algorithm 3,
CW + CCW for Algorithm 2), with exactly one NumPy and one pure-Python
implementation per clause (same clause order, same roll coordinates) —
the fleet differential tests pin the pair bit-for-bit.
:class:`DirectionFaults` and :class:`TerminatingFaults` only bind it to
their loops' columns.

Lap-skips and faults: fault opportunities are defined per fleet *round*,
and a lap-skip compresses laps **within** one round, so skipping changes
no fault decision.  Node crashes are the exception — a skip would relay
pulses through a node that must absorb nothing — so a model with crash
clauses disables the skip fast-paths (correctness over throughput; the
recovery harness caps rounds with a watchdog anyway).  Correlated
:class:`~repro.faults.model.FaultGroup` clauses and the probabilistic
``crash_rate`` knob disable skips for the same reason, plus one more: a
threshold-crossing trigger must *visit* the crossing round, which a
closed-form lap jump would skip straight past.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.faults.model import (
    _KEY_CHANNEL,
    _KEY_INSTANCE,
    _KEY_PULSE,
    _KEY_ROUND,
    _MIX_A,
    _MIX_B,
    _TWO64,
    KIND_CRASH,
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_SPURIOUS,
    FaultModel,
    corruptible_fields,
    mix64,
    rate_threshold,
    roll_u64,
)

#: Event-counter keys shared by every fleet fault adapter (same totals on
#: both backends; the differential tests compare the dicts directly).
EVENT_KEYS = (
    "dropped",
    "duplicated",
    "injected",
    "det_dropped",
    "crash_lost",
    "restarts",
    "corruptions",
)


def _fresh_events() -> Dict[str, int]:
    return {key: 0 for key in EVENT_KEYS}


def merge_events(*dicts: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Sum per-kind fault-event counters across adapters."""
    merged = _fresh_events()
    for events in dicts:
        if events:
            for key, value in events.items():
                merged[key] = merged.get(key, 0) + value
    return merged


def _check_node(node: int, n: int, what: str) -> None:
    if not 0 <= node < n:
        raise ConfigurationError(
            f"{what} targets node {node}, outside the ring [0, {n})"
        )


def _np_rolls(
    np_mod: Any,
    seed: int,
    kind: int,
    round_index: int,
    pulse: int,
    instance_offset: int,
    n_rows: int,
    chan_base: int,
    n: int,
) -> Any:
    """Vectorized :func:`~repro.faults.model.roll_u64`: uint64 ``[B, n]``."""
    u64 = np_mod.uint64
    with np_mod.errstate(over="ignore"):
        b = (u64(instance_offset) + np_mod.arange(n_rows, dtype=u64))[:, None]
        c = (u64(chan_base) + np_mod.arange(n, dtype=u64))[None, :]
        x = (
            u64(mix64(seed))
            + u64(kind)
            + b * u64(_KEY_INSTANCE)
            + u64(round_index % _TWO64) * u64(_KEY_ROUND)
            + c * u64(_KEY_CHANNEL)
            + u64(pulse) * u64(_KEY_PULSE)
        )
        x = (x ^ (x >> u64(33))) * u64(_MIX_A)
        x = (x ^ (x >> u64(33))) * u64(_MIX_B)
        x = x ^ (x >> u64(33))
    return x


def _np_under(np_mod: Any, rolls: Any, threshold: int) -> Any:
    """``roll < threshold`` with the 2**64 (certain) threshold handled."""
    if threshold >= _TWO64:
        return np_mod.ones(rolls.shape, dtype=bool)
    return rolls < np_mod.uint64(threshold)


def _aims_at(clause: Any, instance: int) -> bool:
    """Whether a clause applies to global ``instance``: it targets that
    instance, or every instance (``instance=None``)."""
    return clause.instance is None or clause.instance == instance


def _np_rows(
    np_mod: Any, instance: Optional[int], live: Any, instance_offset: int, B: int
) -> Any:
    """Row mask a clause may touch: the live rows, or the one live row of
    its targeted global ``instance``."""
    if instance is None:
        return live
    sel = np_mod.zeros(B, bool)
    row = instance - instance_offset
    if 0 <= row < B:
        sel[row] = live[row]
    return sel


def _np_rate_mask(
    np_mod: Any, model: FaultModel, instance_offset: int, B: int, n: int
) -> Any:
    """The ``crash_rate`` dead-node mask (bool ``[B, n]``): one roll per
    (global instance, node) — channel base 0 in every adapter, so both
    directional runs agree which nodes are dead."""
    rolls = _np_rolls(
        np_mod, model.seed, KIND_CRASH, 0, 0, instance_offset, B, 0, n
    )
    return _np_under(np_mod, rolls, rate_threshold(model.crash_rate))


def _py_rate_mask(model: FaultModel, instance: int, n: int) -> List[bool]:
    """Scalar twin of :func:`_np_rate_mask` for one global instance."""
    threshold = rate_threshold(model.crash_rate)
    return [
        roll_u64(model.seed, KIND_CRASH, instance, 0, v, 0) < threshold
        for v in range(n)
    ]


def _apply_random_np(
    np_mod: Any,
    model: FaultModel,
    events: Dict[str, int],
    round_index: int,
    flight: Any,
    instance_offset: int,
    chan_base: int,
    live: Any,
    window: Any = None,
) -> None:
    """Random drop/dup/spurious over one direction's flight (in place).

    ``live`` is a bool ``[B]`` row mask: rows whose instance already
    quiesced are frozen — the pure-Python twin's per-instance loop has
    exited by then, so the batch must stop rolling faults for them too
    (fault streams must not depend on batch composition).

    ``window`` (bool ``[B]`` or None) is the group-burst gate: when the
    model carries group bursts, the rates fire only in rows whose burst
    window is active *this* round (replacing the model-level
    ``covers`` gate, which per-row fire rounds make meaningless).
    """
    if window is None:
        if not model.covers(round_index):
            return
        active = live
    else:
        active = live & window
        if not active.any():
            return
    B, n = flight.shape
    rows = active[:, None]
    t_drop = rate_threshold(model.drop_rate)
    t_dup = rate_threshold(model.duplicate_rate)
    t_spur = rate_threshold(model.spurious_rate)
    if t_drop:
        fmax = int(flight.max())
        if fmax:
            removed = np_mod.zeros_like(flight)
            for j in range(fmax):
                rolls = _np_rolls(
                    np_mod, model.seed, KIND_DROP, round_index, j,
                    instance_offset, B, chan_base, n,
                )
                removed += _np_under(np_mod, rolls, t_drop) & (flight > j) & rows
            flight -= removed
            events["dropped"] += int(removed.sum())
    if t_dup:
        rolls = _np_rolls(
            np_mod, model.seed, KIND_DUPLICATE, round_index, 0,
            instance_offset, B, chan_base, n,
        )
        hit = _np_under(np_mod, rolls, t_dup) & (flight > 0) & rows
        flight += hit
        events["duplicated"] += int(hit.sum())
    if t_spur:
        rolls = _np_rolls(
            np_mod, model.seed, KIND_SPURIOUS, round_index, 0,
            instance_offset, B, chan_base, n,
        )
        hit = _np_under(np_mod, rolls, t_spur) & rows
        flight += hit
        events["injected"] += int(hit.sum())


def _apply_random_py(
    model: FaultModel,
    events: Dict[str, int],
    round_index: int,
    flight: List[int],
    instance: int,
    chan_base: int,
    window: Any = None,
) -> None:
    """Scalar twin of :func:`_apply_random_np` for one instance;
    ``window`` is the scalar group-burst gate (bool, or None for the
    model-level ``covers`` gate)."""
    if window is None:
        if not model.covers(round_index):
            return
    elif not window:
        return
    n = len(flight)
    t_drop = rate_threshold(model.drop_rate)
    t_dup = rate_threshold(model.duplicate_rate)
    t_spur = rate_threshold(model.spurious_rate)
    if t_drop:
        for v in range(n):
            hits = 0
            for j in range(flight[v]):
                roll = roll_u64(
                    model.seed, KIND_DROP, instance, round_index, chan_base + v, j
                )
                if roll < t_drop:
                    hits += 1
            if hits:
                flight[v] -= hits
                events["dropped"] += hits
    if t_dup:
        for v in range(n):
            if flight[v] > 0:
                roll = roll_u64(
                    model.seed, KIND_DUPLICATE, instance, round_index,
                    chan_base + v, 0,
                )
                if roll < t_dup:
                    flight[v] += 1
                    events["duplicated"] += 1
    if t_spur:
        for v in range(n):
            roll = roll_u64(
                model.seed, KIND_SPURIOUS, instance, round_index,
                chan_base + v, 0,
            )
            if roll < t_spur:
                flight[v] += 1
                events["injected"] += 1


#: The anchor counter a group trigger reads, spelled as both the NumPy
#: column and the kernel-state attribute: a directional run's counters
#: are its warmup kernel's ``rho_cw``/``sigma_cw`` (Algorithm 1 in the
#: run's own frame), and the terminating run triggers on its CW pair.
_TRIGGER_FIELDS: Dict[Optional[str], str] = {"rho": "rho_cw", "sigma": "sigma_cw"}


class _DirectionColumns:
    """The two counter columns a directional run materializes, under its
    warmup kernel state's field names."""

    __slots__ = ("rho_cw", "sigma_cw")

    def __init__(self, rho: Any, sigma: Any) -> None:
        self.rho_cw = rho
        self.sigma_cw = sigma

    def reset_node(self, rows: Any, node: int) -> None:
        # Warmup fresh state after init: nothing received, one pulse sent.
        self.rho_cw[rows, node] = 0
        self.sigma_cw[rows, node] = 1


class _FleetClauses:
    """A :class:`FaultModel` compiled onto one fleet round loop.

    The loop owns one ``flight`` column per *directional flight*
    ``(direction, chan_base)`` in :attr:`flights`.  A deterministic or
    group drop lands on the flight of its direction (and is ignored by a
    loop without one), a crash empties the node on every flight, and
    each flight rolls its random faults over channels ``chan_base + v``.
    A restart reboots the node's columns (``cols.reset_node``) and
    re-sends its init pulse on the first flight, toward ``node + shift``.

    Each clause has one NumPy implementation (vectorised over the rows
    of a ``[B, n]`` block) and one scalar twin (one global instance over
    kernel states), applied in the same order with the same roll
    coordinates; the fleet differential tests pin them bit-for-bit.
    The bindings below supply the flights, the restart shift and the
    corruption-field → column / state-attribute maps.
    """

    def __init__(
        self,
        model: FaultModel,
        n: int,
        algorithm: str,
        flights: Tuple[Tuple[str, int], ...],
        shift: int,
        columns: Dict[str, str],
        attrs: Dict[str, str],
    ) -> None:
        allowed = corruptible_fields(algorithm)
        for corruption in model.corruptions:
            if corruption.field not in allowed:
                raise ConfigurationError(
                    f"cannot corrupt field {corruption.field!r} of algorithm "
                    f"{algorithm!r}; schema-validated targets: {list(allowed)}"
                )
            _check_node(corruption.node, n, "corruption")
        for crash in model.crashes:
            _check_node(crash.node, n, "crash")
        for drop in model.drops:
            _check_node(drop.node, n, "pulse-drop")
        for group in model.groups:
            _check_node(group.anchor, n, "group anchor")
        self.model = model
        self.n = n
        self.flights = flights
        self.shift = shift
        self._slot = {direction: i for i, (direction, _) in enumerate(flights)}
        self._drops = tuple(
            tuple(d for d in model.drops if d.direction == direction)
            for direction, _ in flights
        )
        #: Corruptions of fields this loop does not materialize belong to
        #: a twin adapter (the other half of Algorithm 3).
        self._corruptions = tuple(
            c for c in model.corruptions if c.field in columns
        )
        self._columns = columns
        self._attrs = attrs
        #: Per-group fire rounds: lazily-allocated int64 ``[B]`` (0 =
        #: unfired) on the NumPy path, {global instance: fire} dicts on
        #: the scalar path.  Fire rounds are pure functions of each
        #: instance's own trajectory, so any shard layout agrees.
        self._group_fire_np: Optional[List[Any]] = None
        self._group_fire_py: List[Dict[int, int]] = [{} for _ in model.groups]
        self._rate_mask_np: Any = None
        self._rate_mask_py: Dict[int, List[bool]] = {}
        #: Lap/hop skips relay pulses through every node, which a crashed
        #: node must not do — crash models run skip-free (see module doc).
        #: Groups and crash_rate also need every round visited: threshold
        #: triggers must observe the crossing round itself.
        self.allow_skips = not (model.crashes or model.groups or model.crash_rate)
        self.events = _fresh_events()

    # -- NumPy clauses ----------------------------------------------------

    def _np_groups_begin(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        live: Any,
        instance_offset: int,
        B: int,
    ) -> Tuple[Any, List[Any]]:
        """Advance per-row trigger state.  Returns the burst-window row
        mask (bool ``[B]``, or None when the model has no group bursts)
        and each group's fired-row mask.  Triggers read the columns
        *before* any clause mutates them this round."""
        if self._group_fire_np is None:
            self._group_fire_np = [
                np_mod.zeros(B, np_mod.int64) for _ in self.model.groups
            ]
        window = np_mod.zeros(B, bool) if self.model.has_group_bursts else None
        fired_masks = []
        for group, fire in zip(self.model.groups, self._group_fire_np):
            sel = _np_rows(np_mod, group.instance, live, instance_offset, B)
            unfired = fire == 0
            if group.at_round is not None:
                newly = sel & unfired if round_index == group.at_round else None
            else:
                column = getattr(cols, _TRIGGER_FIELDS[group.trigger_field])
                newly = sel & unfired & (
                    column[:, group.anchor] >= group.trigger_threshold
                )
            if newly is not None and newly.any():
                fire[newly] = round_index
            fired = sel & (fire > 0)
            fired_masks.append(fired)
            if window is not None and group.burst is not None and fired.any():
                rel = round_index - fire + 1
                cov = rel >= group.burst.start
                if group.burst.length is not None:
                    cov &= rel < group.burst.start + group.burst.length
                window |= fired & cov
        return window, fired_masks

    def _np_take(
        self, np_mod: Any, flight: Any, rows: Any, node: int, count: int
    ) -> None:
        """Delete up to ``count`` pulses in flight toward ``node``."""
        removed = np_mod.where(rows, np_mod.minimum(flight[:, node], count), 0)
        flight[:, node] -= removed
        self.events["det_dropped"] += int(removed.sum())

    def _np_down(self, flights: Tuple[Any, ...], where: Any) -> None:
        """Down nodes absorb everything in flight toward them; ``where``
        indexes the ``[B, n]`` flights (a row mask and node, or a mask)."""
        for flight in flights:
            self.events["crash_lost"] += int(flight[where].sum())
            flight[where] = 0

    def _np_restart(
        self,
        np_mod: Any,
        cols: Any,
        flights: Tuple[Any, ...],
        rows: Any,
        node: int,
        extra: Any,
    ) -> Any:
        cols.reset_node(rows, node)
        flights[0][rows, (node + self.shift) % self.n] += 1
        self.events["restarts"] += int(rows.sum())
        if extra is None:
            extra = np_mod.zeros(len(rows), np_mod.int64)
        extra[rows] += 1
        return extra

    def _apply_np(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        flights: Tuple[Any, ...],
        instance_offset: int,
        live: Any,
    ) -> Any:
        model = self.model
        B, n = flights[0].shape
        extra = None
        window, fired_masks = (
            self._np_groups_begin(
                np_mod, round_index, cols, live, instance_offset, B
            )
            if model.groups
            else (None, [])
        )
        for drops, flight in zip(self._drops, flights):
            for drop in drops:
                if drop.round_index == round_index:
                    rows = _np_rows(
                        np_mod, drop.instance, live, instance_offset, B
                    )
                    self._np_take(np_mod, flight, rows, drop.node, drop.count)
        fires = self._group_fire_np or ()
        for group, fire, fired in zip(model.groups, fires, fired_masks):
            if not group.drops or not fired.any():
                continue
            for group_drop in group.drops:
                slot = self._slot.get(group_drop.direction)
                if slot is None:
                    continue
                rows = fired & (fire + group_drop.offset == round_index)
                if rows.any():
                    node = (group.anchor + group_drop.node_offset) % n
                    self._np_take(
                        np_mod, flights[slot], rows, node, group_drop.count
                    )
        for crash in model.crashes:
            rows = _np_rows(np_mod, crash.instance, live, instance_offset, B)
            if not rows.any():
                continue
            if crash.down(round_index):
                self._np_down(flights, (rows, crash.node))
            elif crash.restarts_at(round_index):
                extra = self._np_restart(
                    np_mod, cols, flights, rows, crash.node, extra
                )
        if model.crash_rate:
            if self._rate_mask_np is None:
                self._rate_mask_np = _np_rate_mask(
                    np_mod, model, instance_offset, B, n
                )
            self._np_down(flights, self._rate_mask_np & live[:, None])
        for group, fire, fired in zip(model.groups, fires, fired_masks):
            if not group.crash or not fired.any():
                continue
            if group.restart_after is None:
                down = fired
                restart = None
            else:
                down = fired & (round_index < fire + group.restart_after)
                restart = fired & (round_index == fire + group.restart_after)
            if down.any():
                self._np_down(flights, (down, group.anchor))
            if restart is not None and restart.any():
                extra = self._np_restart(
                    np_mod, cols, flights, restart, group.anchor, extra
                )
        for flight, (_, chan_base) in zip(flights, self.flights):
            _apply_random_np(
                np_mod, model, self.events, round_index, flight,
                instance_offset, chan_base, live, window,
            )
        for corruption in self._corruptions:
            if corruption.at_round == round_index:
                rows = _np_rows(
                    np_mod, corruption.instance, live, instance_offset, B
                )
                column = getattr(cols, self._columns[corruption.field])
                column[rows, corruption.node] = corruption.value
                self.events["corruptions"] += int(rows.sum())
        return 0 if extra is None else extra

    # -- scalar twins -------------------------------------------------------

    def _py_groups_begin(
        self, round_index: int, instance: int, states: List[Any]
    ) -> Tuple[Any, List[int]]:
        """Scalar twin of :meth:`_np_groups_begin` for one instance: the
        burst gate (bool, or None) and each group's fire round (0 when
        unfired or aimed at another instance)."""
        window = False if self.model.has_group_bursts else None
        fires = []
        for group, fire_rounds in zip(self.model.groups, self._group_fire_py):
            if not _aims_at(group, instance):
                fires.append(0)
                continue
            fire = fire_rounds.get(instance, 0)
            if fire == 0:
                if group.at_round is not None:
                    if round_index == group.at_round:
                        fire = round_index
                else:
                    attr = _TRIGGER_FIELDS[group.trigger_field]
                    if getattr(states[group.anchor], attr) >= group.trigger_threshold:
                        fire = round_index
                if fire:
                    fire_rounds[instance] = fire
            fires.append(fire)
            if window is not None and fire and group.burst_active(round_index, fire):
                window = True
        return window, fires

    def _py_take(self, flight: List[int], node: int, count: int) -> None:
        removed = min(flight[node], count)
        flight[node] -= removed
        self.events["det_dropped"] += removed

    def _py_down(self, flights: Tuple[List[int], ...], node: int) -> None:
        for flight in flights:
            self.events["crash_lost"] += flight[node]
            flight[node] = 0

    def _py_restart(
        self,
        node: int,
        gov: List[int],
        states: List[Any],
        flights: Tuple[List[int], ...],
        kernel: Any,
        out_leader: Optional[List[bool]],
    ) -> int:
        states[node] = kernel.make_state(gov[node])
        _, emissions, _ = kernel.init(states[node])
        sent = 0
        for _port, cnt in emissions:
            flights[0][(node + self.shift) % self.n] += cnt
            sent += cnt
        if out_leader is not None:
            out_leader[node] = False
        self.events["restarts"] += 1
        return sent

    def _apply_py(
        self,
        round_index: int,
        instance: int,
        gov: List[int],
        states: List[Any],
        flights: Tuple[List[int], ...],
        kernel: Any,
        out_leader: Optional[List[bool]] = None,
    ) -> int:
        model = self.model
        n = self.n
        extra = 0
        window, fires = (
            self._py_groups_begin(round_index, instance, states)
            if model.groups
            else (None, [])
        )
        for drops, flight in zip(self._drops, flights):
            for drop in drops:
                if drop.round_index == round_index and _aims_at(drop, instance):
                    self._py_take(flight, drop.node, drop.count)
        for group, fire in zip(model.groups, fires):
            if not fire:
                continue
            for group_drop in group.drops:
                slot = self._slot.get(group_drop.direction)
                if slot is not None and fire + group_drop.offset == round_index:
                    node = (group.anchor + group_drop.node_offset) % n
                    self._py_take(flights[slot], node, group_drop.count)
        for crash in model.crashes:
            if not _aims_at(crash, instance):
                continue
            if crash.down(round_index):
                self._py_down(flights, crash.node)
            elif crash.restarts_at(round_index):
                extra += self._py_restart(
                    crash.node, gov, states, flights, kernel, out_leader
                )
        if model.crash_rate:
            mask = self._rate_mask_py.get(instance)
            if mask is None:
                mask = _py_rate_mask(model, instance, n)
                self._rate_mask_py[instance] = mask
            for v in range(n):
                if mask[v]:
                    self._py_down(flights, v)
        for group, fire in zip(model.groups, fires):
            if not (group.crash and fire):
                continue
            if group.down(round_index, fire):
                self._py_down(flights, group.anchor)
            elif group.restarts_at(round_index, fire):
                extra += self._py_restart(
                    group.anchor, gov, states, flights, kernel, out_leader
                )
        for flight, (_, chan_base) in zip(flights, self.flights):
            _apply_random_py(
                model, self.events, round_index, flight, instance, chan_base,
                window,
            )
        for corruption in self._corruptions:
            if corruption.at_round == round_index and _aims_at(
                corruption, instance
            ):
                attr = self._attrs[corruption.field]
                setattr(states[corruption.node], attr, corruption.value)
                self.events["corruptions"] += 1
        return extra


class DirectionFaults(_FleetClauses):
    """A :class:`FaultModel` compiled onto one directional warmup-kernel
    fleet run (Algorithm 1, or one half of Algorithm 3): one flight
    ``(direction, chan_base)`` whose sends fly toward ``v + shift``.

    The run materializes only its own direction's ``rho`` and ``sigma``,
    so corruption clauses naming the *other* direction's fields are
    owned by the twin adapter (the caller compiles one per direction).
    """

    def __init__(
        self,
        model: FaultModel,
        n: int,
        direction: str,
        shift: int,
        chan_base: int,
        algorithm: str,
    ) -> None:
        owned = {f"rho_{direction}": "rho_cw", f"sigma_{direction}": "sigma_cw"}
        super().__init__(
            model, n, algorithm, ((direction, chan_base),), shift, owned, owned
        )

    def apply_np(
        self,
        np_mod: Any,
        round_index: int,
        rho: Any,
        sigma: Any,
        flight: Any,
        instance_offset: int,
        live: Any,
    ) -> Any:
        """Mutate the columns for one round start; returns extra sends
        (0, or an int64 ``[B]`` array when a restart re-init sent pulses).

        ``live`` is a bool ``[B]`` mask of rows that have not yet
        quiesced; quiesced rows are frozen (the pure-Python twin's
        per-instance loop has already exited for them)."""
        return self._apply_np(
            np_mod, round_index, _DirectionColumns(rho, sigma), (flight,),
            instance_offset, live,
        )

    def apply_py(
        self,
        round_index: int,
        instance: int,
        gov: List[int],
        states: List[Any],
        flight: List[int],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`apply_np` for global ``instance``;
        returns the number of extra pulses sent (restart re-inits)."""
        return self._apply_py(round_index, instance, gov, states, (flight,), kernel)


#: Terminating-kernel column spellings for corruptible schema fields.
_TERMINATING_COLS = {
    "rho_cw": "rho_cw",
    "sigma_cw": "sigma_cw",
    "rho_ccw": "rho_ccw",
    "sigma_ccw": "sigma_ccw",
    "pending_cw": "pend_cw",
    "pending_ccw": "pend_ccw",
}


class TerminatingFaults(_FleetClauses):
    """A :class:`FaultModel` compiled onto the terminating fleet run
    (Algorithm 2: both directions in one round loop, CW channels at
    indices ``[0, n)`` and CCW at ``[n, 2n)`` — the seeded scheduler's
    layout).  A restart reboots every state column and re-sends the
    kernel's CW init pulse."""

    def __init__(self, model: FaultModel, n: int) -> None:
        super().__init__(
            model, n, "terminating", (("cw", 0), ("ccw", n)), +1,
            _TERMINATING_COLS, {field: field for field in _TERMINATING_COLS},
        )

    def apply_np(
        self,
        np_mod: Any,
        round_index: int,
        cols: Any,
        cw_flight: Any,
        ccw_flight: Any,
        instance_offset: int,
        live: Any,
    ) -> Any:
        """Mutate columns/flights for one round start; returns extra sends
        (0, or int64 ``[B]`` when restart re-inits sent pulses).

        ``live`` freezes already-quiesced rows, matching the pure-Python
        per-instance loop exit (see :meth:`DirectionFaults.apply_np`)."""
        return self._apply_np(
            np_mod, round_index, cols, (cw_flight, ccw_flight),
            instance_offset, live,
        )

    def apply_py(
        self,
        round_index: int,
        instance: int,
        ids: List[int],
        states: List[Any],
        out_leader: List[bool],
        cw_flight: List[int],
        ccw_flight: List[int],
        kernel: Any,
    ) -> int:
        """Scalar twin of :meth:`apply_np` for global ``instance``."""
        return self._apply_py(
            round_index, instance, ids, states, (cw_flight, ccw_flight),
            kernel, out_leader,
        )
