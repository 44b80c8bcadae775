"""Monte Carlo model of the fiber link, beamsplitter tap, interference
monitor, and click detectors with dead time.

The model is per slot: an occupied slot fires the data detector with
probability ``1 - exp(-xi_eff*mu)`` and an empty slot with
``1 - exp(-xi_eff*mu*r_ext)`` (modulator leakage), each OR-ed with the
dark-count probability; ``xi_eff = xi * t_ch * (1 - f_mon)``.  The
monitor line fires on the dark port: a pulse whose predecessor slot is
also occupied interferes and clicks with probability
``xi * f_mon * t_ch * mu * (1 - V) / 2``, a pulse with an empty
predecessor does not interfere and clicks with probability
``xi * f_mon * t_ch * mu / 4``.  Each detector gets the dark-count
probability once per slot: OR-ed into the slot's light, which at an
empty monitor slot is none.  Dead time is applied per detector by
``kernels.dead_time_filter``.  Slots count from their train's start, from
0, as a time tagger's events count from its frame sync, and one rule,
:func:`_carry`, carries a train's end into the next train's
:class:`DetectorState`, for the channel and the sender's tally alike.

The sender transmits a pulse train: the frames of several blocks back to
back, as one continuous train on unchanged hardware, before revealing
any of their permutations.  The receiver then decodes the train as a
whole, with its slots counted across the frames, and reports its
monitor clicks; the sender, who knows the pulses, tallies them.
:func:`transmit_frame` simulates a whole train at once,
with draws that follow the pulses and the clicks, not the slots: each
pulse takes one uniform per detector, and the empty slots' rare events
are placed by :func:`_empty_hits` with exactly the per-slot model's
distribution.  Every threshold those draws compare against is computed
with :mod:`math`, as the click probabilities are, since NumPy's
vectorized ``log`` and ``exp`` may round differently in the last bit.

On a long lossy link almost every frame is quiet: no pulse's monitor
uniform lies below either monitor click probability, the data detector
has a candidate in few frames, and the monitor's dead window has closed
before the frame starts.  Such a frame skips the work that no click
needs (the monitor's interference classification, the dead-time scan
and the tally's dead-window search), on the same draws, so every click
and tally equals what the full work gives.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgumentError, UndefinedEstimateError
from .kernels import dead_time_filter
from .protocol import DetectionReport, Permutation, ProtocolParams

__all__ = [
    "PhysicalParams",
    "DetectorState",
    "ClickStream",
    "MonitorTally",
    "transmit_frame",
    "estimate_qber",
    "estimate_visibility",
]

SOFT_FLUX_GUARD = 0.1


@dataclass(frozen=True)
class PhysicalParams:
    """Channel and detector model parameters.

    mu: mean photon number per occupied pulse.
    t_ch: channel transmittance.  The default is a 40 km standard fiber
        at 0.2 dB/km, the reference link of the modeled system.
    xi: detector efficiency.
    t_dead: detector dead time in seconds.
    tau: slot duration in seconds.
    p_dc: dark-count probability per slot per detector.
    r_ext: modulator extinction ratio (fraction of the pulse mean photon
        number leaking into empty slots).
    f_mon: beamsplitter fraction routed to the monitor line.
    v_true: channel interference visibility the simulation realizes.

    Every field must be finite.  The fields are frozen, so each derived
    value (``xi_eff``, ``dead_slots`` and the four click probabilities)
    is computed once per instance, on first use.
    """

    mu: float
    t_ch: float = 10 ** (-0.8)
    xi: float = 0.2
    t_dead: float = 4e-6
    tau: float = 2e-9
    p_dc: float = 0.0
    r_ext: float = 0.01
    f_mon: float = 0.1
    v_true: float = 0.99

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise InvalidArgumentError(f"{f.name}={value} must be finite")
        if self.mu < 0.0:
            raise InvalidArgumentError(f"mu={self.mu} must be non-negative")
        if not 0.0 < self.t_ch <= 1.0:
            raise InvalidArgumentError(f"t_ch={self.t_ch} outside (0, 1]")
        if not 0.0 < self.xi <= 1.0:
            raise InvalidArgumentError(f"xi={self.xi} outside (0, 1]")
        if self.t_dead < 0.0:
            raise InvalidArgumentError(f"t_dead={self.t_dead} must be >= 0")
        if not self.tau > 0.0:
            raise InvalidArgumentError(f"tau={self.tau} must be positive")
        for name, val in (("p_dc", self.p_dc), ("r_ext", self.r_ext)):
            if not 0.0 <= val <= 1.0:
                raise InvalidArgumentError(f"{name}={val} outside [0, 1]")
        if not 0.0 <= self.f_mon < 1.0:
            raise InvalidArgumentError(f"f_mon={self.f_mon} outside [0, 1)")
        if not 0.0 <= self.v_true <= 1.0:
            raise InvalidArgumentError(f"v_true={self.v_true} outside [0, 1]")
        if self.mu * self.t_ch > SOFT_FLUX_GUARD:
            warnings.warn(
                f"mu*t_ch = {self.mu * self.t_ch:.3g} exceeds the weak-pulse "
                f"validity guard {SOFT_FLUX_GUARD}; the security analysis "
                "assumes mu*t << 1",
                stacklevel=2,
            )

    @cached_property
    def xi_eff(self) -> float:
        """Efficiency seen by the data line: detector efficiency times
        channel transmittance times the non-monitored fraction."""
        return self.xi * self.t_ch * (1.0 - self.f_mon)

    @cached_property
    def dead_slots(self) -> int:
        """Slots blinded after a click: ceil(t_dead / tau)."""
        if self.t_dead == 0.0:
            return 0
        return int(math.ceil(self.t_dead / self.tau - 1e-12))

    @cached_property
    def p_click_occupied(self) -> float:
        light = 1.0 - math.exp(-self.xi_eff * self.mu)
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @cached_property
    def p_click_empty(self) -> float:
        light = 1.0 - math.exp(-self.xi_eff * self.mu * self.r_ext)
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @cached_property
    def p_monitor_interfering(self) -> float:
        light = min(
            self.xi * self.f_mon * self.t_ch * self.mu * (1.0 - self.v_true) / 2.0,
            1.0,
        )
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @cached_property
    def p_monitor_noninterfering(self) -> float:
        light = min(self.xi * self.f_mon * self.t_ch * self.mu / 4.0, 1.0)
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @classmethod
    def noiseless(cls, tau: float = 2e-9) -> "PhysicalParams":
        """Deterministic lossless preset: every occupied slot clicks,
        nothing else does.  For protocol-mechanics tests; the weak-pulse
        guard does not apply because no security claim is attached."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cls(
                mu=50.0, t_ch=1.0, xi=1.0, t_dead=0.0, tau=tau,
                p_dc=0.0, r_ext=0.0, f_mon=0.0, v_true=1.0,
            )

    def implied_qslot(self, d: int) -> float:
        """Per-wrong-slot error probability among kept (single-click)
        qudits that this parameter set produces."""
        pc, pw = self.p_click_occupied, self.p_click_empty
        if pc == 0.0:
            raise UndefinedEstimateError("occupied slots never click")
        ratio = pw * (1.0 - pc) / (pc * (1.0 - pw))
        return ratio / (1.0 + (d - 1) * ratio)

    def with_target_qslot(self, q_slot: float, d: int) -> "PhysicalParams":
        """Return a copy whose extinction ratio makes the kept-qudit
        per-wrong-slot error probability exactly ``q_slot``."""
        if not 0.0 <= q_slot < 1.0 / (d - 1):
            raise InvalidArgumentError(f"q_slot={q_slot} outside [0, 1/(d-1))")
        pc = self.p_click_occupied
        if not 0.0 < pc < 1.0:
            raise InvalidArgumentError("occupied-slot click probability degenerate")
        ratio = q_slot / (1.0 - (d - 1) * q_slot)
        b = ratio * pc / (1.0 - pc)
        p_empty = b / (1.0 + b)
        if p_empty < self.p_dc:
            raise InvalidArgumentError("target q_slot below the dark-count floor")
        light = 1.0 - (1.0 - p_empty) / (1.0 - self.p_dc) if self.p_dc else p_empty
        if self.xi_eff * self.mu == 0.0:
            raise InvalidArgumentError("no light on the data line")
        r_ext = -math.log(1.0 - light) / (self.xi_eff * self.mu)
        return replace(self, r_ext=r_ext)


@dataclass
class DetectorState:
    """What a pulse train leaves for the next: each detector's last click,
    counted from the next train's first slot (so negative), and whether
    the slot before that one held a pulse."""

    last_data_click: int = -(1 << 62)
    last_monitor_click: int = -(1 << 62)
    prev_occupied: bool = False


@dataclass
class ClickStream:
    """Time-ordered detector events for one pulse train, or one frame,
    as 0-based slots of the train: what a receiver's detectors give, and
    nothing of the pulses sent."""

    data_slots: np.ndarray
    monitor_slots: np.ndarray


@dataclass
class MonitorTally:
    """Monitor-line counts and live exposures for visibility estimation."""

    n_int: int = 0
    exp_int: int = 0
    n_non: int = 0
    exp_non: int = 0

    def add(self, other: "MonitorTally") -> None:
        self.n_int += other.n_int
        self.exp_int += other.exp_int
        self.n_non += other.n_non
        self.exp_non += other.exp_non


def transmit_frame(
    occ: np.ndarray,
    params: PhysicalParams,
    rng: np.random.Generator,
    state: DetectorState | None = None,
) -> ClickStream:
    """Simulate a pulse train through the channel and both detectors.
    The train is its ``(m, L)`` bool occupancy ``occ``, one frame of
    ``L`` slots per row and the rows back to back, such as
    :func:`~hdcow.protocol.encode_block`'s result; a single frame is a
    1-row train.  Each pulse has the mean photon number ``params.mu``.
    Returns the train's :class:`ClickStream`.

    The draws follow the pulses and the clicks, not the slots.  The
    train's ``P`` pulses are found once and take one uniform each per
    detector, from one call of ``2*P``: the first ``P`` decide the data
    detector and the next ``P`` the monitor, pulse by pulse.  Then the
    data detector's empty slots fire with the empty-slot probability
    (leakage and dark counts) and, when ``p_dc`` > 0, the monitor's with
    ``p_dc``, each through :func:`_empty_hits`.  Every slot fires
    independently with its own probability, as in a per-slot draw, so
    identical seeds give identical streams and the clicks have the
    per-slot model's distribution.

    A pulse's monitor uniform is first tested against the larger of the
    two monitor probabilities, and only the pulses below it are
    classified for interference and tested against their class's
    probability.  A pulse below its class's probability is below the
    larger one, so the clicks are the same; on a long link most trains
    have no pulse below it and none is classified.  Each detector's
    candidate clicks then pass its dead-time filter once for the whole
    train, the data detector's first.  ``state``, what the train before
    left (none, if not given), is carried past this train in place.
    """
    if occ.ndim != 2 or not occ.size:
        raise InvalidArgumentError(
            f"a train is a non-empty (frames, slots) occupancy, got shape {occ.shape}"
        )
    if state is None:
        state = DetectorState()
    slots = occ.reshape(-1)
    pulses = slots.nonzero()[0]
    u = rng.random(2 * len(pulses))
    u_data, u_mon = u[: len(pulses)], u[len(pulses) :]

    cand_data = pulses[u_data < params.p_click_occupied]
    leaks = _empty_hits(pulses, len(slots), params.p_click_empty, rng)
    if len(leaks):
        cand_data = _merge(cand_data, leaks)
    data_slots, _ = dead_time_filter(cand_data, params.dead_slots, state.last_data_click)

    p_int, p_non = params.p_monitor_interfering, params.p_monitor_noninterfering
    below = (u_mon < max(p_int, p_non)).nonzero()[0]
    cand_mon = pulses[below]
    if len(below):  # most trains of a long, lossy link have none
        cand_mon = cand_mon[u_mon[below] < np.where(
            _interferes(slots, cand_mon, state.prev_occupied), p_int, p_non
        )]
    darks = _empty_hits(pulses, len(slots), params.p_dc, rng)
    if len(darks):
        cand_mon = _merge(cand_mon, darks)
    monitor_slots, _ = dead_time_filter(cand_mon, params.dead_slots, state.last_monitor_click)

    _carry(state, slots, monitor_slots, data_slots)
    return ClickStream(data_slots, monitor_slots)


def _carry(state: DetectorState, slots: np.ndarray, monitor_slots, data_slots=()) -> None:
    """Carry ``state`` past a train in place, from its flattened occupancy
    ``slots`` and its clicks (the sender sees no data click): each
    detector's last click is then counted from the next train's start."""
    state.prev_occupied = bool(slots[-1])
    if len(monitor_slots):
        state.last_monitor_click = int(monitor_slots[-1])
    if len(data_slots):
        state.last_data_click = int(data_slots[-1])
    state.last_monitor_click -= len(slots)
    state.last_data_click -= len(slots)


def _merge(pulse_hits: np.ndarray, empty_hits: np.ndarray) -> np.ndarray:
    """The union, in order, of two sorted arrays of slots that share none,
    as a detector's hits at the pulses and at the empty slots do: each
    value's place is its index plus the other array's values below it.
    Placed by searches, not sorted: the first ``int64`` sort in a process
    adds resident code that a session otherwise never loads."""
    union = np.empty(len(pulse_hits) + len(empty_hits), dtype=np.int64)
    union[pulse_hits.searchsorted(empty_hits) + np.arange(len(empty_hits))] = empty_hits
    union[empty_hits.searchsorted(pulse_hits) + np.arange(len(pulse_hits))] = pulse_hits
    return union


# Empty slots are tested in groups of this many; see _empty_hits.
_GROUP = 64


@lru_cache(maxsize=8)
def _group_table(p: float) -> tuple[float, np.ndarray]:
    """For an event of probability ``p`` in each of ``_GROUP`` slots:
    the probability that a group holds any, ``1 - (1-p)**_GROUP``, and
    the conditional CDF of the first one's offset given that it does,
    ``F(k) = (1 - (1-p)**(k+1)) / (1 - (1-p)**_GROUP)`` for k = 0 ..
    ``_GROUP - 2`` (``F(_GROUP - 1)`` is 1).  Computed with :mod:`math`,
    so every host compares its uniforms against the same bits; the CDF
    is read-only, since it is shared."""
    log_miss = math.log1p(-p)
    any_hit = -math.expm1(_GROUP * log_miss)
    cdf = np.array([-math.expm1((k + 1) * log_miss) / any_hit for k in range(_GROUP - 1)])
    cdf.flags.writeable = False
    return any_hit, cdf


def _empty_hits(pulses: np.ndarray, slots: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The sorted positions, among ``slots`` slots of which the sorted
    positions ``pulses`` are occupied, of the empty slots at which an
    event of probability ``p`` occurs, each independently.

    The cost follows the events, not the slots.  The ``E`` empty slots,
    counted in order, are split into groups of ``_GROUP``, the last one
    padded with slots past ``E`` whose events are dropped.  One uniform
    per group tests whether the group holds any event (see
    :func:`_group_table`); for each group that does, one more uniform
    ``v`` places its first event at the first offset ``k`` with
    ``v < F(k)`` of the conditional CDF, by a ``searchsorted``, and its
    later slots are tested one uniform each.  This is the joint
    distribution of ``_GROUP`` independent slots, factored at the first
    event.  The draws, in that order, are three calls of
    ``Generator.random``; the third holds a uniform for each hit group's
    slots from its first event on, the first event's own unread.
    ``p`` = 0, or no empty slot, draws nothing, and ``p`` = 1 needs no
    draw.  An empty slot's count ``e`` becomes its position by adding
    the pulses before it: those whose position less their index is at
    most ``e``.
    """
    empties = slots - len(pulses)
    if p <= 0.0 or not empties:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        hits = np.arange(empties)
    else:
        any_hit, cdf = _group_table(p)
        groups = (rng.random(-(-empties // _GROUP)) < any_hit).nonzero()[0]
        if not len(groups):
            return np.empty(0, dtype=np.int64)
        first = cdf.searchsorted(rng.random(len(groups)), side="right")
        # each hit group's slots from its first event to its end, in order
        counts = _GROUP - first
        heads = np.cumsum(counts) - counts  # where each group's first event sits
        hits = np.arange(heads[-1] + counts[-1])
        hits += np.repeat(groups * _GROUP + first - heads, counts)
        keep = rng.random(len(hits)) < p
        keep[heads] = True  # the first event's own uniform is not read
        hits = hits[keep]
        hits = hits[: hits.searchsorted(empties)]
    return hits + (pulses - np.arange(len(pulses))).searchsorted(hits, side="right")


def _interferes(occ: np.ndarray, pulses: np.ndarray, prev_occupied: bool) -> np.ndarray:
    """For each pulse of ``occ`` at the sorted local slots ``pulses``, all
    of its pulses or some, whether the slot before it is occupied; before
    the first slot stands the previous frame's last, ``prev_occupied``."""
    prev = occ[pulses - 1]
    if len(pulses) and not pulses[0]:
        prev[0] = prev_occupied
    return prev


def monitor_tally(
    occ: np.ndarray,
    monitor_slots,
    state: DetectorState,
    params: PhysicalParams,
) -> MonitorTally:
    """Classify monitor clicks and count live exposures for one pulse
    train, in one pass over its occupancy ``occ`` flattened, the frames
    back to back, as :func:`transmit_frame` sent it, from its monitor
    clicks, strictly increasing slots of the train, and the ``state``
    the train before left, which is then carried past the train by the
    channel's rule.  The tally equals the sum of the tallies of the
    train's frames, each taken with the state it started from.

    Each pulse is an interfering exposure when the slot before it is
    occupied and a non-interfering one otherwise.  A click on a pulse
    counts for its class, and a click on an empty slot (a dark count)
    for neither.  A pulse within ``dead_slots`` slots after a monitor
    click, the train's own or the one before, could never have clicked,
    so it is no exposure.  Only the sender knows the pulses, so the
    sender tallies the clicks that the receiver reports.

    The exposures take one pass over the pulses: two ``searchsorted``
    of the pulses among the clicks count, for every pulse, the clicks
    before it and those before its dead window, and a pulse is live
    when the two counts agree.  The live pulses that are not
    interfering are the non-interfering exposures.  The clicks are few,
    so each is classified where it falls.

    A train with no monitor click of its own that starts after the dead
    window of the monitor's last click (``last_monitor_click +
    dead_slots < 0``) has no dead pulse and no click to classify: every
    pulse is live, as both counts would show, so the tally is the pulse
    counts alone, with no search.
    """
    occ = occ.reshape(-1)
    pulses = occ.nonzero()[0]
    prev_occupied, last_click = state.prev_occupied, state.last_monitor_click
    _carry(state, occ, monitor_slots)
    interfering = _interferes(occ, pulses, prev_occupied)
    if not len(monitor_slots) and last_click + params.dead_slots < 0:
        exp_int = int(np.count_nonzero(interfering))  # every pulse is live
        return MonitorTally(exp_int=exp_int, exp_non=len(pulses) - exp_int)
    marks = np.empty(len(monitor_slots) + 1, dtype=np.int64)
    marks[0] = last_click
    marks[1:] = monitor_slots
    live = marks.searchsorted(pulses - params.dead_slots) == marks.searchsorted(pulses)
    exposures = int(np.count_nonzero(live))
    exp_int = int(np.count_nonzero(live & interfering))
    n_int = n_non = 0
    for slot in marks[1:].tolist():
        if occ[slot]:
            if occ[slot - 1] if slot else prev_occupied:
                n_int += 1
            else:
                n_non += 1
    return MonitorTally(
        n_int=n_int, exp_int=exp_int, n_non=n_non, exp_non=exposures - exp_int
    )


def estimate_qber(alice_sifted, bob_sifted, d: int) -> tuple[float, float]:
    """Per-wrong-slot error estimate from aligned sifted strings.

    Returns ``(q_hat, stderr)`` with ``q_hat = e/(d-1)`` for total
    mismatch fraction e and a binomial standard error.  The strings are
    short, so the mismatches are counted pair by pair, without arrays;
    the count over the length is the same double as the mean of a
    mismatch mask, which NumPy sums exactly and divides once.
    """
    count = len(alice_sifted)
    if count != len(bob_sifted):
        raise InvalidArgumentError("sifted sequences differ in length")
    if count == 0:
        raise UndefinedEstimateError("cannot estimate error rate from zero qudits")
    e = float(sum(map(operator.ne, alice_sifted, bob_sifted))) / count
    q_hat = e / (d - 1)
    stderr = math.sqrt(e * (1.0 - e) / count) / (d - 1)
    return q_hat, stderr


def estimate_visibility(
    n_int: int, exposures_int: int, n_non: int, exposures_non: int
) -> tuple[float, float]:
    """Visibility from dark-port click rates.

    The generator fires interfering exposures at rate
    ``k*(1-V)/2`` and non-interfering ones at ``k/4`` for a common
    optical factor k, so ``V = 1 - rate_int / (2 * rate_non)``.
    The standard error propagates shot noise with a one-count floor,
    which keeps the error bar meaningful when no dark-port click has
    been seen yet.
    """
    if n_non == 0 or exposures_non == 0 or exposures_int == 0:
        raise UndefinedEstimateError(
            "visibility undefined without non-interfering reference counts"
        )
    rate_int = n_int / exposures_int
    rate_non = n_non / exposures_non
    v_hat = 1.0 - rate_int / (2.0 * rate_non)
    sig_int = math.sqrt(max(n_int, 1)) / exposures_int
    sig_non = math.sqrt(max(n_non, 1)) / exposures_non
    stderr = math.sqrt(
        (sig_int / (2.0 * rate_non)) ** 2
        + (rate_int * sig_non / (2.0 * rate_non**2)) ** 2
    )
    return min(max(v_hat, 0.0), 1.0), stderr


def decode_frame(
    params: ProtocolParams,
    sigma: Permutation,
    clicks: ClickStream,
) -> DetectionReport:
    """Decode a pulse train's data clicks into one detection report.

    ``sigma`` holds the permutations of the train's blocks, one row per
    frame, and ``clicks`` the train's click record.  A click at the
    train's ``t``-th slot, ``t - 1`` from its start, names qudit ``i`` of
    the train and symbol ``j`` through ``sigma^{-1}(t) = d*i + j``, with
    the train's bijection as :class:`~hdcow.protocol.Permutation`
    flattens it; so qudit i of row k is ``k*n + i``.  A qudit named by
    exactly one data click is kept.  A qudit named by two or more is
    discarded whole, since the clicks
    disagree on its symbol, and so is a qudit named by a monitor click:
    the receiver reports its monitor clicks, and once ``sigma`` is
    public a click at ``t`` gives away the symbol of the qudit it names.
    Entries are ``(i, j)`` pairs of Python ints in increasing ``i``.  Any
    click outside the train, of either detector, is rejected.
    """
    if sigma.inverse_map.shape[-1] != params.slot_count:
        raise InvalidArgumentError(
            f"permutation length {sigma.inverse_map.shape[-1]} != d*n={params.slot_count}"
        )
    data = len(clicks.data_slots)
    if not (data or len(clicks.monitor_slots)):  # most trains of a long, lossy link
        return DetectionReport(entries=())
    inverse = sigma.inverse_map.reshape(-1)
    offsets = np.concatenate((clicks.data_slots, clicks.monitor_slots))
    if np.minimum.reduce(offsets) < 0 or np.maximum.reduce(offsets) >= len(inverse):
        raise InvalidArgumentError(f"click outside the train's slots 0..{len(inverse) - 1}")
    qudits, symbols = np.divmod(inverse[offsets] - 1, params.d)
    kept, first, counts = np.unique(qudits[:data], return_index=True, return_counts=True)
    once = counts == 1
    if data and len(offsets) > data:  # drop the qudits the monitor clicks name; kept is sorted
        at = kept.searchsorted(qudits[data:])
        once[at[kept.take(at, mode="clip") == qudits[data:]]] = False
    entries = zip(kept[once].tolist(), (symbols[first[once]] + 1).tolist())
    return DetectionReport(entries=tuple(entries))
