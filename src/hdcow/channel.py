"""Monte Carlo model of the fiber link, beamsplitter tap, interference
monitor, and click detectors with dead time.

Click generation is per slot: an occupied slot fires the data detector
with probability ``1 - exp(-xi_eff*mu)`` and an empty slot with
``1 - exp(-xi_eff*mu*r_ext)`` (modulator leakage), each OR-ed with the
dark-count probability; ``xi_eff = xi * t_ch * (1 - f_mon)``.  The
monitor line fires on the dark port: a pulse whose predecessor slot is
also occupied interferes and clicks with probability
``xi * f_mon * t_ch * mu * (1 - V) / 2``, a pulse with an empty
predecessor does not interfere and clicks with probability
``xi * f_mon * t_ch * mu / 4``.  Dead time is applied per detector by
``kernels.dead_time_filter`` and persists across frames.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, UndefinedEstimateError
from .kernels import dead_time_filter
from .protocol import (
    DetectionReport,
    ProtocolParams,
    PulseFrame,
    Permutation,
    decode_click,
)

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

    @property
    def xi_eff(self) -> float:
        """Efficiency seen by the data line: detector efficiency times
        channel transmittance times the non-monitored fraction."""
        return self.xi * self.t_ch * (1.0 - self.f_mon)

    @property
    def dead_slots(self) -> int:
        """Slots blinded after a click: ceil(t_dead / tau)."""
        if self.t_dead == 0.0:
            return 0
        return int(math.ceil(self.t_dead / self.tau - 1e-12))

    @property
    def p_click_occupied(self) -> float:
        light = 1.0 - math.exp(-self.xi_eff * self.mu)
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @property
    def p_click_empty(self) -> float:
        light = 1.0 - math.exp(-self.xi_eff * self.mu * self.r_ext)
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @property
    def p_monitor_interfering(self) -> float:
        light = min(
            self.xi * self.f_mon * self.t_ch * self.mu * (1.0 - self.v_true) / 2.0,
            1.0,
        )
        return 1.0 - (1.0 - light) * (1.0 - self.p_dc)

    @property
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
    """Carries dead-time and pulse-train continuity across frames."""

    last_data_click: int = -(1 << 62)
    last_monitor_click: int = -(1 << 62)
    prev_occupied: bool = False
    next_slot: int = 1  # global 1-based index of the next frame's first slot


@dataclass
class ClickStream:
    """Time-ordered detector events for one frame, as global slot indices."""

    data_slots: np.ndarray
    monitor_slots: np.ndarray
    frame_start: int  # global index of the frame's first slot
    frame_length: int


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
    frame: PulseFrame,
    params: PhysicalParams,
    rng: np.random.Generator,
    state: DetectorState | None = None,
) -> ClickStream:
    """Simulate one frame through the channel and both detectors.

    Consumes two uniform variates per slot (data, monitor) in a fixed
    order so identical seeds give identical streams.  If ``state`` is
    given it is updated in place, chaining dead time, global slot
    numbering, and pulse-train continuity into the next frame.
    """
    if state is None:
        state = DetectorState()
    occ = frame.occupancy
    length = len(occ)
    base = state.next_slot

    u_data = rng.random(length)
    p_data = np.where(occ, params.p_click_occupied, params.p_click_empty)
    cand_data = base + np.nonzero(u_data < p_data)[0]
    data_slots, state.last_data_click = dead_time_filter(
        cand_data, params.dead_slots, state.last_data_click
    )

    u_mon = rng.random(length)
    interfering, noninterfering = _classify_slots(occ, state.prev_occupied)
    p_mon = np.zeros(length)
    p_mon[interfering] = params.p_monitor_interfering
    p_mon[noninterfering] = params.p_monitor_noninterfering
    if params.p_dc > 0.0:
        p_mon = 1.0 - (1.0 - p_mon) * (1.0 - params.p_dc)
    cand_mon = base + np.nonzero(u_mon < p_mon)[0]
    monitor_slots, state.last_monitor_click = dead_time_filter(
        cand_mon, params.dead_slots, state.last_monitor_click
    )

    state.prev_occupied = bool(occ[-1])
    state.next_slot = base + length
    return ClickStream(
        data_slots=data_slots,
        monitor_slots=monitor_slots,
        frame_start=base,
        frame_length=length,
    )


def _classify_slots(occ: np.ndarray, prev_occupied: bool):
    """Masks of interfering (occupied with occupied predecessor) and
    non-interfering (occupied with empty predecessor) slots."""
    prev = np.empty_like(occ)
    prev[0] = prev_occupied
    prev[1:] = occ[:-1]
    return occ & prev, occ & ~prev


def monitor_tally(
    occ: np.ndarray,
    prev_occupied: bool,
    clicks: ClickStream,
    params: PhysicalParams,
    last_click_before: int,
) -> MonitorTally:
    """Classify monitor clicks and count live exposures for one frame.

    Exposure slots inside a dead window could never have clicked, so
    they are excluded; the receiver can reconstruct the dead windows
    from its own click record.
    """
    interfering, noninterfering = _classify_slots(occ, prev_occupied)
    live = np.ones(len(occ), dtype=bool)
    dead = params.dead_slots
    base = clicks.frame_start
    spill_end = last_click_before + dead - base + 1  # local count blinded at start
    if spill_end > 0:
        live[: min(spill_end, len(occ))] = False
    for slot in clicks.monitor_slots:
        lo = slot - base + 1
        live[lo : lo + dead] = False
    local = clicks.monitor_slots - base
    tally = MonitorTally(
        n_int=int(interfering[local].sum()),
        exp_int=int((interfering & live).sum()),
        n_non=int(noninterfering[local].sum()),
        exp_non=int((noninterfering & live).sum()),
    )
    return tally


def estimate_qber(alice_sifted, bob_sifted, d: int) -> tuple[float, float]:
    """Per-wrong-slot error estimate from aligned sifted strings.

    Returns ``(q_hat, stderr)`` with ``q_hat = e/(d-1)`` for total
    mismatch fraction e and a binomial standard error.
    """
    a = np.asarray(alice_sifted)
    b = np.asarray(bob_sifted)
    if len(a) != len(b):
        raise InvalidArgumentError("sifted sequences differ in length")
    if len(a) == 0:
        raise UndefinedEstimateError("cannot estimate error rate from zero qudits")
    e = float(np.mean(a != b))
    q_hat = e / (d - 1)
    stderr = math.sqrt(e * (1.0 - e) / len(a)) / (d - 1)
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
    """Decode a frame's data clicks into a detection report, discarding
    qudits that registered more than one click."""
    locals_ = clicks.data_slots - clicks.frame_start + 1
    if len(locals_) == 0:
        return DetectionReport(entries=())
    seen: dict[int, int | None] = {}
    for t in locals_:
        i, j = decode_click(params, sigma, int(t))
        seen[i] = j if i not in seen else None
    entries = tuple(sorted((i, j) for i, j in seen.items() if j is not None))
    return DetectionReport(entries=entries)
