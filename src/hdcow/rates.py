"""Detection-rate model, secure bits per second, parameter sweeps, and
error-rate thresholds.

The detection rate follows the dead-time renewal model
``alpha = 1 / (T + tau*D/(xi_eff*mu))``: after each click the detector
is blind for T, then waits geometrically for the next click with
per-slot probability ``xi_eff*mu/D``.  ``xi_eff`` folds detector
efficiency, channel transmittance, and the monitor tap, so the formula
and the Monte Carlo describe the same system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .channel import PhysicalParams
from .errors import InvalidArgumentError, NoThresholdError
from .security import eve_optimal_holevo, secure_fractions

__all__ = [
    "RatePoint",
    "SweepResult",
    "LinearNoise",
    "TableNoise",
    "detection_rate",
    "secure_rate",
    "sweep",
    "qber_threshold",
    "THRESHOLD_CONVENTION",
]

# Default convention for quoting error-rate thresholds.  The axis is the
# per-wrong-slot error probability, which stays comparable across
# dimensions (the total qudit error is (d-1) times it).  mu -> 0 is the
# vanishing-occupation limit: <v0|vmu> -> 1 collapses the adversary's
# admissible overlap to x = sqrt(V), so the threshold depends on the
# monitored visibility alone and not on an operating point.  At V = 0.9
# the binary and sixteen-level thresholds come out at the reference
# endpoints (~14.9% and ~4.9% per wrong slot), and the thresholds fall
# strictly with the dimension.
THRESHOLD_CONVENTION = {"mu": 1e-6, "visibility": 0.90, "axis": "per_slot"}

_THRESHOLD_TOL = 1e-4


@dataclass(frozen=True)
class RatePoint:
    """One evaluated operating point of the rate model."""

    d: int
    mu: float
    bits_per_detection: float
    alpha: float
    bits_per_second: float


@dataclass(frozen=True)
class SweepResult:
    grid: tuple
    optimum: RatePoint
    baseline_d2: RatePoint | None
    gain: float

    def best_for_dimension(self, d: int) -> RatePoint:
        pts = [p for p in self.grid if p.d == d]
        if not pts:
            raise InvalidArgumentError(f"no grid points with d={d}")
        return max(pts, key=lambda p: p.bits_per_second)


@dataclass(frozen=True)
class LinearNoise:
    """Constant per-wrong-slot error probability; total qudit error
    grows as (d-1)*q_slot."""

    q_slot: float
    visibility: float

    def q(self, d: int) -> float:
        return self.q_slot

    def v(self, d: int) -> float:
        return self.visibility


@dataclass(frozen=True)
class TableNoise:
    """User-supplied per-dimension (Q, V) pairs, for feeding measured
    channel data through the same pipeline."""

    table: dict

    def q(self, d: int) -> float:
        return self.table[d][0]

    def v(self, d: int) -> float:
        return self.table[d][1]


def detection_rate(d: int, mu, xi_eff: float, t_dead: float, tau: float):
    """Detected qudits per second: ``1 / (t_dead + tau*d/(xi_eff*mu))``.

    ``mu`` is a float, or an ndarray that gives an array of rates.  Every
    mu is checked before any rate is computed.  The formula is the same
    ``+ * /`` expression on both, which NumPy rounds as Python does, so
    each element equals the float result bit for bit.
    """
    mus = mu.tolist() if isinstance(mu, np.ndarray) else [mu]
    for m in mus:
        if not (0.0 < m < math.inf and xi_eff > 0.0):
            raise InvalidArgumentError(
                f"mu={m} and xi_eff={xi_eff} must be finite and positive"
            )
    if not (tau > 0.0 and d >= 2 and t_dead >= 0.0):  # NaN fails this too
        raise InvalidArgumentError(
            f"require tau > 0, d >= 2, t_dead >= 0 (tau={tau}, d={d}, t_dead={t_dead})"
        )
    # xi_eff*mu/d rounds monotonically in mu, so the largest mu decides
    if mus and xi_eff * max(mus) / d > 1.0:
        raise InvalidArgumentError(
            f"per-slot click probability exceeds 1 at mu={max(mus)}, d={d}"
        )
    return 1.0 / (t_dead + tau * d / (xi_eff * mu))


def secure_rate(
    d: int, mu: float, q: float, visibility: float, phys: PhysicalParams
) -> RatePoint:
    """The detection rate composed with the secure fraction at one point:
    the scalar reference each :func:`sweep` point equals.  Neither factor
    can be negative, so the product needs no clamp."""
    per_detection = eve_optimal_holevo(d, q, mu, visibility).secure_fraction
    alpha = detection_rate(d, mu, phys.xi_eff, phys.t_dead, phys.tau)
    return RatePoint(d, mu, per_detection, alpha, alpha * per_detection)


def sweep(dimensions, mu_grid, noise, phys: PhysicalParams) -> SweepResult:
    """Evaluate the rate on the (d, mu) grid and locate the optimum.

    Each dimension makes one :func:`~hdcow.security.secure_fractions`
    call and one :func:`detection_rate` call over the array of mu, so
    its (Q, V) are read, its (d, Q) terms computed and every input
    checked once, before any of its points is built, and no point builds
    ``chi_BE``.  Both calls run the scalar path's code on arrays (see
    :mod:`hdcow.security`), so every grid point equals
    ``secure_rate(d, mu, noise.q(d), noise.v(d), phys)`` bit for bit.

    ``gain`` is the optimum rate over the best d=2 rate; NaN when the
    grid has no d=2 points.
    """
    dimensions = list(dimensions)
    mus = np.array(list(mu_grid), dtype=float)
    if not dimensions or not mus.size:
        raise InvalidArgumentError("empty sweep grid")
    mu_values = mus.tolist()
    grid = []
    for d in dimensions:
        fractions = secure_fractions(d, noise.q(d), noise.v(d), mus)
        alpha = detection_rate(d, mus, phys.xi_eff, phys.t_dead, phys.tau)
        bits_per_second = alpha * np.array(fractions)
        grid.extend(map(
            RatePoint, repeat(d), mu_values, fractions, alpha.tolist(),
            bits_per_second.tolist(),
        ))
    optimum = max(grid, key=lambda p: p.bits_per_second)
    d2_points = [p for p in grid if p.d == 2]
    baseline = max(d2_points, key=lambda p: p.bits_per_second) if d2_points else None
    if baseline is not None and baseline.bits_per_second > 0.0:
        gain = optimum.bits_per_second / baseline.bits_per_second
    else:
        gain = float("nan")
    return SweepResult(
        grid=tuple(grid), optimum=optimum, baseline_d2=baseline, gain=gain
    )


def qber_threshold(d: int, mu: float, visibility: float) -> float:
    """Largest total qudit error rate with a positive secure fraction.

    Bisection over e in [0, 1-1/d) to absolute tolerance 1e-4.  Raises
    :class:`NoThresholdError` when even a noiseless channel yields no
    key.  Divide by (d-1) for the per-wrong-slot convention.
    """
    if d < 2:
        raise InvalidArgumentError(f"d={d} must be >= 2")

    def keyed(e_total):
        report = eve_optimal_holevo(d, e_total / (d - 1), mu, visibility)
        return report.secure_fraction > 0.0

    e_hi = 1.0 - 1.0 / d
    if not keyed(0.0):
        raise NoThresholdError(
            f"no positive secure fraction at zero error for d={d}, mu={mu}, "
            f"visibility={visibility}"
        )
    lo, hi = 0.0, e_hi - 1e-12
    if keyed(hi):
        return hi
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if keyed(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
