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
from functools import partial
from typing import NamedTuple

import numpy as np

from .channel import PhysicalParams
from .errors import InvalidArgumentError, NoThresholdError
from .security import (
    _check_grid,
    _dq_terms,
    _fraction_grid,
    _secure_core,
    _validate_d_q,
    eve_optimal_holevo,
    x_interval,
)

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


class RatePoint(NamedTuple):
    """One evaluated operating point of the rate model.

    A named tuple of its five fields in this order: it compares and
    hashes as that tuple does, is immutable, and unpacks as a row of
    ``hdcow rates``."""

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
    mu is checked before any rate is computed; d must be an integer (not
    a bool), and the smallest mu must leave the mean wait
    ``tau*d/(xi_eff*mu)`` finite.  The formula is the same
    ``+ * /`` expression on both, which NumPy rounds as Python does, so
    each element equals the float result bit for bit.
    """
    mus = mu.tolist() if isinstance(mu, np.ndarray) else [mu]
    _check_detection([d], mus, xi_eff, t_dead, tau)
    return _detection_formula(d, mu, xi_eff, t_dead, tau)


def _check_detection(dimensions, mus: list, xi_eff, t_dead, tau) -> None:
    """Refuse what :func:`detection_rate` cannot take: each mu of the
    list ``mus``, then each d, with the largest and the smallest mu."""
    for m in mus:
        if not (0.0 < m < math.inf and xi_eff > 0.0):
            raise InvalidArgumentError(
                f"mu={m} and xi_eff={xi_eff} must be finite and positive"
            )
    mu_min, mu_max = min(mus, default=None), max(mus, default=None)
    for d in dimensions:
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise InvalidArgumentError(f"d={d!r} must be an integer >= 2")
        if not (0.0 < tau < math.inf and d >= 2 and t_dead >= 0.0):  # NaN fails too
            raise InvalidArgumentError(
                f"require finite tau > 0, d >= 2, t_dead >= 0 "
                f"(tau={tau}, d={d}, t_dead={t_dead})"
            )
        if not mus:
            continue
        # xi_eff*mu/d rounds monotonically in mu, so the largest mu decides
        if xi_eff * mu_max / d > 1.0:
            raise InvalidArgumentError(
                f"per-slot click probability exceeds 1 at mu={mu_max}, d={d}"
            )
        # and the smallest decides whether the mean wait is a number
        if not (xi_eff * mu_min > 0.0 and tau * d / (xi_eff * mu_min) < math.inf):
            raise InvalidArgumentError(
                f"mu={mu_min} too small at d={d}: the mean wait "
                f"tau*d/(xi_eff*mu) between clicks is not finite"
            )


def _detection_formula(d, mu, xi_eff: float, t_dead: float, tau: float):
    """The detection rate for checked inputs; ``d`` a number or a float
    column, ``mu`` a number or a row."""
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

    ``mu_grid`` is a 1-D sequence.  Each dimension's (Q, V) is read
    once, and every input is checked before anything is evaluated: each
    (d, Q), then the mu grid (its shape, then each mu as
    :func:`secure_rate` checks it), then each V, then each d as
    :func:`detection_rate` does.  The secure fractions are then one
    evaluation over the whole grid, one row per d (see
    :mod:`hdcow.security`); the detection rates are
    one array expression over the same grid.  Both run the scalar path's
    code on arrays, so every grid point equals
    ``secure_rate(d, mu, noise.q(d), noise.v(d), phys)`` bit for bit.

    ``grid`` is a tuple of :class:`RatePoint` named tuples, d-major,
    each made by ``tuple.__new__`` in C from the grid's columns.  The
    optimum is the first of equally good points, and the d=2 baseline
    the first best point of the d=2 row.  ``gain`` is the
    optimum rate over the baseline's; NaN when the grid has no d=2 row
    or its best rate is 0.
    """
    dimensions = list(dimensions)
    mus = np.asarray(mu_grid, dtype=float)
    if not dimensions or not mus.size:
        raise InvalidArgumentError("empty sweep grid")
    qs = [noise.q(d) for d in dimensions]
    visibilities = [noise.v(d) for d in dimensions]
    _check_grid(dimensions, qs, visibilities, mus)
    mu_values = mus.tolist()
    _check_detection(dimensions, mu_values, phys.xi_eff, phys.t_dead, phys.tau)
    fractions = _fraction_grid(dimensions, qs, visibilities, mus)
    d_column = np.array(dimensions, dtype=float).reshape(-1, 1)
    alpha = _detection_formula(d_column, mus, phys.xi_eff, phys.t_dead, phys.tau)
    rates = (alpha * fractions).ravel().tolist()
    # each point is made by tuple.__new__ in C, with no Python frame
    grid = tuple(map(partial(tuple.__new__, RatePoint), zip(
        [d for d in dimensions for _ in mu_values],
        mu_values * len(dimensions),
        fractions.ravel().tolist(),
        alpha.ravel().tolist(),
        rates,
    )))
    optimum = grid[rates.index(max(rates))]  # the first of equally good points
    baseline = None
    if 2 in dimensions:
        start = dimensions.index(2) * len(mu_values)
        d2_rates = rates[start:start + len(mu_values)]
        baseline = grid[start + d2_rates.index(max(d2_rates))]
    if baseline is not None and baseline.bits_per_second > 0.0:
        gain = optimum.bits_per_second / baseline.bits_per_second
    else:
        gain = float("nan")
    return SweepResult(grid=grid, optimum=optimum, baseline_d2=baseline, gain=gain)


def qber_threshold(d: int, mu: float, visibility: float) -> float:
    """Largest total qudit error rate with a positive secure fraction.

    Bisection over e in [0, 1-1/d) to absolute tolerance 1e-4.  Raises
    :class:`NoThresholdError` when even a noiseless channel yields no
    key.  Divide by (d-1) for the per-wrong-slot convention.

    (d, mu, V) are refused once, before any step, in the order
    :func:`~hdcow.security.eve_optimal_holevo` refuses them: d below 2,
    then mu, then V, then a d that is not an integer.  The adversary's
    optimum x* and ``exp(-mu)`` are found once too.  Each step then
    evaluates only the secure-fraction core at ``Q = e/(d-1)``, which
    lies in [0, 1/d] and needs no check, so each step's answer is
    ``eve_optimal_holevo(d, Q, mu, V).secure_fraction > 0`` bit for bit.
    """
    if d < 2:
        raise InvalidArgumentError(f"d={d} must be >= 2")
    e_hi = 1.0 - 1.0 / d
    x_star = x_interval(mu, visibility)[0]
    _validate_d_q(d, 0.0)
    em = math.exp(-mu)

    def keyed(e_total):
        q = e_total / (d - 1)
        return _secure_core(d, q, em, x_star, _dq_terms(d, q))[1] > 0.0

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
