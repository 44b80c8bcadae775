"""Eavesdropper information bounds for the permuted time-bin protocol.

The attack model: the adversary applies a fixed linear map to every time
slot, turning an empty slot into ``v0`` (no click at the receiver) or
``p0`` (click), and an occupied slot into ``vmu`` (no click) or ``pmu``
(click).  Unitarity pins the overlap ``<v0|vmu> = exp(-mu/2)``, the
monitored interference visibility pins ``<vmu|pmu>**2 = V``, and ``p0``
is taken orthogonal to everything, which is the adversary's best choice.
The single remaining degree of freedom is ``x = <v0|pmu>``, constrained
to the interval where the Gram matrix of (v0, vmu, pmu) stays positive
semidefinite.

The adversary's optimum is in closed form: ``x* = x_interval(mu, V)[0]``,
the lower end of that interval.  x enters both Holevo bounds only
through the correct-outcome block of the average-state entropy,
``f(s) = h(a((d-1)s+1)) + (d-1)*h(a(1-s))`` with ``s = x**2``,
``a = (1-(d-1)Q)/d`` and ``h(p) = -p*log2(p)``.  Its derivative
``f'(s) = a(d-1)*log2((1-s)/((d-1)s+1))`` is <= 0 on [0, 1], so both
bounds fall as x rises over the (non-negative) interval and peak at its
lower end.

Two routes compute the adversary's Holevo information:

* closed forms built from the eigenvalue structure of the conditional
  states.  :func:`holevo_ae` and :func:`holevo_be` evaluate one bound
  each, on a scalar or an array of overlaps.  Every secure fraction
  comes from one private core, the only place ``I_AB - chi_AE`` is
  written.  :func:`report_at` runs it at one overlap and is the only
  place that also builds ``chi_BE``, which no rate caller reads.
  :func:`hdcow.rates.sweep` runs it once over its whole (d, mu) grid,
  with d and Q as float columns and mu as a row.
  :func:`hdcow.rates.qber_threshold` runs it once per bisection step,
  with x* and ``exp(-mu)`` found once per threshold.

  The core and its parts serve a number and an ndarray alike.  On an
  array, ``+ - * /`` run in NumPy, which rounds them as Python does, and
  ``exp``, ``sqrt`` and ``log2`` go through one private helper that
  applies the :mod:`math` function to each element, because NumPy's can
  round differently in the last bit.  A grid point therefore equals the
  scalar evaluation ``repr`` for ``repr``.  Scalar callers
  (:func:`report_at`, :func:`eve_optimal_holevo`,
  :func:`secure_fraction`, :func:`hdcow.rates.qber_threshold`) take the
  plain :mod:`math` path and return ``float``.
* a brute-force density-matrix oracle (:func:`holevo_oracle`) that embeds
  the slot vectors explicitly, builds the d-fold tensor-product states,
  and diagonalizes.  The oracle is the ground truth the closed forms are
  tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SecurityReport",
    "entropy_term",
    "x_interval",
    "holevo_ae",
    "holevo_be",
    "holevo_oracle",
    "report_at",
    "eve_optimal_holevo",
    "mutual_info_ab",
    "secure_fraction",
]

# Inputs of these types take the scalar ``math`` path of the closed forms;
# ``np.float64`` subclasses ``float`` and takes it too.
_SCALAR_TYPES = (int, float)


@dataclass(frozen=True)
class SecurityReport:
    """Adversary bounds and the secure fraction at one attack overlap."""

    chi_ae: float  # Holevo bound on info about the sender's symbol (bits)
    chi_be: float  # Holevo bound on info about the receiver's outcome (bits)
    secure_fraction: float  # I_AB - chi_AE clamped at 0, bits per detected qudit
    x_star: float  # the adversary's <v0|pmu> the bounds were evaluated at


def _each(fn, x):
    """``fn``, a function of one float built on :mod:`math`, of a float,
    or of each element of an ndarray (returned as an array of the same
    shape).

    NumPy's ``log2`` and ``exp`` can round differently from :mod:`math`'s
    in the last bit, so every transcendental step of the closed forms
    goes through here and an array gives the scalar path's bits.
    ``sqrt`` does too: NumPy's rounds exactly, but calling it added about
    0.2 MB of resident code pages to a rates sweep.
    """
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)
    return fn(x)


def _entropy(p: float) -> float:
    return -p * math.log2(p) if p > 0.0 else 0.0


def entropy_term(p):
    """``-p * log2(p)`` with the limit value 0 at ``p = 0``.

    Every eigenvalue contribution in the closed forms below is this same
    function.  A real scalar (Python ``int`` or ``float``, NumPy float
    scalars included) returns a ``float``; anything else returns an
    array of the input's shape, or a ``float`` for a 0-d input.  Both
    paths evaluate each element with the same :mod:`math` expression, so
    they agree bit for bit.
    """
    if isinstance(p, _SCALAR_TYPES):
        p = float(p)
        if not p >= 0.0:  # NaN fails this too
            raise InvalidArgumentError(f"entropy_term requires p >= 0, got {p}")
        return _entropy(p)
    out = _entropies(np.asarray(p, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def _entropies(arr: np.ndarray) -> np.ndarray:
    """:func:`entropy_term` of each element of a float array, with no
    Python frame per element.

    ``log2(1) = 0`` stands in for ``log2(0)``, and ``(0.0 - p) * log2(p)``
    equals the scalar ``-p * log2(p)`` bit for bit: +0.0 at ``p = 0`` and
    -0.0 at ``p = 1``, as the scalar path gives.  A negative p makes
    ``math.log2`` raise, and a NaN p gives a NaN logarithm, which the sum
    of the logarithms carries (no other term can make it NaN).
    """
    try:
        logs = list(map(math.log2, [v or 1.0 for v in arr.ravel().tolist()]))
        total = sum(logs)
    except ValueError:  # a negative p
        total = math.nan
    if math.isnan(total):
        raise InvalidArgumentError("entropy_term requires every p >= 0 (no NaN)")
    return (0.0 - arr) * np.array(logs).reshape(arr.shape)


def _clip(value, lo: float, hi: float):
    """``value`` clamped to [lo, hi]: a float, or an ndarray elementwise."""
    if isinstance(value, np.ndarray):
        return np.clip(value, lo, hi)
    return lo if lo > value else (hi if hi < value else value)


def _x_ends(g, visibility: float):
    """Both ends of :func:`x_interval` for a validated V, from
    ``g = exp(-mu/2)``, a float or an ndarray.  The lower end is the
    adversary's optimum."""
    w = math.sqrt(visibility)
    half_width = _each(math.sqrt, _clip((1.0 - g * g) * (1.0 - w * w), 0.0, 1.0))
    return _clip(g * w - half_width, 0.0, 1.0), _clip(g * w + half_width, 0.0, 1.0)


def x_interval(mu: float, visibility: float) -> tuple[float, float]:
    """Range of ``x = <v0|pmu>`` allowed by positive semidefiniteness.

    With ``g = exp(-mu/2)`` and ``w = sqrt(V)`` the Gram determinant is a
    downward parabola in x; its roots are ``g*w -/+ sqrt((1-g^2)(1-w^2))``,
    intersected with [0, 1].
    """
    _validate_mu(mu)
    _validate_visibility(visibility)
    return _x_ends(math.exp(mu / -2.0), visibility)


def _validate_visibility(visibility: float) -> None:
    if not 0.0 <= visibility <= 1.0:
        raise InvalidArgumentError(f"visibility={visibility} outside [0, 1]")


def _validate_d_q(d: int, q: float) -> None:
    if not (isinstance(d, (int, np.integer)) and d >= 2):
        raise InvalidArgumentError(f"d={d} must be an integer >= 2")
    if not 0.0 <= q <= 1.0 / (d - 1):
        raise InvalidArgumentError(f"Q={q} outside [0, 1/(d-1)] for d={d}")


def _validate_mu(mu: float) -> None:
    if not 0.0 < mu < math.inf:  # NaN fails this too
        raise InvalidArgumentError(f"mu={mu} must be finite and positive")


def _validate_domain(d: int, q: float, mu: float) -> None:
    _validate_d_q(d, q)
    _validate_mu(mu)


def _dq_terms(d, q):
    """The secure fraction's (d, Q)-only terms for a validated (d, Q):
    the sender-side conditional entropy ``(d-1)*h(Q) + h(1-(d-1)Q)``,
    I_AB, both built from one evaluation of ``h(Q)`` and of
    ``h(1-(d-1)Q)``, and ``log2(d)``, the clamps' upper end.  ``d`` and
    ``q`` are numbers, or float columns of one shape, one row per
    (d, Q)."""
    log2_d = _each(math.log2, d)
    h_wrong = entropy_term(q)
    h_right = entropy_term(1.0 - (d - 1) * q)
    return (d - 1) * h_wrong + h_right, log2_d - (d - 1) * h_wrong - h_right, log2_d


def _secure_core(d, q, em, x, dq_terms):
    """``(s_bar, chi_ae, I_AB - chi_ae)`` at overlap ``x`` for a validated
    (d, Q, mu), with ``em = exp(-mu)`` and ``dq_terms`` from
    :func:`_dq_terms`; ``chi_ae`` and the secure fraction are clamped to
    [0, log2(d)].  Each argument is a number or an ndarray, and they
    broadcast: ``d`` and ``q`` as one column of rows, ``em`` as a row of
    mu, ``x`` as a row or a grid.  The one place the secure fraction is
    written; the average-state entropy ``s_bar`` is evaluated once."""
    conditional, i_ab, log2_d = dq_terms
    s_bar = _average_state_entropy(d, q, em, x)
    chi_ae = _clamp_bits(s_bar - conditional, log2_d)
    return s_bar, chi_ae, _clamp_bits(i_ab - chi_ae, log2_d)


def _receiver_conditional(d: int, q: float, em: float) -> float:
    """Receiver-side conditional entropy, with ``em = exp(-mu)``: see
    :func:`holevo_be`."""
    return (
        entropy_term(q * ((d - 2) * em + 1.0))
        + (d - 2) * entropy_term(q * (1.0 - em))
        + entropy_term(1.0 - (d - 1) * q)
    )


def _average_state_entropy(d, q, em, x):
    """Entropy of the adversary's ensemble-average state.

    The average state block-diagonalizes into d identical "wrong outcome"
    blocks (one per p0 position, Gram off-diagonal ``em = exp(-mu)``) and
    one "correct outcome" block (Gram off-diagonal ``x**2``); the entropy
    is the entropy of the scaled block eigenvalues.  ``d``, ``q`` and
    ``em`` are numbers or ndarrays that broadcast (see
    :func:`_secure_core`); ``x`` a float or anything array-like.
    """
    if not isinstance(x, _SCALAR_TYPES):
        x = np.asarray(x, dtype=float)
    e_tot = (d - 1) * q
    wrong = d * entropy_term(q / d * ((d - 2) * em + 1.0)) + d * (
        d - 2
    ) * entropy_term(q / d * (1.0 - em))
    xx = x * x
    correct = entropy_term((1.0 - e_tot) / d * ((d - 1) * xx + 1.0)) + (
        d - 1
    ) * entropy_term((1.0 - e_tot) / d * (1.0 - xx))
    return wrong + correct


def holevo_ae(d: int, q: float, mu: float, x):
    """Holevo bound on the adversary's information about the sender's
    symbol, in bits.

    Conditioned on the sent symbol, the wrong-outcome states carry the
    adversary's marker vector at distinct slots and are mutually
    orthogonal, so the conditional entropy is that of the bare outcome
    distribution ``{1-(d-1)Q, Q, ..., Q}``.

    ``x`` may be an array; the result is clamped to [0, log2(d)].
    """
    _validate_domain(d, q, mu)
    conditional, _, log2_d = _dq_terms(d, q)
    chi = _average_state_entropy(d, q, math.exp(-mu), x) - conditional
    return _clamp_bits(chi, log2_d)


def holevo_be(d: int, q: float, mu: float, x):
    """Holevo bound on the adversary's information about the receiver's
    outcome, in bits.

    Conditioned on the received symbol, the wrong-outcome states share
    the marker slot and overlap pairwise by ``exp(-mu)``, which
    concentrates the conditional spectrum into ``Q*((d-2)*exp(-mu)+1)``
    plus ``d-2`` copies of ``Q*(1-exp(-mu))`` and lowers the conditional
    entropy; the bound is correspondingly larger than :func:`holevo_ae`.
    """
    _validate_domain(d, q, mu)
    em = math.exp(-mu)
    chi = _average_state_entropy(d, q, em, x) - _receiver_conditional(d, q, em)
    return _clamp_bits(chi, math.log2(d))


def _clamp_bits(chi, log2_d):
    # entropy arithmetic near p in {0, 1} leaves -1e-16-size residue
    return _clip(chi, 0.0, log2_d)


def _vn_entropy(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    return float(np.sum(entropy_term(np.clip(evals, 0.0, None))))


def holevo_oracle(d: int, q: float, mu: float, x: float) -> tuple[float, float]:
    """Brute-force Holevo bounds from explicit density matrices.

    Embeds the four slot vectors in R^4, forms every d-slot tensor
    product state, builds the conditional mixtures for sender and
    receiver, and evaluates ``S(rho_bar) - mean_i S(rho_i)`` by
    eigendecomposition.  Exponential in d, hence the d <= 4 guard.

    Returns ``(chi_ae, chi_be)``.
    """
    _validate_domain(d, q, mu)
    if d > 4:
        raise InvalidArgumentError("oracle cost grows as 4**d; use d in {2, 3, 4}")
    if not 0.0 <= x <= 1.0:
        raise InvalidArgumentError(f"x={x} outside [0, 1]")

    g = math.exp(-mu / 2.0)
    v0 = np.array([1.0, 0.0, 0.0, 0.0])
    vmu = np.array([g, math.sqrt(max(0.0, 1.0 - g * g)), 0.0, 0.0])
    # pmu only needs unit norm and <v0|pmu> = x; the bounds do not depend
    # on <vmu|pmu>, so the free component goes on a fresh axis.
    pmu = np.array([x, 0.0, math.sqrt(max(0.0, 1.0 - x * x)), 0.0])
    p0 = np.array([0.0, 0.0, 0.0, 1.0])

    def product_state(slot_vectors):
        out = slot_vectors[0]
        for vec in slot_vectors[1:]:
            out = np.kron(out, vec)
        return out

    def correct_state(i):
        return product_state([pmu if m == i else v0 for m in range(d)])

    def wrong_state(i, k):
        # sent i, received k: marker p0 at slot k, surviving vmu at slot i
        return product_state(
            [p0 if m == k else (vmu if m == i else v0) for m in range(d)]
        )

    e_tot = (d - 1) * q
    dim = 4**d
    rho_bar = np.zeros((dim, dim))
    cond_ae = 0.0
    cond_be = 0.0
    for i in range(d):
        ci = correct_state(i)
        rho_sender = (1.0 - e_tot) * np.outer(ci, ci)
        rho_receiver = (1.0 - e_tot) * np.outer(ci, ci)
        for k in range(d):
            if k == i:
                continue
            w_ik = wrong_state(i, k)
            w_ki = wrong_state(k, i)
            rho_sender += q * np.outer(w_ik, w_ik)
            rho_receiver += q * np.outer(w_ki, w_ki)
        rho_bar += rho_sender / d
        cond_ae += _vn_entropy(rho_sender) / d
        cond_be += _vn_entropy(rho_receiver) / d

    s_bar = _vn_entropy(rho_bar)
    chi_ae = min(max(s_bar - cond_ae, 0.0), math.log2(d))
    chi_be = min(max(s_bar - cond_be, 0.0), math.log2(d))
    return chi_ae, chi_be


def report_at(d: int, q: float, mu: float, x: float) -> SecurityReport:
    """Both Holevo bounds and the secure fraction at overlap ``x``.

    The secure fraction subtracts the sender-side bound from the shared
    information and clamps at zero.  The sender-side bound is the right
    leak term because reconciliation is direct: the distilled key is the
    sender's raw string and the receiver corrects toward it.

    The domain is checked once, and the average-state entropy is
    evaluated once and shared by both bounds.  This is the only place
    ``chi_be`` is built besides :func:`holevo_be`; every field equals
    what :func:`holevo_ae`, :func:`holevo_be` and
    ``max(mutual_info_ab - holevo_ae, 0)`` give.
    """
    _validate_domain(d, q, mu)
    em, dq_terms = math.exp(-mu), _dq_terms(d, q)
    s_bar, chi_ae, fraction = _secure_core(d, q, em, x, dq_terms)
    return SecurityReport(
        chi_ae=chi_ae,
        chi_be=_clamp_bits(s_bar - _receiver_conditional(d, q, em), dq_terms[2]),
        secure_fraction=fraction,
        x_star=x,
    )


def eve_optimal_holevo(d: int, q: float, mu: float, visibility: float) -> SecurityReport:
    """Both bounds and the secure fraction at the adversary's optimal
    overlap.

    The optimum is the lower end of :func:`x_interval`: x enters the
    bounds only through ``f(s) = h(a((d-1)s+1)) + (d-1)*h(a(1-s))`` with
    ``s = x**2`` and ``a = (1-(d-1)Q)/d``, and
    ``f'(s) = a(d-1)*log2((1-s)/((d-1)s+1)) <= 0`` on [0, 1].  The same
    ``x_star`` therefore maximizes both bounds.
    """
    return report_at(d, q, mu, x_interval(mu, visibility)[0])


def mutual_info_ab(d: int, q: float) -> float:
    """Shannon information shared per detected qudit, in bits.

    ``log2(d) + (d-1)*Q*log2(Q) + (1-(d-1)Q)*log2(1-(d-1)Q)``, i.e. the
    qudit capacity minus the equivocation of the symmetric error channel.
    """
    _validate_d_q(d, q)
    return _dq_terms(d, q)[1]


def _check_grid(dimensions, qs, visibilities, mus: np.ndarray) -> None:
    """Refuse a (d, Q, V) row or a mu that :func:`_fraction_grid` cannot
    take: every (d, Q), then ``mus`` (one dimension, each mu finite and
    positive), then every V."""
    for d, q in zip(dimensions, qs):
        _validate_d_q(d, q)
    if mus.ndim != 1:
        raise InvalidArgumentError(
            f"mus must be a 1-D sequence, got an array of shape {mus.shape}"
        )
    for mu in mus.tolist():
        _validate_mu(mu)
    for visibility in visibilities:
        _validate_visibility(visibility)


def _fraction_grid(dimensions, qs, visibilities, mus: np.ndarray) -> np.ndarray:
    """Secure fractions for rows checked by :func:`_check_grid`, as an
    array of one row per (d, Q, V) and one column per mu.

    One evaluation of :func:`_secure_core` serves the whole grid, with d
    and Q as float columns.  ``exp(-mu)`` and ``exp(-mu/2)`` are
    computed once, and the optimal overlap once per distinct V.  Every
    element equals ``secure_fraction(d, q, mu, v)`` bit for bit while
    ``d*(d-2)`` stays below 2**53, that is for any d below 9e7, where d
    as a float gives the integer arithmetic's values.
    """
    d = np.array(dimensions, dtype=float).reshape(-1, 1)
    q = np.array(qs, dtype=float).reshape(-1, 1)
    g = _each(math.exp, mus / -2.0)
    x_by_visibility = {}
    for visibility in visibilities:
        if visibility not in x_by_visibility:
            x_by_visibility[visibility] = _x_ends(g, visibility)[0]
    x_star = np.array([x_by_visibility[v] for v in visibilities])
    # -1.0 * mus is -mus bit for bit and spares paging in NumPy's negation
    em = _each(math.exp, -1.0 * mus)
    return _secure_core(d, q, em, x_star, _dq_terms(d, q))[2]


def secure_fraction(d: int, q: float, mu: float, visibility: float) -> float:
    """Secure bits per detected qudit against the optimal attack at one
    occupation, on the scalar path."""
    _validate_d_q(d, q)
    x_star = x_interval(mu, visibility)[0]
    return _secure_core(d, q, math.exp(-mu), x_star, _dq_terms(d, q))[2]
