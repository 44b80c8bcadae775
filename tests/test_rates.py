import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdcow.channel import PhysicalParams
from hdcow.config import Config
from hdcow.errors import InvalidArgumentError, NoThresholdError
from hdcow.rates import (
    LinearNoise,
    RatePoint,
    TableNoise,
    detection_rate,
    qber_threshold,
    secure_rate,
    sweep,
    THRESHOLD_CONVENTION,
)
from hdcow.security import eve_optimal_holevo


class TestDetectionRate:
    def test_reference_point(self):
        # tau*D/(xi*mu) = 2 us on top of T = 4 us
        alpha = detection_rate(2, 0.01, xi_eff=0.2, t_dead=4e-6, tau=2e-9)
        assert alpha == pytest.approx(1.0 / 6e-6, rel=1e-12)
        assert alpha == pytest.approx(1.667e5, rel=1e-3)

    def test_saturation_approaches_dead_time_ceiling(self):
        alpha = detection_rate(2, 0.3, xi_eff=0.9, t_dead=4e-6, tau=2e-9)
        assert alpha == pytest.approx(250e3, rel=0.01)
        assert alpha < 1.0 / 4e-6

    def test_dead_time_free_limit_linear_in_mu(self):
        a1 = detection_rate(4, 0.01, xi_eff=0.2, t_dead=0.0, tau=2e-9)
        a2 = detection_rate(4, 0.02, xi_eff=0.2, t_dead=0.0, tau=2e-9)
        assert a1 == pytest.approx(0.2 * 0.01 / (4 * 2e-9))
        assert a2 == pytest.approx(2 * a1)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            detection_rate(2, 0.0, 0.2, 4e-6, 2e-9)
        with pytest.raises(InvalidArgumentError):
            detection_rate(2, 0.1, 0.0, 4e-6, 2e-9)
        for mu in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                detection_rate(2, mu, 0.2, 4e-6, 2e-9)
        # a NaN dead time or slot width used to give a NaN rate
        with pytest.raises(InvalidArgumentError, match="t_dead=nan"):
            detection_rate(2, 0.1, 0.2, math.nan, 2e-9)
        with pytest.raises(InvalidArgumentError, match="tau=nan"):
            detection_rate(2, 0.1, 0.2, 4e-6, math.nan)
        with pytest.raises(InvalidArgumentError, match="tau=inf"):
            detection_rate(2, 0.1, 0.2, 4e-6, math.inf)

    def test_array_equals_scalar(self):
        mus = np.linspace(1e-9, 0.4, 301)
        for d, t_dead in ((2, 4e-6), (8, 0.0), (32, 20e-9)):
            alphas = detection_rate(d, mus, 0.2, t_dead, 2e-9)
            assert alphas.tolist() == [
                detection_rate(d, m, 0.2, t_dead, 2e-9) for m in mus.tolist()
            ]

    @pytest.mark.parametrize("at", [0, 3, 4])
    def test_array_checks_every_mu(self, at):
        mus = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
        for bad, message in ((math.nan, "mu=nan"), (0.0, "mu=0.0"),
                             (25.0, "click probability exceeds 1 at mu=25.0")):
            mus_bad = mus.copy()
            mus_bad[at] = bad
            with pytest.raises(InvalidArgumentError, match=message):
                detection_rate(2, mus_bad, 0.2, 4e-6, 2e-9)

    @pytest.mark.parametrize("d", [2.5, 4.0, True, "4"])
    def test_non_integer_dimension_rejected(self, d):
        # d=2.5 used to give 800000.0000000001
        with pytest.raises(InvalidArgumentError, match=f"d={d!r} must be an integer"):
            detection_rate(d, 0.1, 0.1, 1e-6, 1e-9)

    @pytest.mark.parametrize("d, mu", [(2, 5e-324), (64, 1e-315)])
    def test_mean_wait_must_be_finite(self, d, mu):
        # mu = 5e-324 used to raise ZeroDivisionError, and an array of
        # such mu to give rates of 0 with a divide-by-zero warning
        message = f"mu={mu} too small at d={d}:"
        for mus in (mu, np.array([0.1, mu])):
            with pytest.raises(InvalidArgumentError, match=message):
                detection_rate(d, mus, 0.2, 4e-6, 2e-9)

    def test_numpy_integer_dimension_accepted(self):
        assert detection_rate(np.int64(4), 0.1, 0.1, 1e-6, 1e-9) == detection_rate(
            4, 0.1, 0.1, 1e-6, 1e-9
        )

    def test_monotone_in_mu_and_dimension(self):
        mus = np.linspace(0.005, 0.3, 20)
        alphas = [detection_rate(8, m, 0.2, 4e-6, 2e-9) for m in mus]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        dims = [2, 4, 8, 16, 32]
        by_d = [detection_rate(d, 0.05, 0.2, 4e-6, 2e-9) for d in dims]
        assert all(a > b for a, b in zip(by_d, by_d[1:]))
        assert all(a <= 1.0 / 4e-6 for a in by_d)


class TestSecureRate:
    def test_zero_at_threshold(self):
        mu, v = THRESHOLD_CONVENTION["mu"], THRESHOLD_CONVENTION["visibility"]
        e_star = qber_threshold(4, mu, v)
        phys = PhysicalParams(mu=mu)
        above = secure_rate(4, mu, min((e_star + 0.01) / 3, 1 / 3), v, phys)
        assert above.bits_per_second == 0.0

    def test_perfect_channel_binary_composition(self):
        phys = PhysicalParams(mu=1e-9, t_ch=1.0, f_mon=0.0, t_dead=0.0)
        pt = secure_rate(2, 1e-9, 0.0, 1.0, phys)
        assert pt.bits_per_detection == pytest.approx(1.0, abs=1e-6)
        assert pt.bits_per_second == pytest.approx(pt.alpha, rel=1e-6)

    def test_model_point_regression(self):
        # reference-system operating point, pinned from the
        # oracle-validated first run
        phys = PhysicalParams(mu=0.05)
        pt = secure_rate(8, 0.05, 0.004, 0.99, phys)
        assert pt.bits_per_detection == pytest.approx(2.0633954866, rel=1e-9)
        assert pt.alpha == pytest.approx(65715.8915251, rel=1e-9)
        assert pt.bits_per_second == pytest.approx(135597.873972, rel=1e-9)


@st.composite
def _table_sweeps(draw):
    """1-6 dimensions in any order, each with its own (Q, V), Q at
    either end of [0, 1/(d-1)] or inside it, V at 0, 1, a value
    shared by other dimensions or anywhere, and 1-40 occupations."""
    dimensions = draw(st.lists(st.integers(2, 64), min_size=1, max_size=6, unique=True))
    shared_v = draw(st.floats(0.0, 1.0))
    table = {}
    for d in dimensions:
        q_max = 1.0 / (d - 1)
        q = draw(st.one_of(st.sampled_from([0.0, q_max]), st.floats(0.0, q_max)))
        v = draw(st.one_of(st.sampled_from([0.0, 1.0, shared_v]), st.floats(0.0, 1.0)))
        table[d] = (q, v)
    mus = draw(st.lists(
        st.one_of(st.sampled_from([5e-324, 1e-300, 1e-17, 1e-6]), st.floats(1e-9, 5.0)),
        min_size=1, max_size=40,
    ))
    t_dead = draw(st.sampled_from([0.0, 4e-6]))
    return dimensions, mus, TableNoise(table), PhysicalParams(mu=0.05, t_dead=t_dead)


_TABLE = {2: (0.004, 0.99), 4: (0.003, 0.985), 8: (0.002, 0.98)}


def _grid_with_mu(at, bad):
    mus = Config().mu_grid()
    mus[at] = bad
    return mus


# Single faults in a sweep over d = 4, 2, 8, each with the message that
# secure_rate or detection_rate gives for the faulty d alone.
_SINGLE_FAULTS = [
    ({**_TABLE, 8: (0.2, 0.98)}, None, None,
     "Q=0.2 outside [0, 1/(d-1)] for d=8"),
    ({**_TABLE, 4: (0.003, 1.5)}, None, None,
     "visibility=1.5 outside [0, 1]"),
    ({**_TABLE, 4: (0.003, math.nan)}, None, None,
     "visibility=nan outside [0, 1]"),
    *[
        (_TABLE, _grid_with_mu(at, bad), None, f"mu={bad} must be finite and positive")
        for at in (0, 60, 119)
        for bad in (math.nan, 0.0, -0.1, math.inf)
    ],
    # xi_eff = 1: only d=2, the second dimension, clicks in more
    # than every slot at mu = 3
    (_TABLE, [0.5, 1.0, 3.0, 2.0],
     PhysicalParams(mu=0.05, t_ch=1.0, xi=1.0, f_mon=0.0),
     "per-slot click probability exceeds 1 at mu=3.0, d=2"),
]


class TestSweep:
    def test_single_point_grid(self):
        phys = PhysicalParams(mu=0.05)
        result = sweep([2], [0.05], LinearNoise(0.004, 0.99), phys)
        assert result.optimum == result.grid[0]
        assert result.gain == pytest.approx(1.0)

    def test_gain_is_one_for_binary_only_sweep(self):
        phys = PhysicalParams(mu=0.05)
        result = sweep([2], np.linspace(0.01, 0.2, 10), LinearNoise(0.004, 0.99), phys)
        assert result.gain == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        phys = PhysicalParams(mu=0.05)
        with pytest.raises(InvalidArgumentError):
            sweep([], [0.05], LinearNoise(0.004, 0.99), phys)
        with pytest.raises(InvalidArgumentError):
            sweep([2], [], LinearNoise(0.004, 0.99), phys)

    def test_table_noise_feeds_through(self):
        phys = PhysicalParams(mu=0.05)
        table = TableNoise({2: (0.004, 0.99), 4: (0.002, 0.995)})
        result = sweep([2, 4], [0.05, 0.1], table, phys)
        assert len(result.grid) == 4
        assert result.best_for_dimension(4).bits_per_second > 0

    @staticmethod
    def per_point(dimensions, mu_grid, noise, phys):
        # each point's mu is the grid's value as a float
        return tuple(
            secure_rate(d, mu, noise.q(d), noise.v(d), phys)
            for d in dimensions
            for mu in np.asarray(mu_grid, dtype=float).tolist()
        )

    @classmethod
    def assert_grid_is_per_point(cls, *args):
        # exact equality: the sweep and secure_rate share every formula.
        # repr also tells -0.0 from 0.0 and shows the type of d
        grid, expected = sweep(*args).grid, cls.per_point(*args)
        assert grid == expected
        assert repr(grid) == repr(expected)

    def test_default_grid_equals_per_point_rates(self):
        c = Config()
        self.assert_grid_is_per_point(
            c.protocol.dimensions, c.mu_grid(), c.noise_model(), c.physical_params()
        )

    def test_points_behave_as_constructed_points(self):
        c = Config()
        grid = sweep([2, 8], c.mu_grid()[:5], c.noise_model(), c.physical_params()).grid
        for point in grid:
            built = RatePoint(*dataclasses.astuple(point))
            assert point == built and hash(point) == hash(built)
            assert repr(point) == repr(built)
            assert pickle.dumps(point) == pickle.dumps(built)
            assert pickle.loads(pickle.dumps(point)) == built
            with pytest.raises(dataclasses.FrozenInstanceError):
                point.mu = 0.1

    def test_table_noise_edges_equal_per_point_rates(self):
        table = TableNoise({
            2: (0.0, 0.0),
            3: (0.5, 1.0),
            4: (1 / 3, 0.5),
            8: (np.float64(0.01), np.float64(0.97)),
            16: (0.0, 1.0),
        })
        self.assert_grid_is_per_point(
            [2, 3, 4, 8, 16], np.linspace(1e-6, 0.5, 13), table, PhysicalParams(mu=0.05)
        )

    @settings(max_examples=150, deadline=None)
    @given(case=_table_sweeps())
    def test_table_noise_grid_equals_per_point_rates(self, case):
        # the smallest occupations are refused, by both routes alike
        def outcome(evaluate):
            try:
                return repr(evaluate())
            except InvalidArgumentError as exc:
                return f"refused: {exc}"

        expected = outcome(lambda: self.per_point(*case))
        assert outcome(lambda: sweep(*case).grid) == expected

    @pytest.mark.parametrize("table, mus, phys, message", _SINGLE_FAULTS)
    def test_single_fault_raises_as_before(self, table, mus, phys, message):
        c = Config()
        with pytest.raises(InvalidArgumentError) as exc:
            sweep([4, 2, 8], mus or c.mu_grid(), TableNoise(table),
                  phys or c.physical_params())
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mu_in_grid_rejected(self, bad):
        phys = PhysicalParams(mu=0.05)
        with pytest.raises(InvalidArgumentError, match="mu="):
            sweep([2, 4], [0.05, bad], LinearNoise(0.004, 0.99), phys)

    @pytest.mark.parametrize("at", [0, 60, 119])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mu_anywhere_in_default_grid_rejected(self, bad, at):
        c = Config()
        mu_grid = c.mu_grid()
        assert len(mu_grid) == 120
        mu_grid[at] = bad
        with pytest.raises(InvalidArgumentError, match=f"mu={bad}"):
            sweep(c.protocol.dimensions, mu_grid, c.noise_model(), c.physical_params())

    def test_missing_d2_gives_nan_gain(self):
        phys = PhysicalParams(mu=0.05)
        result = sweep([4, 8], [0.05], LinearNoise(0.004, 0.99), phys)
        assert result.baseline_d2 is None
        assert math.isnan(result.gain)


def _rules_on_grid(grid):
    """Optimum, d=2 baseline and gain by their defining rules, applied to
    a sweep's grid: the first of equally good points, and the first best
    of the d=2 points."""
    rate = lambda p: p.bits_per_second  # noqa: E731
    optimum = max(grid, key=rate)
    d2_points = [p for p in grid if p.d == 2]
    baseline = max(d2_points, key=rate) if d2_points else None
    if baseline is not None and baseline.bits_per_second > 0.0:
        gain = optimum.bits_per_second / baseline.bits_per_second
    else:
        gain = float("nan")
    return optimum, baseline, gain


_DEFAULT_NOISE = Config().noise_model()


class TestSweepOptimum:
    """``optimum``, ``baseline_d2`` and ``gain`` are the points and the
    ratio the rules pick from the grid; the points are the grid's own
    objects, so ``is`` tells the first of equal points from a later one."""

    @staticmethod
    def assert_rules(result):
        optimum, baseline, gain = _rules_on_grid(result.grid)
        assert result.optimum is optimum
        assert result.baseline_d2 is baseline
        assert repr(result.gain) == repr(gain)

    @pytest.mark.parametrize(
        "dimensions, mus",
        [
            ([2, 4, 8, 16, 32], None),  # d=2 first
            ([32, 8, 4, 2], None),  # d=2 last
            ([8, 2, 16], None),
            ([4, 16], None),  # no d=2
            ([4, 2, 8], [0.05]),  # one mu
            ([2], [0.3]),
        ],
    )
    def test_default_noise(self, dimensions, mus):
        c = Config()
        result = sweep(dimensions, mus or c.mu_grid(), _DEFAULT_NOISE, c.physical_params())
        self.assert_rules(result)
        if 2 not in dimensions:
            assert result.baseline_d2 is None and math.isnan(result.gain)

    def test_keyless_d2_row(self):
        # at V = 0 every d=2 rate is 0: the baseline is the row's first
        # point and the gain is NaN
        c = Config()
        mus = c.mu_grid()
        table = TableNoise({4: (0.003, 0.985), 2: (0.004, 0.0), 8: (0.002, 0.98)})
        result = sweep([4, 2, 8], mus, table, c.physical_params())
        self.assert_rules(result)
        assert result.baseline_d2 is result.grid[len(mus)]
        assert result.baseline_d2.d == 2 and result.baseline_d2.bits_per_second == 0.0
        assert math.isnan(result.gain)

    def test_keyless_grid(self):
        # every rate 0: the optimum is the grid's first point
        table = TableNoise({4: (0.003, 0.0), 2: (0.004, 0.0)})
        result = sweep([4, 2], [0.01, 0.1, 0.2], table, PhysicalParams(mu=0.05))
        self.assert_rules(result)
        assert result.optimum is result.grid[0]
        assert result.baseline_d2 is result.grid[3]

    @settings(max_examples=150, deadline=None)
    @given(case=_table_sweeps())
    def test_table_sweeps(self, case):
        try:
            result = sweep(*case)
        except InvalidArgumentError:
            assume(False)
        self.assert_rules(result)


# (d, Q, mu, V) at the ends of each input's range, as Python and NumPy scalars
_EDGE_POINTS = [
    (2, 0.0, 0.05, 0.99),
    (2, 1.0, 0.05, 0.99),
    (2, 0.04, 0.1, 0.0),
    (2, 0.04, 0.1, 1.0),
    (4, 0.0, 1e-6, 1.0),
    (4, 1 / 3, 0.3, 0.0),
    (8, 0.004, 0.05, 0.99),
    (16, 1 / 15, 2.0, 0.5),
    (32, 0.0, 0.05, 0.0),
    (np.int64(8), np.float64(0.004), np.float64(0.05), np.float64(0.99)),
    (3, np.float64(0.5), np.float64(1e-6), np.float64(1.0)),
]


def _sweep_fractions(d, q, v, mus):
    """The secure fractions of a one-dimension sweep at (Q, V)."""
    grid = sweep([d], mus, TableNoise({d: (q, v)}), PhysicalParams(mu=0.05)).grid
    return [point.bits_per_detection for point in grid]


class TestSweepFractions:
    """Each secure fraction of a sweep equals the optimal-attack report at
    its point: compared with ``==`` or ``repr``, never within a tolerance."""

    @pytest.mark.parametrize("d,q,mu,v", _EDGE_POINTS)
    def test_edge_points_equal_optimal_reports(self, d, q, mu, v):
        mus = [mu, 1e-6, 0.05, 0.3, 2.0]
        expected = [eve_optimal_holevo(d, q, m, v).secure_fraction for m in mus]
        assert _sweep_fractions(d, q, v, mus) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        v=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        # 1-40 occupations drawn from a smaller pool, so values repeat
        mus=st.lists(st.floats(1e-9, 5.0), min_size=1, max_size=20).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
        ),
    )
    def test_repeated_occupations_equal_optimal_reports(self, d, q_share, v, mus):
        q = q_share / (d - 1)
        expected = [eve_optimal_holevo(d, q, m, v).secure_fraction for m in mus]
        assert repr(_sweep_fractions(d, q, v, mus)) == repr(expected)
        assert repr(_sweep_fractions(d, q, v, np.array(mus))) == repr(expected)

    @pytest.mark.parametrize("d,q,v", [(2, 0.04, 0.9), (8, 0.004, 0.99), (32, 0.001, 0.5)])
    def test_dense_grid_equals_optimal_reports(self, d, q, v):
        mus = np.linspace(1e-6, 5.0, 4001)
        expected = [eve_optimal_holevo(d, q, m, v).secure_fraction for m in mus.tolist()]
        assert _sweep_fractions(d, q, v, mus) == expected

    def test_domain_checked_before_any_occupation(self):
        with pytest.raises(InvalidArgumentError, match="Q="):
            _sweep_fractions(4, 0.5, 0.9, [math.nan])

    @pytest.mark.parametrize(
        "mus, shape",
        [(0.05, "()"), ([[0.05, 0.1]], "(1, 2)"), (np.full((2, 2), 0.05), "(2, 2)")],
    )
    def test_grid_must_be_one_dimensional(self, mus, shape):
        # a scalar grid used to end in a bare TypeError
        with pytest.raises(InvalidArgumentError) as exc:
            sweep([2, 4], mus, LinearNoise(0.004, 0.99), PhysicalParams(mu=0.05))
        assert str(exc.value) == (
            f"mus must be a 1-D sequence, got an array of shape {shape}"
        )


def _reference_threshold(d, mu, v):
    """The threshold bisection with its earlier predicate, one
    optimal-attack report per step."""
    if d < 2:
        raise InvalidArgumentError(f"d={d} must be >= 2")

    def keyed(e_total):
        return eve_optimal_holevo(d, e_total / (d - 1), mu, v).secure_fraction > 0.0

    e_hi = 1.0 - 1.0 / d
    if not keyed(0.0):
        raise NoThresholdError(
            f"no positive secure fraction at zero error for d={d}, mu={mu}, "
            f"visibility={v}"
        )
    lo, hi = 0.0, e_hi - 1e-12
    if keyed(hi):
        return hi
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if keyed(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _outcome(threshold, *args):
    """The threshold's repr, or the type and text of what it raised."""
    try:
        return repr(threshold(*args))
    except (InvalidArgumentError, NoThresholdError) as exc:
        return f"{type(exc).__name__}: {exc}"


_BAD_D = [1, 2.5]
_BAD_MU = [0.0, math.nan, math.inf]
_BAD_V = [-0.1, 1.1, math.nan]


class TestQberThresholdEqualsReference:
    """Every threshold, and every refusal, equals the reference bisection's
    bit for bit."""

    @staticmethod
    def assert_same(d, mu, v):
        expected = _outcome(_reference_threshold, d, mu, v)
        assert _outcome(qber_threshold, d, mu, v) == expected
        return expected

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_default_set(self, d):
        mu, v = THRESHOLD_CONVENTION["mu"], THRESHOLD_CONVENTION["visibility"]
        assert float(self.assert_same(d, mu, v)) > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 32),
        mu=st.one_of(st.sampled_from([1e-6, 0.5]), st.floats(1e-6, 0.5)),
        v=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_grid(self, d, mu, v):
        self.assert_same(d, mu, v)

    @pytest.mark.parametrize("d, mu, v", [(2, 1.0, 0.0), (4, 1e-6, 0.0), (16, 0.3, 0.2)])
    def test_no_threshold(self, d, mu, v):
        assert self.assert_same(d, mu, v).startswith("NoThresholdError: ")

    def test_early_return_at_upper_end(self, monkeypatch):
        # I_AB is 0 at the uniform error rate, so no real (d, mu, V) keys
        # at the upper end: both cores are made to report a key everywhere
        def keyed_everywhere(d, q, em, x, dq_terms):
            return 0.0, 0.0, 1.0

        monkeypatch.setattr("hdcow.rates._secure_core", keyed_everywhere)
        monkeypatch.setattr("hdcow.security._secure_core", keyed_everywhere)
        for d in (2, 3, 16):
            assert self.assert_same(d, 0.1, 0.9) == repr(1.0 - 1.0 / d - 1e-12)

    @pytest.mark.parametrize(
        "d, mu, v",
        [(d, 0.1, 0.9) for d in _BAD_D]
        + [(4, mu, 0.9) for mu in _BAD_MU]
        + [(4, 0.1, v) for v in _BAD_V]
        + [(d, mu, 0.9) for d in _BAD_D for mu in _BAD_MU]
        + [(d, 0.1, v) for d in _BAD_D for v in _BAD_V]
        + [(4, mu, v) for mu in _BAD_MU for v in _BAD_V],
    )
    def test_bad_inputs(self, d, mu, v):
        assert self.assert_same(d, mu, v).startswith("InvalidArgumentError: ")


class TestQberThreshold:
    def test_strictly_decreasing_in_dimension(self):
        mu, v = THRESHOLD_CONVENTION["mu"], THRESHOLD_CONVENTION["visibility"]
        per_slot = [qber_threshold(d, mu, v) / (d - 1) for d in (4, 8, 16)]
        assert per_slot[0] > per_slot[1] > per_slot[2]

    def test_non_finite_mu_rejected(self):
        # a NaN occupation used to give "no threshold" for every d
        with pytest.raises(InvalidArgumentError, match="mu=nan"):
            qber_threshold(4, math.nan, 0.9)

    def test_no_threshold_when_never_secure(self):
        with pytest.raises(NoThresholdError):
            qber_threshold(2, 1.0, 0.0)

    def test_tolerance(self):
        mu, v = THRESHOLD_CONVENTION["mu"], THRESHOLD_CONVENTION["visibility"]
        e_star = qber_threshold(2, mu, v)
        from hdcow.security import secure_fraction

        assert secure_fraction(2, e_star - 2e-4, mu, v) > 0.0
        assert secure_fraction(2, e_star + 2e-4, mu, v) == 0.0
