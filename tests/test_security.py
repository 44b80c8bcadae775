import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcow.errors import InvalidArgumentError
from hdcow.security import (
    SecurityReport,
    _each,
    entropy_term,
    eve_optimal_holevo,
    holevo_ae,
    holevo_be,
    holevo_oracle,
    mutual_info_ab,
    report_at,
    secure_fraction,
    x_interval,
)


class TestEntropyTerm:
    @pytest.mark.parametrize("p,expected", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)])
    def test_values(self, p, expected):
        assert entropy_term(p) == pytest.approx(expected, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            entropy_term(-1e-9)

    def test_vectorized(self):
        out = entropy_term(np.array([0.0, 0.5, 1.0]))
        assert out == pytest.approx([0.0, 0.5, 0.0])

    @settings(max_examples=500, deadline=None)
    @given(
        p=st.one_of(
            st.sampled_from(
                [0, 1, 0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, math.inf]
            ),
            st.floats(0.0, 2.2250738585072014e-308),
            st.floats(0.0, 1.0),
        )
    )
    def test_scalar_path_matches_array_path(self, p):
        scalar = entropy_term(p)
        assert type(scalar) is float
        # both paths take log2 from math, so they agree bit for bit; repr
        # also tells -0.0 (at p = 1) from 0.0
        assert repr(entropy_term(np.array([p])).tolist()) == repr([scalar])
        assert type(entropy_term(np.float64(p))) is float

    def test_array_path_equals_scalar_path_on_many_values(self):
        # NumPy's own log2 differs from math's in the last bit for about
        # one value in 10^4 here, which a few hundred examples rarely hit
        p = np.random.default_rng(5).random(100_000)
        p[:3] = (0.0, 1.0, 0.5)
        expected = [entropy_term(v) for v in p.tolist()]
        assert repr(entropy_term(p).tolist()) == repr(expected)
        assert repr(entropy_term(p.reshape(100, 1000)).ravel().tolist()) == repr(expected)

    @settings(max_examples=100, deadline=None)
    @given(p=st.floats(-1e300, -5e-324))
    def test_negative_rejected_on_both_paths(self, p):
        with pytest.raises(InvalidArgumentError):
            entropy_term(p)
        with pytest.raises(InvalidArgumentError):
            entropy_term(np.array([0.5, p]))

    def test_nan_rejected_on_both_paths(self):
        # an entropy of NaN is not 0
        with pytest.raises(InvalidArgumentError):
            entropy_term(math.nan)
        with pytest.raises(InvalidArgumentError):
            entropy_term(np.float64("nan"))
        with pytest.raises(InvalidArgumentError):
            entropy_term(np.array([0.5, math.nan]))

    @staticmethod
    def edge_grid():
        """A (5, 120) grid of values from 5e-324 to about 630, with 0.0,
        -0.0, 1.0, 5e-324 and inf in each row."""
        rng = np.random.default_rng(11)
        a = np.concatenate([rng.random(300), 10.0 ** rng.uniform(-323, 2.8, 300)])
        a = rng.permutation(a).reshape(5, 120)
        a[:, :5] = (0.0, -0.0, 1.0, 5e-324, math.inf)
        return a

    @pytest.mark.parametrize("fn", [math.exp, math.sqrt, math.log2])
    def test_each_equals_scalar_math_on_a_grid(self, fn):
        a = self.edge_grid()
        if fn is math.log2:
            # math.log2(0.0) raises, and so does the pass over the grid
            with pytest.raises(ValueError):
                _each(fn, a)
            a = np.where(a == 0.0, 1.0, a)
        out = _each(fn, a)
        assert out.shape == a.shape and out.dtype == np.float64
        assert repr(out.ravel().tolist()) == repr([fn(v) for v in a.ravel().tolist()])

    def test_grid_equals_scalar_path_with_edge_values(self):
        a = self.edge_grid()
        out = entropy_term(a)
        assert out.shape == a.shape
        expected = [entropy_term(v) for v in a.ravel().tolist()]
        assert repr(out.ravel().tolist()) == repr(expected)

    @pytest.mark.parametrize("bad", [-5e-324, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("at", [0, 5, 599])
    def test_negative_or_nan_in_a_grid_rejected(self, bad, at):
        a = self.edge_grid()
        a.ravel()[at] = bad
        with pytest.raises(
            InvalidArgumentError,
            match=r"^entropy_term requires every p >= 0 \(no NaN\)$",
        ):
            entropy_term(a)

    def test_concave_on_unit_interval(self):
        # second finite difference non-positive at 100 interior points
        h = 1e-5
        for p in np.linspace(0.01, 0.99, 100):
            second = entropy_term(p + h) - 2 * entropy_term(p) + entropy_term(p - h)
            assert second <= 1e-12


class TestXInterval:
    def test_unit_visibility_pins_x(self):
        lo, hi = x_interval(0.2, 1.0)
        g = math.exp(-0.1)
        assert lo == pytest.approx(g, abs=1e-12)
        assert hi == pytest.approx(g, abs=1e-12)

    def test_vanishing_occupation_pins_x_to_sqrt_v(self):
        lo, hi = x_interval(1e-12, 0.81)
        assert lo == pytest.approx(0.9, abs=1e-5)
        assert hi == pytest.approx(0.9, abs=1e-5)

    def test_endpoints_realizable_interior_not_outside(self):
        # independent check of the geometry: a unit vector with overlap x
        # against v0 and sqrt(V) against vmu exists iff the Gram
        # determinant of the explicit 3-vector embedding is >= 0
        rng = np.random.default_rng(5)
        for _ in range(200):
            mu = rng.uniform(0.01, 0.8)
            v = rng.uniform(0.0, 1.0)
            lo, hi = x_interval(mu, v)
            g, w = math.exp(-mu / 2), math.sqrt(v)

            def det(x):
                return 1 + 2 * g * w * x - g * g - w * w - x * x

            assert det(lo) >= -1e-9
            assert det(hi) >= -1e-9
            assert det(0.5 * (lo + hi)) >= -1e-9
            if hi < 1.0 - 1e-6:
                assert det(hi + 1e-4) < det(hi)
            if lo > 1e-6:
                assert det(lo - 1e-4) < det(lo)

    def test_invalid_domain(self):
        with pytest.raises(InvalidArgumentError):
            x_interval(0.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            x_interval(0.1, 1.5)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, np.float64("nan")])
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda mu: x_interval(mu, 0.9),
            lambda mu: secure_fraction(4, 0.01, mu, 0.9),
            lambda mu: eve_optimal_holevo(4, 0.01, mu, 0.9),
            lambda mu: report_at(4, 0.01, mu, 0.5),
            lambda mu: holevo_ae(4, 0.01, mu, 0.5),
            lambda mu: holevo_be(4, 0.01, mu, 0.5),
        ],
        ids=["x_interval", "secure_fraction", "eve_optimal_holevo", "report_at", "holevo_ae",
             "holevo_be"],
    )
    def test_non_finite_mu_rejected(self, evaluate, mu):
        with pytest.raises(InvalidArgumentError, match="mu=.*finite"):
            evaluate(mu)


class TestClosedForms:
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 32])
    def test_no_error_perfect_overlap_leaks_nothing(self, d):
        assert holevo_ae(d, 0.0, 0.1, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert holevo_be(d, 0.0, 0.1, 1.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 32])
    def test_no_error_orthogonal_leaks_everything(self, d):
        assert holevo_ae(d, 0.0, 0.1, 0.0) == pytest.approx(math.log2(d), abs=1e-12)
        assert holevo_be(d, 0.0, 0.1, 0.0) == pytest.approx(math.log2(d), abs=1e-12)

    def test_receiver_bound_dominates_sender_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.choice([2, 3, 4, 8, 16]))
            q = rng.uniform(0, 1 / (d - 1))
            mu = rng.uniform(1e-3, 0.5)
            x = rng.uniform(0, 1)
            assert holevo_be(d, q, mu, x) >= holevo_ae(d, q, mu, x) - 1e-12

    def test_bounds_within_qudit_capacity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = int(rng.choice([2, 3, 4, 8, 16, 32]))
            q = rng.uniform(0, 1 / (d - 1))
            mu = rng.uniform(1e-4, 1.0)
            x = rng.uniform(0, 1)
            for chi in (holevo_ae(d, q, mu, x), holevo_be(d, q, mu, x)):
                assert 0.0 <= chi <= math.log2(d) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-6, 2.0),
        v=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_scalar_x_matches_array_x(self, d, q_share, mu, v, t):
        q = q_share / (d - 1)
        lo, hi = x_interval(mu, v)
        xs = np.array([lo, lo + t * (hi - lo), hi])
        for bound in (holevo_ae, holevo_be):
            on_array = bound(d, q, mu, xs)
            for x, expected in zip(xs.tolist(), on_array.tolist()):
                value = bound(d, q, mu, x)
                assert type(value) is float
                assert value == expected

    def test_domain_validation(self):
        with pytest.raises(InvalidArgumentError):
            holevo_ae(2, 1.5, 0.1, 0.5)
        with pytest.raises(InvalidArgumentError):
            holevo_be(4, 0.4, 0.1, 0.5)  # Q > 1/(d-1)


class TestOracle:
    def test_single_pure_state(self):
        assert holevo_oracle(2, 0.0, 0.3, 1.0) == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_two_orthogonal_states(self):
        assert holevo_oracle(2, 0.0, 0.1, 0.0) == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_matches_closed_form_d4(self):
        chi_ae, chi_be = holevo_oracle(4, 0.01, 0.05, 0.9)
        assert chi_ae == pytest.approx(holevo_ae(4, 0.01, 0.05, 0.9), abs=1e-8)
        assert chi_be == pytest.approx(holevo_be(4, 0.01, 0.05, 0.9), abs=1e-8)

    def test_matches_closed_form_d3(self):
        chi_ae, chi_be = holevo_oracle(3, 0.02, 0.1, 0.8)
        assert chi_ae == pytest.approx(holevo_ae(3, 0.02, 0.1, 0.8), abs=1e-8)
        assert chi_be == pytest.approx(holevo_be(3, 0.02, 0.1, 0.8), abs=1e-8)

    def test_large_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            holevo_oracle(5, 0.01, 0.1, 0.9)

    @pytest.mark.parametrize("x", [-1e-9, 1.0 + 1e-9, math.nan])
    def test_overlap_outside_unit_interval_rejected(self, x):
        with pytest.raises(InvalidArgumentError, match="x=.*outside"):
            holevo_oracle(2, 0.01, 0.1, x)


class TestDirectReconciliationSuffices:
    """chi_BE >= chi_AE: the adversary never learns less about the
    receiver's outcome than about the sender's symbol, so reverse
    reconciliation (I_AB - chi_BE) never beats direct reconciliation
    (I_AB - chi_AE), and no rate needs chi_BE."""

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-6, 2.0),
        x=st.floats(0.0, 1.0),
    )
    def test_oracle_receiver_bound_dominates(self, d, q_share, mu, x):
        chi_ae, chi_be = holevo_oracle(d, q_share / (d - 1), mu, x)
        assert chi_be >= chi_ae - 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-6, 1.0),
        v=st.floats(0.0, 1.0),
    )
    def test_closed_form_receiver_bound_dominates_at_optimum(self, d, q_share, mu, v):
        q = q_share / (d - 1)
        x_star = eve_optimal_holevo(d, q, mu, v).x_star
        assert holevo_be(d, q, mu, x_star) >= holevo_ae(d, q, mu, x_star)

    def test_report_carries_the_sender_bound_only(self):
        names = [field.name for field in dataclasses.fields(SecurityReport)]
        assert names == ["chi_ae", "secure_fraction", "x_star"]


class TestEveOptimal:
    def test_perfect_channel_leaks_nothing(self):
        report = eve_optimal_holevo(4, 0.0, 1e-9, 1.0)
        assert holevo_be(4, 0.0, 1e-9, report.x_star) == pytest.approx(0.0, abs=1e-6)
        assert report.x_star == pytest.approx(1.0, abs=1e-6)

    def test_unit_visibility_interval_is_a_point(self):
        report = eve_optimal_holevo(2, 0.04, 0.1, 1.0)
        assert report.x_star == pytest.approx(math.exp(-0.05), abs=1e-9)

    def test_grid_scan_matches_exhaustive_scan(self):
        d, q, mu, v = 2, 0.04, 0.1, 0.99
        report = eve_optimal_holevo(d, q, mu, v)
        lo, hi = x_interval(mu, v)
        xs = np.linspace(lo, hi, 1_000_001)
        brute = float(np.max(holevo_be(d, q, mu, xs)))
        assert holevo_be(d, q, mu, report.x_star) == pytest.approx(brute, abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-6, 2.0),
        v=st.floats(0.0, 1.0),
    )
    def test_no_admissible_overlap_beats_x_star(self, d, q_share, mu, v):
        q = q_share / (d - 1)
        report = eve_optimal_holevo(d, q, mu, v)
        lo, hi = x_interval(mu, v)
        assert report.x_star == lo
        xs = np.linspace(lo, hi, 2001)
        assert np.max(holevo_be(d, q, mu, xs)) <= holevo_be(d, q, mu, report.x_star) + 1e-12
        assert np.max(holevo_ae(d, q, mu, xs)) <= report.chi_ae + 1e-12

    def test_report_secure_fraction_consistent(self):
        report = eve_optimal_holevo(8, 0.004, 0.05, 0.99)
        assert report.secure_fraction == pytest.approx(
            mutual_info_ab(8, 0.004) - report.chi_ae, abs=1e-12
        )


class TestMutualInfo:
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_perfect_channel(self, d):
        assert mutual_info_ab(d, 0.0) == pytest.approx(math.log2(d))

    def test_fully_random_binary_channel(self):
        assert mutual_info_ab(2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_d4_reference_point(self):
        # cross-check against log2(d) - H(e) - e*log2(d-1), e = (d-1)Q
        d, q = 4, 0.01
        e = (d - 1) * q
        h = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        expected = math.log2(d) - h - e * math.log2(d - 1)
        assert mutual_info_ab(d, q) == pytest.approx(expected, abs=1e-12)
        assert mutual_info_ab(d, q) == pytest.approx(1.758, abs=5e-4)


class TestSecureFraction:
    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
    def test_perfect_channel_full_capacity(self, d):
        assert secure_fraction(d, 0.0, 1e-9, 1.0) == pytest.approx(
            math.log2(d), abs=1e-5
        )

    def test_non_increasing_in_q(self):
        values = [secure_fraction(8, q, 0.05, 0.99) for q in np.linspace(0, 0.05, 12)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_non_increasing_in_mu(self):
        values = [
            secure_fraction(8, 0.004, mu, 0.99) for mu in np.linspace(0.01, 0.4, 12)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-6, 2.0),
        visibilities=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
    )
    def test_non_decreasing_in_visibility(self, d, q_share, mu, visibilities):
        # x* = g*w - sqrt((1-g^2)(1-w^2)) rises with w = sqrt(V), and both
        # bounds fall as x rises, so a better monitor never costs key
        q = q_share / (d - 1)
        values = [secure_fraction(d, q, mu, v) for v in sorted(visibilities)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# Edge cases of the (d, Q, mu, V) domain: Q at both ends, V at both ends,
# d = 2, and NumPy scalars, which take the scalar path as floats do.
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


class TestRoutesAgree:
    """The shared core and the one-bound functions give bit-identical
    values: compared with ``==``, never within a tolerance."""

    @staticmethod
    def check_report(d, q, mu, x):
        report = report_at(d, q, mu, x)
        chi_ae = holevo_ae(d, q, mu, x)
        assert report.chi_ae == chi_ae
        assert report.secure_fraction == max(mutual_info_ab(d, q) - chi_ae, 0.0)
        assert report.x_star == x

    @pytest.mark.parametrize("d,q,mu,v", _EDGE_POINTS)
    def test_report_fields_match_single_bounds(self, d, q, mu, v):
        lo, hi = x_interval(mu, v)
        for x in (lo, 0.5 * (lo + hi), hi, 0.0, 1.0):
            self.check_report(d, q, mu, x)

    @pytest.mark.parametrize("d,q,mu,v", _EDGE_POINTS)
    def test_fractions_match_optimal_reports(self, d, q, mu, v):
        mus = [mu, 1e-6, 0.05, 0.3, 2.0]
        expected = [eve_optimal_holevo(d, q, m, v).secure_fraction for m in mus]
        assert [secure_fraction(d, q, m, v) for m in mus] == expected

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 64),
        q_share=st.floats(0.0, 1.0),
        mu=st.floats(1e-9, 5.0),
        v=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
    )
    def test_random_points_agree(self, d, q_share, mu, v, t):
        q = q_share / (d - 1)
        lo, hi = x_interval(mu, v)
        self.check_report(d, q, mu, lo + t * (hi - lo))
        report = eve_optimal_holevo(d, q, mu, v)
        self.check_report(d, q, mu, report.x_star)
