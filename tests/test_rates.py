import math

import numpy as np
import pytest

from hdcow.channel import PhysicalParams
from hdcow.config import Config
from hdcow.errors import InvalidArgumentError, NoThresholdError
from hdcow.rates import (
    LinearNoise,
    TableNoise,
    detection_rate,
    qber_threshold,
    secure_rate,
    sweep,
    THRESHOLD_CONVENTION,
)


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
        return tuple(
            secure_rate(d, mu, noise.q(d), noise.v(d), phys)
            for d in dimensions
            for mu in mu_grid
        )

    def test_default_grid_equals_per_point_rates(self):
        # exact equality: the sweep and secure_rate share every formula
        c = Config()
        args = (c.protocol.dimensions, c.mu_grid(), c.noise_model(), c.physical_params())
        assert sweep(*args).grid == self.per_point(*args)

    def test_table_noise_edges_equal_per_point_rates(self):
        table = TableNoise({
            2: (0.0, 0.0),
            3: (0.5, 1.0),
            4: (1 / 3, 0.5),
            8: (np.float64(0.01), np.float64(0.97)),
            16: (0.0, 1.0),
        })
        args = ([2, 3, 4, 8, 16], np.linspace(1e-6, 0.5, 13), table,
                PhysicalParams(mu=0.05))
        assert sweep(*args).grid == self.per_point(*args)

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
