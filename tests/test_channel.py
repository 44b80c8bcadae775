import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdcow.channel import (
    ClickStream,
    DetectorState,
    PhysicalParams,
    decode_frame,
    estimate_qber,
    estimate_visibility,
    transmit_frame,
)
from hdcow.errors import InvalidArgumentError, UndefinedEstimateError
from hdcow.protocol import (
    Permutation,
    ProtocolParams,
    PulseFrame,
    SeededByteSource,
    decode_click,
    make_permutation,
)


def quiet_params(**kwargs) -> PhysicalParams:
    return PhysicalParams(**kwargs)


class TestPhysicalParams:
    def test_defaults_are_valid(self):
        p = quiet_params(mu=0.05)
        assert 0 < p.xi_eff < 1
        assert p.dead_slots == 2000

    def test_flux_guard_warns(self):
        with pytest.warns(UserWarning, match="weak-pulse"):
            quiet_params(mu=0.2, t_ch=1.0)

    def test_range_validation(self):
        with pytest.raises(InvalidArgumentError):
            quiet_params(mu=-0.1)
        with pytest.raises(InvalidArgumentError):
            quiet_params(mu=0.05, t_ch=0.0)
        with pytest.raises(InvalidArgumentError):
            quiet_params(mu=0.05, f_mon=1.0)

    @pytest.mark.parametrize(
        "field", ["mu", "t_ch", "xi", "t_dead", "tau", "p_dc", "r_ext", "f_mon", "v_true"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        kwargs = {"mu": 0.05, field: value}
        with pytest.raises(InvalidArgumentError, match=f"{field}=.*finite"):
            quiet_params(**kwargs)

    def test_target_qslot_round_trip(self):
        base = quiet_params(mu=0.05, t_ch=1.0, p_dc=0.0)
        for d in (2, 8, 32):
            tuned = base.with_target_qslot(0.004, d)
            assert tuned.implied_qslot(d) == pytest.approx(0.004, rel=1e-9)


class TestTransmitFrame:
    def test_no_light_no_noise_means_no_clicks(self):
        params = quiet_params(
            mu=0.05, t_ch=1.0, p_dc=0.0, r_ext=0.0, f_mon=0.0, t_dead=0.0
        )
        frame = PulseFrame(occupancy=np.zeros(4096, dtype=bool), mu=0.05)
        clicks = transmit_frame(frame, params, np.random.default_rng(0))
        assert len(clicks.data_slots) == 0
        assert len(clicks.monitor_slots) == 0

    def test_occupied_click_probability_binomial(self):
        # p = 1 - exp(-xi*mu) with xi*mu = 0.01, checked within 3 sigma
        params = quiet_params(
            mu=0.05, xi=0.2, t_ch=1.0, f_mon=0.0, r_ext=0.0, p_dc=0.0, t_dead=0.0
        )
        n = 1_000_000
        frame = PulseFrame(occupancy=np.ones(n, dtype=bool), mu=0.05)
        clicks = transmit_frame(frame, params, np.random.default_rng(7))
        p_expected = 1.0 - math.exp(-0.01)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert len(clicks.data_slots) / n == pytest.approx(p_expected, abs=3 * sigma)

    def test_deterministic_for_fixed_seed(self):
        params = quiet_params(mu=0.05)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        occ = np.random.default_rng(1).random(8192) < 0.25
        frame = PulseFrame(occupancy=occ, mu=0.05)
        ca = transmit_frame(frame, params, rng_a)
        cb = transmit_frame(frame, params, rng_b)
        assert np.array_equal(ca.data_slots, cb.data_slots)
        assert np.array_equal(ca.monitor_slots, cb.monitor_slots)

    def test_dead_time_invariant_and_rate_ceiling(self):
        params = quiet_params(mu=0.05, t_ch=1.0, xi=1.0, f_mon=0.0, t_dead=1e-7)
        dead = params.dead_slots
        assert dead == 50
        occ = np.ones(200_000, dtype=bool)
        state = DetectorState()
        rng = np.random.default_rng(3)
        all_clicks = []
        for _ in range(4):
            frame = PulseFrame(occupancy=occ[:50_000], mu=0.05)
            cs = transmit_frame(frame, params, rng, state)
            all_clicks.append(cs.data_slots)
        slots = np.concatenate(all_clicks)
        assert (np.diff(slots) > dead).all()
        duration = 200_000 * params.tau
        assert len(slots) / duration <= 1.0 / params.t_dead

    def test_global_slot_numbering_continues_across_frames(self):
        params = PhysicalParams.noiseless()
        state = DetectorState()
        rng = np.random.default_rng(0)
        f1 = PulseFrame(occupancy=np.array([True, False]), mu=50.0)
        f2 = PulseFrame(occupancy=np.array([False, True]), mu=50.0)
        c1 = transmit_frame(f1, params, rng, state)
        c2 = transmit_frame(f2, params, rng, state)
        assert list(c1.data_slots) == [1]
        assert list(c2.data_slots) == [4]


class TestEstimateQber:
    def test_identical_sequences(self):
        q, err = estimate_qber([1, 2, 3], [1, 2, 3], d=4)
        assert q == 0.0 and err == 0.0

    def test_binary_reference_point(self):
        alice = [1] * 1000
        bob = [2] * 40 + [1] * 960
        q, err = estimate_qber(alice, bob, d=2)
        assert q == pytest.approx(0.04)
        assert err == pytest.approx(0.0062, abs=2e-4)

    def test_empty_input_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            estimate_qber([], [], d=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            estimate_qber([1], [1, 2], d=2)


class TestEstimateVisibility:
    def test_dark_port_fully_dark(self):
        v, _ = estimate_visibility(0, 1000, 50, 1000)
        assert v == 1.0

    def test_inversion_fixed_point(self):
        v, _ = estimate_visibility(100, 1000, 50, 1000)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_missing_reference_rejected(self):
        with pytest.raises(UndefinedEstimateError):
            estimate_visibility(10, 1000, 0, 1000)

    def test_zero_counts_have_positive_stderr(self):
        _, err = estimate_visibility(0, 1000, 50, 1000)
        assert err > 0.0


def click_stream(slots, frame_start):
    """Data clicks at the given 1-based local slots of a frame."""
    data = frame_start - 1 + np.sort(np.asarray(slots, dtype=np.int64))
    return ClickStream(data, np.zeros(0, dtype=np.int64), frame_start)


def decode_per_click(params, sigma, clicks):
    """Entries decoded one click at a time, dropping a qudit seen twice."""
    seen = {}
    for t in clicks.data_slots - clicks.frame_start + 1:
        i, j = decode_click(params, sigma, int(t))
        seen[i] = j if i not in seen else None
    return tuple(sorted((i, j) for i, j in seen.items() if j is not None))


@st.composite
def clicked_frames(draw):
    """``(d, n, seed, clicked)``: ``clicked`` maps a qudit to the symbols
    whose slots clicked; with ``multi`` every clicked qudit has two or more."""
    d = draw(st.integers(2, 16), label="d")
    n = draw(st.integers(1, 32), label="n")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    multi = draw(st.booleans(), label="multi")
    symbols = st.sets(st.integers(1, d), min_size=2 if multi else 1, max_size=d)
    clicked = draw(st.dictionaries(st.integers(0, n - 1), symbols, max_size=n))
    return d, n, seed, clicked


class TestDecodeFrame:
    @settings(max_examples=200, deadline=None)
    @given(frame=clicked_frames(), frame_start=st.integers(1, 10**9))
    @example(frame=(4, 8, 0, {}), frame_start=1)
    @example(frame=(4, 8, 1, {0: {1, 2}, 5: {1, 2, 3, 4}}), frame_start=33)
    def test_matches_per_click_decode(self, frame, frame_start):
        d, n, seed, clicked = frame
        params = ProtocolParams(d=d, n=n, tau=2e-9)
        sigma = make_permutation(d * n, SeededByteSource(seed))
        slots = [sigma.apply(d * i + j) for i, js in clicked.items() for j in js]
        clicks = click_stream(slots, frame_start)
        entries = decode_frame(params, sigma, clicks).entries
        assert entries == decode_per_click(params, sigma, clicks)
        assert all(type(x) is int for entry in entries for x in entry)
        assert {i for i, _ in entries} == {i for i, js in clicked.items() if len(js) == 1}

    @pytest.mark.parametrize("slot", [0, 9])
    def test_click_outside_frame_rejected(self, slot):
        params = ProtocolParams(d=2, n=4, tau=2e-9)
        clicks = click_stream([1, slot], frame_start=100)
        with pytest.raises(InvalidArgumentError, match="outside the frame"):
            decode_frame(params, Permutation.identity(8), clicks)
