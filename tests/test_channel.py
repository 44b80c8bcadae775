import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdcow.channel import (
    ClickStream,
    DetectorState,
    MonitorTally,
    PhysicalParams,
    decode_frame,
    estimate_qber,
    estimate_visibility,
    monitor_tally,
    transmit_frame,
)
from hdcow.errors import InvalidArgumentError, UndefinedEstimateError
from hdcow.kernels import dead_time_filter
from hdcow.protocol import (
    Permutation,
    ProtocolParams,
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
        clicks = transmit_frame(np.zeros(4096, dtype=bool), params, np.random.default_rng(0))
        assert len(clicks.data_slots) == 0
        assert len(clicks.monitor_slots) == 0

    def test_occupied_click_probability_binomial(self):
        # p = 1 - exp(-xi*mu) with xi*mu = 0.01, checked within 3 sigma
        params = quiet_params(
            mu=0.05, xi=0.2, t_ch=1.0, f_mon=0.0, r_ext=0.0, p_dc=0.0, t_dead=0.0
        )
        n = 1_000_000
        clicks = transmit_frame(np.ones(n, dtype=bool), params, np.random.default_rng(7))
        p_expected = 1.0 - math.exp(-0.01)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert len(clicks.data_slots) / n == pytest.approx(p_expected, abs=3 * sigma)

    def test_deterministic_for_fixed_seed(self):
        params = quiet_params(mu=0.05)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        occ = np.random.default_rng(1).random(8192) < 0.25
        ca = transmit_frame(occ, params, rng_a)
        cb = transmit_frame(occ, params, rng_b)
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
            cs = transmit_frame(occ[:50_000], params, rng, state)
            all_clicks.append(cs.data_slots)
        slots = np.concatenate(all_clicks)
        assert (np.diff(slots) > dead).all()
        duration = 200_000 * params.tau
        assert len(slots) / duration <= 1.0 / params.t_dead

    def test_global_slot_numbering_continues_across_frames(self):
        params = PhysicalParams.noiseless()
        state = DetectorState()
        rng = np.random.default_rng(0)
        c1 = transmit_frame(np.array([True, False]), params, rng, state)
        c2 = transmit_frame(np.array([False, True]), params, rng, state)
        assert list(c1.data_slots) == [1]
        assert list(c2.data_slots) == [4]

    def test_dark_counts_applied_once_at_the_monitor(self):
        # no light reaches the monitor, so every slot clicks at p_dc
        params = quiet_params(mu=0.05, f_mon=0.0, p_dc=0.1, t_dead=0.0)
        occ = np.arange(400_000) % 2 == 0
        clicks = transmit_frame(occ, params, np.random.default_rng(11))
        hit = np.zeros(len(occ), dtype=bool)
        hit[clicks.monitor_slots - clicks.frame_start] = True
        sigma = math.sqrt(0.1 * 0.9 / 200_000)
        assert hit[occ].mean() == pytest.approx(0.1, abs=5 * sigma)
        assert hit[~occ].mean() == pytest.approx(0.1, abs=5 * sigma)


def dense_transmit(occ, params, u, state):
    """The per-slot model with one click probability per slot, the
    reference for ``transmit_frame``; ``u`` holds the frame's 2*L
    uniform variates, data detector first.  Every monitor slot gets the
    dark-count probability once."""
    length = len(occ)
    base = state.next_slot
    p_data = np.where(occ, params.p_click_occupied, params.p_click_empty)
    data, state.last_data_click = dead_time_filter(
        base + np.nonzero(u[:length] < p_data)[0], params.dead_slots, state.last_data_click
    )
    prev = np.concatenate(([state.prev_occupied], occ[:-1]))
    p_mon = np.full(length, params.p_dc)
    p_mon[occ & prev] = params.p_monitor_interfering
    p_mon[occ & ~prev] = params.p_monitor_noninterfering
    monitor, state.last_monitor_click = dead_time_filter(
        base + np.nonzero(u[length:] < p_mon)[0], params.dead_slots, state.last_monitor_click
    )
    state.prev_occupied = bool(occ[-1])
    state.next_slot = base + length
    return data, monitor


def dense_tally(occ, prev_occupied, clicks, params, last_click_before):
    """Per-slot masks and one dead window per click, the reference for
    ``monitor_tally``."""
    prev = np.concatenate(([prev_occupied], occ[:-1]))
    interfering, noninterfering = occ & prev, occ & ~prev
    live = np.ones(len(occ), dtype=bool)
    dead = params.dead_slots
    base = clicks.frame_start
    spill_end = last_click_before + dead - base + 1
    if spill_end > 0:
        live[: min(spill_end, len(occ))] = False
    for slot in clicks.monitor_slots:
        lo = slot - base + 1
        live[lo : lo + dead] = False
    local = clicks.monitor_slots - base
    return MonitorTally(
        n_int=int(interfering[local].sum()),
        exp_int=int((interfering & live).sum()),
        n_non=int(noninterfering[local].sum()),
        exp_non=int((noninterfering & live).sum()),
    )


@st.composite
def channel_runs(draw):
    """``(params, state, frames, seed)``: a few frames through one
    detector state, with bright pulses, a busy monitor and dead time."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the weak-pulse guard
        params = PhysicalParams(
            mu=draw(st.sampled_from([0.05, 1.0, 50.0]), label="mu"),
            t_ch=1.0,
            xi=1.0,
            t_dead=2e-9 * draw(st.integers(0, 40), label="dead_slots"),
            tau=2e-9,
            p_dc=draw(st.sampled_from([0.0, 0.01, 0.3]), label="p_dc"),
            r_ext=draw(st.sampled_from([0.0, 0.05]), label="r_ext"),
            f_mon=draw(st.sampled_from([0.0, 0.3, 0.9]), label="f_mon"),
            v_true=draw(st.sampled_from([0.0, 0.9, 1.0]), label="v_true"),
        )
    next_slot = draw(st.integers(1, 10**9), label="next_slot")
    before = st.one_of(st.just(None), st.integers(1, 60))
    gaps = [draw(before, label="last_data_gap"), draw(before, label="last_monitor_gap")]
    last = [-(1 << 62) if gap is None else next_slot - gap for gap in gaps]
    state = DetectorState(
        last_data_click=last[0],
        last_monitor_click=last[1],
        prev_occupied=draw(st.booleans(), label="prev_occupied"),
        next_slot=next_slot,
    )
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    occ_rng = np.random.default_rng(seed)
    frames = []
    for _ in range(draw(st.integers(1, 3), label="frames")):
        length = draw(st.integers(1, 400), label="length")
        density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="density")
        frames.append(occ_rng.random(length) < density)
    return params, state, frames, seed


class FixedUniforms:
    """Stands in for a generator whose one draw is the given uniforms."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self._u)
        return self._u.copy()


def slot_params(**kwargs) -> PhysicalParams:
    """A back-to-back link with a perfect detector and no dark counts or
    leakage, so each click probability is set by ``mu`` and ``f_mon``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the weak-pulse guard
        return PhysicalParams(**{"t_ch": 1.0, "xi": 1.0, "r_ext": 0.0, **kwargs})


class TestSlotModelReference:
    """``transmit_frame`` and ``monitor_tally`` work at the pulses, and
    skip what no click needs; the dense per-slot formulas above must
    give the same clicks and tallies."""

    @staticmethod
    def check_frame(occ, params, rng, u, state, ref_state):
        """Send ``occ`` through ``state`` and, with the uniforms ``u`` that
        ``rng`` draws, through the dense model at ``ref_state``."""
        prev_occupied, last_mon = state.prev_occupied, state.last_monitor_click
        clicks = transmit_frame(occ, params, rng, state)
        # the click record carries the state the frame started from
        assert (clicks.prev_occupied, clicks.last_monitor_click) == (prev_occupied, last_mon)
        data, monitor = dense_transmit(occ, params, u, ref_state)
        np.testing.assert_array_equal(clicks.data_slots, data)
        np.testing.assert_array_equal(clicks.monitor_slots, monitor)
        assert state == ref_state
        tally = monitor_tally(occ, clicks, params)
        assert tally == dense_tally(occ, prev_occupied, clicks, params, last_mon)
        return clicks, tally

    @settings(max_examples=300, deadline=None)
    @given(run=channel_runs())
    def test_matches_dense_per_slot_model(self, run):
        params, state, frames, seed = run
        ref_state = replace(state)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for occ in frames:
            self.check_frame(occ, params, rng, ref_rng.random(2 * len(occ)), state, ref_state)

    def test_no_pulse_under_either_monitor_probability(self):
        # 64 pulses in 512 slots, none next to another; every pulse's
        # monitor uniform sits at the larger probability, which is no click
        params = slot_params(mu=0.05, f_mon=0.3, v_true=0.9, t_dead=0.0)
        p_max = max(params.p_monitor_interfering, params.p_monitor_noninterfering)
        occ = np.zeros(512, dtype=bool)
        occ[::8] = True
        u = np.full(1024, 0.5)
        u[0] = 0.0  # one data click, on the first pulse
        u[512:][occ] = p_max
        state = DetectorState(next_slot=1001)
        clicks, tally = self.check_frame(
            occ, params, FixedUniforms(u), u, state, replace(state)
        )
        assert clicks.data_slots.tolist() == [1001]
        assert len(clicks.monitor_slots) == 0 and clicks.monitor_slots.dtype == np.int64
        assert tally == MonitorTally(exp_non=64)

    def test_interfering_class_likelier(self):
        # v_true = 0 doubles the interfering pulses' monitor probability
        # over the non-interfering ones'; between the two, only the
        # interfering pulses (local slots 1 and 4) click
        params = slot_params(mu=1.0, f_mon=0.3, v_true=0.0, t_dead=0.0)
        p_int, p_non = params.p_monitor_interfering, params.p_monitor_noninterfering
        assert p_non < p_int
        occ = np.array([True, True, False, True, True])
        u = np.concatenate((np.full(5, 0.99), np.full(5, (p_non + p_int) / 2)))
        state = DetectorState(next_slot=11)
        clicks, tally = self.check_frame(
            occ, params, FixedUniforms(u), u, state, replace(state)
        )
        assert clicks.monitor_slots.tolist() == [12, 15]
        assert tally == MonitorTally(n_int=2, exp_int=2, n_non=0, exp_non=2)

    @pytest.mark.parametrize(
        "last_monitor_click, exp_non",
        [
            (95, 1),  # blind through local slot 15: pulses 0, 10 and 15 are dead
            (80, 3),  # blind through local slot 0 alone
            (79, 4),  # blind until the slot before the frame: every pulse is live
        ],
    )
    def test_quiet_frame_near_monitor_dead_window(self, last_monitor_click, exp_non):
        # The frame starts at slot 100 and has no monitor click of its own;
        # the monitor's last click blinds it for the 20 slots after.  The
        # pulse at local slot 16 interferes and is live in every case.
        params = slot_params(mu=0.05, f_mon=0.3, v_true=0.9, t_dead=40e-9)
        assert params.dead_slots == 20
        occ = np.zeros(40, dtype=bool)
        occ[[0, 10, 15, 16, 30]] = True
        u = np.full(80, 0.5)
        state = DetectorState(last_monitor_click=last_monitor_click, next_slot=100)
        clicks, tally = self.check_frame(
            occ, params, FixedUniforms(u), u, state, replace(state)
        )
        assert len(clicks.monitor_slots) == 0
        assert tally == MonitorTally(n_int=0, exp_int=1, n_non=0, exp_non=exp_non)


class TestMonitorTallyClicks:
    @pytest.mark.parametrize("prev_occupied", [False, True])
    def test_only_clicks_on_the_frames_pulses_count(self, prev_occupied):
        # pulses at local slots 0, 2, 3; the first interferes when the
        # previous frame ended occupied, and clicks before or past the
        # frame count for neither class
        occ = np.array([True, False, True, True])
        clicks = ClickStream(
            np.zeros(0, dtype=np.int64), np.array([99, 100, 104]), frame_start=100,
            prev_occupied=prev_occupied, last_monitor_click=99,
        )
        tally = monitor_tally(occ, clicks, PhysicalParams.noiseless())
        if prev_occupied:
            assert tally == MonitorTally(n_int=1, exp_int=2, n_non=0, exp_non=1)
        else:
            assert tally == MonitorTally(n_int=0, exp_int=1, n_non=1, exp_non=2)


class TestEstimateQber:
    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(1, 3000),
        d=st.integers(2, 32),
        mismatch=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        as_arrays=st.booleans(),
    )
    def test_matches_mean_of_mismatch_mask(self, length, d, mismatch, seed, as_arrays):
        # the mismatch fraction as NumPy's mean of a bool mask, bit for bit
        rng = np.random.default_rng(seed)
        alice = rng.integers(1, d + 1, size=length)
        bob = np.where(rng.random(length) < mismatch, alice % d + 1, alice)
        e = float(np.mean(alice != bob))
        expected = (e / (d - 1), math.sqrt(e * (1.0 - e) / length) / (d - 1))
        if not as_arrays:
            alice, bob = alice.tolist(), bob.tolist()
        got = estimate_qber(alice, bob, d)
        assert got == expected
        assert all(type(x) is float for x in got)

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
        (map_,) = make_permutation(d * n, SeededByteSource(seed))
        sigma = Permutation(map_)
        slots = [map_[d * i + j - 1] for i, js in clicked.items() for j in js]
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
            decode_frame(params, Permutation(np.arange(1, 9)), clicks)
