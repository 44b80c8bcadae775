import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hdcow.channel import (
    _GROUP,
    ClickStream,
    DetectorState,
    MonitorTally,
    PhysicalParams,
    _empty_hits,
    _group_table,
    decode_frame,
    estimate_qber,
    estimate_visibility,
    monitor_tally,
    transmit_frame,
)
from hdcow.errors import InvalidArgumentError, UndefinedEstimateError
from hdcow.kernels import dead_time_filter
from hdcow.protocol import Permutation, ProtocolParams, SeededByteSource, make_permutation


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


def train_of(occ) -> tuple[np.ndarray, int]:
    """The pulse slots and the slot count of the train whose bool
    occupancy is ``occ``, one frame per row and the rows back to back, or
    a single frame: the form the channel takes a train in.  The dense
    references below take the occupancy itself."""
    return occ.reshape(-1).nonzero()[0], occ.size


def one_frame(occ, params, rng, state=None) -> ClickStream:
    """The frame ``occ`` sent as a train of its own."""
    return transmit_frame(*train_of(occ), params, rng, state)


def tally_of(occ, clicks, prev_occupied, last_click, params) -> MonitorTally:
    """``monitor_tally`` of the train ``occ`` from its click record, with
    the state it started from: whether the slot before it was occupied,
    and the monitor's last click before it, counted from its first slot."""
    state = DetectorState(last_monitor_click=last_click, prev_occupied=prev_occupied)
    return monitor_tally(*train_of(occ), clicks.monitor_slots, state, params)


class TestTransmitFrame:
    def test_no_light_no_noise_means_no_clicks(self):
        params = quiet_params(
            mu=0.05, t_ch=1.0, p_dc=0.0, r_ext=0.0, f_mon=0.0, t_dead=0.0
        )
        clicks = one_frame(np.zeros(4096, dtype=bool), params, np.random.default_rng(0))
        assert len(clicks.data_slots) == 0
        assert len(clicks.monitor_slots) == 0

    def test_occupied_click_probability_binomial(self):
        # p = 1 - exp(-xi*mu) with xi*mu = 0.01, checked within 3 sigma
        params = quiet_params(
            mu=0.05, xi=0.2, t_ch=1.0, f_mon=0.0, r_ext=0.0, p_dc=0.0, t_dead=0.0
        )
        n = 1_000_000
        clicks = one_frame(np.ones(n, dtype=bool), params, np.random.default_rng(7))
        p_expected = 1.0 - math.exp(-0.01)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert len(clicks.data_slots) / n == pytest.approx(p_expected, abs=3 * sigma)

    def test_deterministic_for_fixed_seed(self):
        params = quiet_params(mu=0.05, p_dc=1e-3)
        occ = np.random.default_rng(1).random((4, 8192)) < 0.25
        a = transmit_frame(*train_of(occ), params, np.random.default_rng(5))
        b = transmit_frame(*train_of(occ), params, np.random.default_rng(5))
        assert np.array_equal(a.data_slots, b.data_slots)
        assert np.array_equal(a.monitor_slots, b.monitor_slots)

    def test_dead_time_invariant_and_rate_ceiling(self):
        params = quiet_params(mu=0.05, t_ch=1.0, xi=1.0, f_mon=0.0, t_dead=1e-7)
        dead = params.dead_slots
        assert dead == 50
        occ = np.ones((2, 50_000), dtype=bool)
        state = DetectorState()
        rng = np.random.default_rng(3)
        trains = [transmit_frame(*train_of(occ), params, rng, state) for _ in range(2)]
        slots = np.concatenate([train.data_slots + k * occ.size for k, train in enumerate(trains)])
        assert (np.diff(slots) > dead).all()
        duration = 200_000 * params.tau
        assert len(slots) / duration <= 1.0 / params.t_dead

    def test_slots_count_from_each_trains_first_slot(self):
        params = PhysicalParams.noiseless()
        state = DetectorState()
        rng = np.random.default_rng(0)
        c1 = transmit_frame(np.array([0, 3]), 4, params, rng, state)
        assert (state.last_data_click, state.prev_occupied) == (-1, True)
        c2 = transmit_frame(np.array([0]), 2, params, rng, state)
        assert [c.data_slots.tolist() for c in (c1, c2)] == [[0, 3], [0]]
        assert (state.last_data_click, state.prev_occupied) == (-2, False)

    def test_click_at_a_trains_end_blinds_the_next_trains_start(self):
        # Every pulse fires both detectors.  The click on train 1's last
        # slot blinds the dead_slots = 3 slots after it, train 2's first
        # three; the monitor's tally, carried the same way, counts them dead.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the weak-pulse guard
            params = PhysicalParams(
                mu=50.0, t_ch=1.0, xi=1.0, t_dead=2e-9 * 3, r_ext=0.0, f_mon=0.5, v_true=0.0
            )
        state, tallied = DetectorState(), DetectorState()
        rng = np.random.default_rng(0)
        end = np.zeros((1, 8), dtype=bool)
        end[0, -1] = True
        first = transmit_frame(*train_of(end), params, rng, state)
        monitor_tally(*train_of(end), first.monitor_slots, tallied, params)
        assert first.data_slots.tolist() == first.monitor_slots.tolist() == [7]
        assert (state.last_data_click, state.last_monitor_click) == (-1, -1)
        full = np.ones((1, 8), dtype=bool)
        second = transmit_frame(*train_of(full), params, rng, state)
        assert second.data_slots.tolist() == second.monitor_slots.tolist() == [3, 7]
        tally = monitor_tally(*train_of(full), second.monitor_slots, tallied, params)
        assert tally == MonitorTally(n_int=2, exp_int=2)
        assert tallied.last_monitor_click == state.last_monitor_click == -1

    def test_dark_counts_applied_once_at_the_monitor(self):
        # no light reaches the monitor, so every slot clicks at p_dc
        params = quiet_params(mu=0.05, f_mon=0.0, p_dc=0.1, t_dead=0.0)
        occ = np.arange(400_000) % 2 == 0
        clicks = one_frame(occ, params, np.random.default_rng(11))
        hit = np.zeros(len(occ), dtype=bool)
        hit[clicks.monitor_slots] = True
        sigma = math.sqrt(0.1 * 0.9 / 200_000)
        assert hit[occ].mean() == pytest.approx(0.1, abs=5 * sigma)
        assert hit[~occ].mean() == pytest.approx(0.1, abs=5 * sigma)

    @pytest.mark.parametrize(
        "pulses, slots",
        [([[0, 1]], 4), ([], 0), ([0], 0), ([-1, 2], 4), ([1, 4], 4), ([1, 1], 4), ([2, 1], 4)],
    )
    def test_train_must_be_increasing_pulses_within_its_slots(self, pulses, slots):
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            transmit_frame(
                np.array(pulses, dtype=np.int64), slots, PhysicalParams.noiseless(),
                np.random.default_rng(0),
            )

    def test_a_train_without_pulses_is_dark(self):
        params = quiet_params(mu=0.05, t_ch=1.0, p_dc=0.0, r_ext=0.0, t_dead=0.0)
        state = DetectorState(prev_occupied=True)
        no_pulse = np.zeros(0, dtype=np.int64)
        clicks = transmit_frame(no_pulse, 16, params, np.random.default_rng(0), state)
        assert len(clicks.data_slots) == len(clicks.monitor_slots) == 0
        assert not state.prev_occupied

    def test_train_equals_its_rows_sent_one_by_one(self):
        # Every pulse fires both detectors (the monitor's probabilities
        # are clipped to 1), so the clicks do not depend on the draws: a
        # train gives the clicks of its rows sent one by one, and its
        # tally is the sum of theirs.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the weak-pulse guard
            params = PhysicalParams(
                mu=50.0, t_ch=1.0, xi=1.0, t_dead=2e-9 * 6, r_ext=0.0, f_mon=0.5, v_true=0.0
            )
        occ = np.zeros((5, 8), dtype=bool)
        occ[0, [0, 7]] = True  # slot 0 is in the dead window of the click 5 slots before
        occ[1, [0, 1]] = True  # both in the window of slot 7, the end of row 0
        occ[3, [5]] = True  # row 2 is dark
        occ[4, [0]] = True  # in the window of slot 29, which row 3 clicked
        first = DetectorState(last_data_click=-103, last_monitor_click=-5, prev_occupied=True)
        state, ref_state = replace(first), replace(first)
        rng = np.random.default_rng(0)
        train = transmit_frame(*train_of(occ), params, rng, state)
        rows = [one_frame(row, params, rng, ref_state) for row in occ]
        assert state == ref_state
        for field in ("data_slots", "monitor_slots"):
            # each row's clicks count from its own first slot
            joined = np.concatenate([getattr(row, field) + 8 * k for k, row in enumerate(rows)])
            np.testing.assert_array_equal(getattr(train, field), joined)
            assert getattr(train, field).dtype == np.int64
        assert train.monitor_slots.tolist() == [7, 29]
        # each row starts from the state the row before left
        prev_occupied = [True, True, False, False, False]
        last_click = [-5, -1, -9, -17, -3]
        tally = MonitorTally()
        for frame, clicks, prev, last in zip(occ, rows, prev_occupied, last_click, strict=True):
            tally.add(tally_of(frame, clicks, prev, last, params))
        assert tally_of(occ, train, True, -5, params) == tally


def dense_transmit(occ, params, u, state):
    """The per-slot model with one click probability per slot, the
    reference for ``transmit_frame``; ``occ`` is one frame and ``u``
    holds its 2*L uniform variates, data detector first.  Every monitor
    slot gets the dark-count probability once."""
    length = len(occ)
    p_data = np.where(occ, params.p_click_occupied, params.p_click_empty)
    data, last_data = dead_time_filter(
        np.nonzero(u[:length] < p_data)[0], params.dead_slots, state.last_data_click
    )
    prev = np.concatenate(([state.prev_occupied], occ[:-1]))
    p_mon = np.full(length, params.p_dc)
    p_mon[occ & prev] = params.p_monitor_interfering
    p_mon[occ & ~prev] = params.p_monitor_noninterfering
    monitor, last_monitor = dead_time_filter(
        np.nonzero(u[length:] < p_mon)[0], params.dead_slots, state.last_monitor_click
    )
    # the next frame counts its slots, and the last clicks, from its first
    state.last_data_click, state.last_monitor_click = last_data - length, last_monitor - length
    state.prev_occupied = bool(occ[-1])
    return data, monitor


def dense_tally(occ, monitor, prev_occupied, last_click, params):
    """Per-slot masks and one dead window per click, the reference for
    ``monitor_tally``, with the same frame-local inputs: the monitor's
    clicks as 0-based slots of the frame ``occ``, whether the slot before
    it was occupied, and the monitor's last click before it, counted
    from its first slot."""
    prev = np.concatenate(([prev_occupied], occ[:-1]))
    interfering, noninterfering = occ & prev, occ & ~prev
    live = np.ones(len(occ), dtype=bool)
    dead = params.dead_slots
    spill_end = last_click + dead + 1
    if spill_end > 0:
        live[: min(spill_end, len(occ))] = False
    monitor = np.asarray(monitor, dtype=np.int64)
    for slot in monitor:
        live[slot + 1 : slot + 1 + dead] = False
    return MonitorTally(
        n_int=int(interfering[monitor].sum()),
        exp_int=int((interfering & live).sum()),
        n_non=int(noninterfering[monitor].sum()),
        exp_non=int((noninterfering & live).sum()),
    )


@st.composite
def channel_runs(draw, empty_slots_fire=True):
    """``(params, state, trains, seed)``: a few trains of a few frames each
    through one detector state, with bright pulses, a busy monitor and
    dead time.  Without ``empty_slots_fire`` there is no leakage and no
    dark count, so the draws are the pulses' alone."""
    noise = [0.0, 0.01, 0.3] if empty_slots_fire else [0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the weak-pulse guard
        params = PhysicalParams(
            mu=draw(st.sampled_from([0.05, 1.0, 50.0]), label="mu"),
            t_ch=1.0,
            xi=1.0,
            t_dead=2e-9 * draw(st.integers(0, 40), label="dead_slots"),
            p_dc=draw(st.sampled_from(noise), label="p_dc"),
            r_ext=draw(st.sampled_from([0.0, 0.05] if empty_slots_fire else [0.0]), label="r_ext"),
            f_mon=draw(st.sampled_from([0.0, 0.3, 0.9]), label="f_mon"),
            v_true=draw(st.sampled_from([0.0, 0.9, 1.0]), label="v_true"),
        )
    before = st.one_of(st.just(None), st.integers(1, 60))
    gaps = [draw(before, label="last_data_gap"), draw(before, label="last_monitor_gap")]
    last = [-(1 << 62) if gap is None else -gap for gap in gaps]
    state = DetectorState(
        last_data_click=last[0],
        last_monitor_click=last[1],
        prev_occupied=draw(st.booleans(), label="prev_occupied"),
    )
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    occ_rng = np.random.default_rng(seed)
    trains = []
    for _ in range(draw(st.integers(1, 3), label="trains")):
        shape = draw(st.integers(1, 4), label="frames"), draw(st.integers(1, 200), label="length")
        density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="density")
        trains.append(occ_rng.random(shape) < density)
    return params, state, trains, seed


class RecordingGenerator:
    """Draws from a generator and keeps each call's uniforms."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, size):
        u = self._rng.random(size)
        self.draws.append(u.copy())
        return u


class FixedUniforms:
    """Stands in for a generator whose one draw is the given uniforms."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self._u)
        return self._u.copy()


def dense_uniforms(occ, u):
    """The per-slot uniforms of each frame of the train ``occ`` that give
    the same clicks as the train's pulse uniforms ``u`` (data detector's
    first) when no empty slot can fire: each pulse's own, and 1.0, which
    is never below a probability, elsewhere."""
    pulses = occ.reshape(-1).nonzero()[0]
    assert len(u) == 2 * len(pulses)
    dense = np.ones((2, occ.size))
    dense[0, pulses], dense[1, pulses] = u[: len(pulses)], u[len(pulses) :]
    return np.concatenate(dense.reshape(2, *occ.shape), axis=1)  # row r: (data, monitor)


def slot_params(**kwargs) -> PhysicalParams:
    """A back-to-back link with a perfect detector and no dark counts or
    leakage, so each click probability is set by ``mu`` and ``f_mon``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the weak-pulse guard
        return PhysicalParams(**{"t_ch": 1.0, "xi": 1.0, "r_ext": 0.0, **kwargs})


def dense_train(occ, params, u, state):
    """``dense_transmit`` over each frame of the train ``occ`` in turn,
    with row k of ``u`` as frame k's uniforms; the clicks joined, as
    slots of the train."""
    length = occ.shape[1]
    rows = [
        dense_transmit(frame, params, frame_u, state) for frame, frame_u in zip(occ, u, strict=True)
    ]
    return tuple(
        np.concatenate([clicks + k * length for k, clicks in enumerate(slots)])
        for slots in zip(*rows)
    )


def rows_of(occ, train, prev_occupied, last_click):
    """The click record ``train`` of the train ``occ`` split into one
    record per frame, each with the state its frame started from:
    whether the slot before it was occupied and the monitor's last click
    before it, counted from the frame's first slot, as the frame's clicks
    are.  ``prev_occupied`` and ``last_click`` are the train's.  Returns
    ``(record, prev_occupied, last_click)`` per frame."""
    length = occ.shape[1]
    rows = []
    for k, frame in enumerate(occ):
        start = k * length
        data, monitor = (
            slots[(start <= slots) & (slots < start + length)] - start
            for slots in (train.data_slots, train.monitor_slots)
        )
        rows.append((ClickStream(data, monitor), prev_occupied, last_click))
        prev_occupied = bool(frame[-1])
        if len(monitor):
            last_click = int(monitor[-1])
        last_click -= length
    return rows


def check_rows(occ, train, params, start_state):
    """The structure every train's click record has, whatever the draws,
    and the train's monitor tally against the sum of the dense
    reference's tallies of its frames, which are returned."""
    flat = occ.reshape(-1)
    for slots, fires_empty, last in (
        (train.data_slots, params.p_click_empty > 0.0, start_state.last_data_click),
        (train.monitor_slots, params.p_dc > 0.0, start_state.last_monitor_click),
    ):
        assert slots.dtype == np.int64
        assert ((0 <= slots) & (slots < occ.size)).all()
        assert fires_empty or flat[slots].all()
        assert (np.diff(np.concatenate(([last], slots))) > params.dead_slots).all()
    prev_occupied, last_click = start_state.prev_occupied, start_state.last_monitor_click
    rows = rows_of(occ, train, prev_occupied, last_click)
    tallies = [
        dense_tally(frame, clicks.monitor_slots, prev, last, params)
        for frame, (clicks, prev, last) in zip(occ, rows, strict=True)
    ]
    total = MonitorTally()
    for tally in tallies:
        total.add(tally)
    assert tally_of(occ, train, prev_occupied, last_click, params) == total
    return tallies


class TestSlotModelReference:
    """``transmit_frame`` draws per pulse and per empty-slot event, and
    ``monitor_tally`` skips what no click needs; the dense per-slot
    model above is their reference.  Where no empty slot can fire, the
    pulses' uniforms are the dense model's at the pulses, so the clicks
    must be equal; otherwise the draws differ, and the click counts,
    dead-time losses and tallies must agree in distribution."""

    @staticmethod
    def check_train(occ, params, rng, u, state):
        """Send ``occ`` through ``state`` and, with the dense uniforms
        ``u`` (one row per frame), through the dense model from the same
        state; the clicks must be equal."""
        ref_state, start = replace(state), replace(state)
        train = transmit_frame(*train_of(occ), params, rng, state)
        data, monitor = dense_train(occ, params, u, ref_state)
        np.testing.assert_array_equal(train.data_slots, data)
        np.testing.assert_array_equal(train.monitor_slots, monitor)
        assert state == ref_state
        return train, check_rows(occ, train, params, start)

    @settings(max_examples=300, deadline=None)
    @given(run=channel_runs(empty_slots_fire=False))
    def test_matches_dense_model_on_the_pulse_draws(self, run):
        params, state, trains, seed = run
        ref_state = replace(state)
        rng = RecordingGenerator(seed)
        for occ in trains:
            start = replace(state)
            train = transmit_frame(*train_of(occ), params, rng, state)
            (u,) = rng.draws  # one call: a uniform per pulse and detector
            rng.draws.clear()
            data, monitor = dense_train(occ, params, dense_uniforms(occ, u), ref_state)
            np.testing.assert_array_equal(train.data_slots, data)
            np.testing.assert_array_equal(train.monitor_slots, monitor)
            assert state == ref_state
            check_rows(occ, train, params, start)

    @settings(max_examples=300, deadline=None)
    @given(run=channel_runs())
    def test_click_record_structure_and_tally(self, run):
        params, state, trains, seed = run
        rng = np.random.default_rng(seed)
        for occ in trains:
            start = replace(state)
            train = transmit_frame(*train_of(occ), params, rng, state)
            check_rows(occ, train, params, start)
            assert state.prev_occupied == bool(occ[-1, -1])
            # the sender's tally carries the monitor's state as the channel does
            tallied = replace(start)
            monitor_tally(*train_of(occ), train.monitor_slots, tallied, params)
            assert (tallied.prev_occupied, tallied.last_monitor_click) == (
                state.prev_occupied, state.last_monitor_click
            )

    def test_counts_match_dense_model_in_distribution(self, monkeypatch):
        # Leakage, dark counts on both detectors, dead time and both
        # monitor classes, over 3200 frames of 512 slots in trains of 8.
        # Per train, the clicks of each detector and slot class, the
        # candidates each dead-time filter drops and the monitor tally
        # are counted for both models, and each count is compared with
        # Welch's two-sample test; the seeds are fixed, so the p-values are too.
        params = slot_params(
            mu=0.05, f_mon=0.5, v_true=0.5, r_ext=0.05, p_dc=3e-3, t_dead=2e-9 * 20
        )
        occ = np.random.default_rng(0).random((400, 8, 512)) < 0.25
        lost = []  # candidates each filter call dropped: data, monitor, data, ...
        real_filter = dead_time_filter

        def counting_filter(candidates, dead_slots, last_click):
            kept, last = real_filter(candidates, dead_slots, last_click)
            lost.append(len(candidates) - len(kept))
            return kept, last

        monkeypatch.setattr("hdcow.channel.dead_time_filter", counting_filter)
        monkeypatch.setattr(sys.modules[__name__], "dead_time_filter", counting_filter)

        def sparse(train, state, rng):
            return transmit_frame(*train_of(train), params, rng, state)

        def dense(train, state, rng):
            u = [rng.random(2 * frame.size) for frame in train]
            return ClickStream(*dense_train(train, params, u, state))

        counts = {}
        for model, seed in ((sparse, 1), (dense, 2)):
            state, rng, per_train = DetectorState(), np.random.default_rng(seed), []
            for train in occ:
                start = replace(state)
                lost.clear()
                clicks = model(train, state, rng)
                per_train.append(self.counts(train, clicks, params, start, lost))
            counts[model.__name__] = np.array(per_train)
        totals = dict(zip(self.COUNTS, counts["sparse"].sum(axis=0)))
        assert min(totals.values()) > 300, totals
        for name, a, b in zip(self.COUNTS, counts["sparse"].T, counts["dense"].T):
            result = stats.ttest_ind(a, b, equal_var=False)
            assert result.pvalue > 1e-3, (name, a.sum(), b.sum(), result.pvalue)

    COUNTS = (
        "data at pulses", "data at empty slots", "monitor at interfering pulses",
        "monitor at other pulses", "monitor at empty slots", "data lost to dead time",
        "monitor lost to dead time", "interfering exposures", "non-interfering exposures",
    )

    @staticmethod
    def counts(train, clicks, params, start, lost):
        """The ``COUNTS`` of one train's click record."""
        flat = train.reshape(-1)
        prev = np.concatenate(([start.prev_occupied], flat[:-1]))
        data, monitor = clicks.data_slots, clicks.monitor_slots
        tally = tally_of(train, clicks, start.prev_occupied, start.last_monitor_click, params)
        assert (tally.n_int, tally.n_non) == (
            np.count_nonzero(flat[monitor] & prev[monitor]),
            np.count_nonzero(flat[monitor] & ~prev[monitor]),
        )
        return (
            np.count_nonzero(flat[data]), np.count_nonzero(~flat[data]), tally.n_int,
            tally.n_non, np.count_nonzero(~flat[monitor]), sum(lost[0::2]), sum(lost[1::2]),
            tally.exp_int, tally.exp_non,
        )

    def test_no_pulse_under_either_monitor_probability(self):
        # 64 pulses in 512 slots, none next to another; every pulse's
        # monitor uniform sits at the larger probability, which is no click
        params = slot_params(mu=0.05, f_mon=0.3, v_true=0.9, t_dead=0.0)
        p_max = max(params.p_monitor_interfering, params.p_monitor_noninterfering)
        occ = np.zeros((1, 512), dtype=bool)
        occ[0, ::8] = True
        u = np.full(128, 0.5)
        u[0] = 0.0  # one data click, on the first pulse
        u[64:] = p_max
        clicks, (tally,) = self.check_train(
            occ, params, FixedUniforms(u), dense_uniforms(occ, u), DetectorState()
        )
        assert clicks.data_slots.tolist() == [0]
        assert len(clicks.monitor_slots) == 0 and clicks.monitor_slots.dtype == np.int64
        assert tally == MonitorTally(exp_non=64)

    def test_interfering_class_likelier(self):
        # v_true = 0 doubles the interfering pulses' monitor probability
        # over the non-interfering ones'; between the two, only the
        # interfering pulses (local slots 1 and 4) click
        params = slot_params(mu=1.0, f_mon=0.3, v_true=0.0, t_dead=0.0)
        p_int, p_non = params.p_monitor_interfering, params.p_monitor_noninterfering
        assert p_non < p_int
        occ = np.array([[True, True, False, True, True]])
        u = np.concatenate((np.full(4, 0.99), np.full(4, (p_non + p_int) / 2)))
        clicks, (tally,) = self.check_train(
            occ, params, FixedUniforms(u), dense_uniforms(occ, u), DetectorState()
        )
        assert clicks.monitor_slots.tolist() == [1, 4]
        assert tally == MonitorTally(n_int=2, exp_int=2, n_non=0, exp_non=2)

    def test_interference_across_a_row_boundary(self):
        # Row 1's first pulse follows row 0's last slot, a pulse, so it
        # interferes; row 2's follows an empty slot.  Only interfering
        # pulses are below their monitor probability.
        params = slot_params(mu=1.0, f_mon=0.3, v_true=0.0, t_dead=0.0)
        p_int, p_non = params.p_monitor_interfering, params.p_monitor_noninterfering
        occ = np.array([[False, False, True], [True, False, False], [True, False, False]])
        u = np.concatenate((np.full(3, 0.99), np.full(3, (p_non + p_int) / 2)))
        train, tallies = self.check_train(
            occ, params, FixedUniforms(u), dense_uniforms(occ, u), DetectorState()
        )
        assert train.monitor_slots.tolist() == [3]
        assert tallies == [
            MonitorTally(exp_non=1), MonitorTally(n_int=1, exp_int=1), MonitorTally(exp_non=1)
        ]

    @pytest.mark.parametrize(
        "last_monitor_click, exp_non",
        [
            (-5, 1),  # blind through slot 15: pulses 0, 10 and 15 are dead
            (-20, 3),  # blind through slot 0 alone
            (-21, 4),  # blind until the slot before the frame: every pulse is live
        ],
    )
    def test_quiet_frame_near_monitor_dead_window(self, last_monitor_click, exp_non):
        # The frame has no monitor click of its own; the monitor's last
        # click blinds the 20 slots after it.  The
        # pulse at local slot 16 interferes and is live in every case.
        params = slot_params(mu=0.05, f_mon=0.3, v_true=0.9, t_dead=40e-9)
        assert params.dead_slots == 20
        occ = np.zeros((1, 40), dtype=bool)
        occ[0, [0, 10, 15, 16, 30]] = True
        u = np.full(10, 0.5)
        state = DetectorState(last_monitor_click=last_monitor_click)
        clicks, (tally,) = self.check_train(
            occ, params, FixedUniforms(u), dense_uniforms(occ, u), state
        )
        assert len(clicks.monitor_slots) == 0
        assert tally == MonitorTally(n_int=0, exp_int=1, n_non=0, exp_non=exp_non)


class TestEmptyHits:
    """The empty slots' events are drawn a group of ``_GROUP`` at a time;
    each empty slot must still fire independently with probability p."""

    @pytest.mark.parametrize(
        "p, calls",
        [(1.4e-5, 40_000), (1e-3, 1_000), (0.05, 100), (0.5, 50), (0.9, 50)],
    )
    def test_binomial_count_and_uniform_placement(self, p, calls):
        # 10,000 slots with 1,250 pulses, so 8,750 empty slots: 136 full
        # groups and one of 46 padded to 64.
        rng = np.random.default_rng(17)
        occ = np.zeros(10_000, dtype=bool)
        occ[rng.choice(10_000, 1_250, replace=False)] = True
        pulses = occ.nonzero()[0]
        empties = (~occ).nonzero()[0]
        per_call, at = [], np.zeros(len(empties), dtype=np.int64)
        for _ in range(calls):
            hits = _empty_hits(pulses, len(occ), p, rng)
            assert hits.dtype == np.int64 and (np.diff(hits) > 0).all()
            assert not occ[hits].any()
            per_call.append(len(hits))
            at[empties.searchsorted(hits)] += 1
        total, trials = sum(per_call), calls * len(empties)
        assert stats.binomtest(total, trials, p).pvalue > 1e-3
        # each empty slot's share of the events: uniform over the offset
        # within a group, over the groups, and over the padded last group
        index = np.arange(len(empties))
        for key in (index % _GROUP, index // _GROUP):
            observed = np.bincount(key, weights=at)
            expected = np.bincount(key) * (total / len(empties))
            assert stats.chisquare(observed, expected).pvalue > 1e-3, key
        # independence: the spread of the per-call counts is binomial
        counts = np.array(per_call)
        dispersion = ((counts - len(empties) * p) ** 2).sum() / (len(empties) * p * (1 - p))
        assert stats.chi2(calls).sf(dispersion) > 1e-3
        assert stats.chi2(calls).cdf(dispersion) > 1e-3

    @pytest.mark.parametrize("pulses", [[], [0, 1, 5], list(range(10))])
    def test_no_draw_without_events_and_every_slot_at_certainty(self, pulses):
        pulses = np.array(pulses, dtype=np.int64)
        rng = RecordingGenerator(0)
        assert _empty_hits(pulses, 10, 0.0, rng).tolist() == []
        everything = _empty_hits(pulses, 10, 1.0, rng)
        assert everything.tolist() == sorted(set(range(10)) - set(pulses.tolist()))
        assert rng.draws == []

    def test_group_table_from_math(self):
        p = 1e-3
        any_hit, cdf = _group_table(p)
        assert any_hit == -math.expm1(_GROUP * math.log1p(-p))
        assert len(cdf) == _GROUP - 1 and (np.diff(cdf) > 0).all() and cdf[-1] < 1.0
        assert cdf[0] == pytest.approx(p / any_hit, rel=1e-12)
        assert not cdf.flags.writeable


class TestMonitorTallyClicks:
    @pytest.mark.parametrize("prev_occupied", [False, True])
    def test_only_clicks_on_the_trains_pulses_count(self, prev_occupied):
        # pulses at slots 0, 2, 3; the first interferes when the previous
        # train ended occupied, and the clicks on the empty slot 1 and on
        # slot 4, after the last pulse, like the one before the train,
        # count for neither class
        occ = np.array([True, False, True, True, False])
        state = DetectorState(last_monitor_click=-1, prev_occupied=prev_occupied)
        clicks = np.array([0, 1, 4])
        tally = monitor_tally(*train_of(occ), clicks, state, PhysicalParams.noiseless())
        if prev_occupied:
            assert tally == MonitorTally(n_int=1, exp_int=2, n_non=0, exp_non=1)
        else:
            assert tally == MonitorTally(n_int=0, exp_int=1, n_non=1, exp_non=2)
        assert (state.prev_occupied, state.last_monitor_click) == (False, -1)

    def test_a_train_without_pulses_tallies_nothing(self):
        # its dark counts are no exposure and of neither class
        state = DetectorState(last_monitor_click=-1, prev_occupied=True)
        no_pulse = np.zeros(0, dtype=np.int64)
        tally = monitor_tally(no_pulse, 6, np.array([0, 5]), state, PhysicalParams.noiseless())
        assert tally == MonitorTally()
        assert (state.prev_occupied, state.last_monitor_click) == (False, -1)


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


def click_stream(slots):
    """Data clicks at the given 1-based slots of a frame."""
    data = np.sort(np.asarray(slots, dtype=np.int64)) - 1
    return ClickStream(data, np.zeros(0, dtype=np.int64))


def pairs(entries) -> tuple:
    """A report's entries, a ``(k, 2)`` int64 array of qudit and symbol
    columns, as a tuple of ``(i, j)`` pairs of Python ints."""
    assert entries.dtype == np.int64 and entries.ndim == 2 and entries.shape[1] == 2
    return tuple(map(tuple, entries.tolist()))


def decode_click(params, sigma, t):
    """The qudit and symbol ``(i, j)`` of a click at the 1-based local
    slot ``t``, by ``sigma^{-1}(t) = d*i + j``."""
    u = int(sigma.inverse_map[t - 1])
    i = (u - 1) // params.d
    return i, u - i * params.d


def decode_per_click(params, sigma, clicks):
    """Entries decoded one click at a time, dropping a qudit seen twice
    or named by a monitor click."""
    seen = {}
    for t in clicks.data_slots + 1:
        i, j = decode_click(params, sigma, int(t))
        seen[i] = j if i not in seen else None
    for t in clicks.monitor_slots + 1:
        seen[decode_click(params, sigma, int(t))[0]] = None
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
    @given(frame=clicked_frames())
    @example(frame=(4, 8, 0, {}))
    @example(frame=(4, 8, 1, {0: {1, 2}, 5: {1, 2, 3, 4}}))
    def test_matches_per_click_decode(self, frame):
        d, n, seed, clicked = frame
        params = ProtocolParams(d=d, n=n)
        (map_,) = make_permutation(d * n, SeededByteSource(seed))
        sigma = Permutation(map_)
        slots = [map_[d * i + j - 1] for i, js in clicked.items() for j in js]
        clicks = click_stream(slots)
        entries = pairs(decode_frame(params, sigma, clicks).entries)
        assert entries == decode_per_click(params, sigma, clicks)
        assert {i for i, _ in entries} == {i for i, js in clicked.items() if len(js) == 1}

    @pytest.mark.parametrize(
        "d, n, map_, slot, entry",
        [
            (2, 2, [1, 2, 3, 4], 4, (1, 2)),
            (4, 1, [1, 2, 3, 4], 3, (0, 3)),
            (2, 2, [3, 4, 1, 2], 2, (1, 2)),
        ],
    )
    def test_single_click_examples(self, d, n, map_, slot, entry):
        params = ProtocolParams(d=d, n=n)
        sigma = Permutation(np.array(map_))
        assert decode_click(params, sigma, slot) == entry
        clicks = click_stream([slot])
        assert pairs(decode_frame(params, sigma, clicks).entries) == (entry,)

    @pytest.mark.parametrize("slot", [0, 9])
    def test_click_outside_frame_rejected(self, slot):
        params = ProtocolParams(d=2, n=4)
        clicks = click_stream([1, slot])
        with pytest.raises(InvalidArgumentError, match="outside the train"):
            decode_frame(params, Permutation(np.arange(1, 9)), clicks)

    @pytest.mark.parametrize("length", [6, 10])
    def test_permutation_of_another_length_rejected(self, length):
        params = ProtocolParams(d=2, n=4)
        with pytest.raises(InvalidArgumentError, match=f"permutation length {length} != d\\*n=8"):
            decode_frame(params, Permutation(np.arange(1, length + 1)), click_stream([1]))

    @pytest.mark.parametrize("data", [[0], []])
    @pytest.mark.parametrize("slot", [-1, 8])
    def test_monitor_click_outside_frame_rejected(self, data, slot):
        # with a data click or without one: a train with no data click
        # went unchecked, and the sender then refused the report instead
        params = ProtocolParams(d=2, n=4)
        clicks = ClickStream(np.array(data, dtype=np.int64), np.array([slot]))
        with pytest.raises(InvalidArgumentError, match=r"outside the train's slots 0\.\.7"):
            decode_frame(params, Permutation(np.arange(1, 9)), clicks)

    @pytest.mark.parametrize("monitor", [[0, 7], []])
    def test_monitor_clicks_alone_keep_nothing(self, monitor):
        # with no click at all, the train is skipped before any decoding
        params = ProtocolParams(d=2, n=4)
        clicks = ClickStream(np.zeros(0, dtype=np.int64), np.array(monitor, dtype=np.int64))
        assert pairs(decode_frame(params, Permutation(np.arange(1, 9)), clicks).entries) == ()


@st.composite
def clicked_trains(draw):
    """``(d, n, occ, maps, clicks, prev_occupied, last_click, params)``:
    a train of 1 to 4 frames, its blocks' permutations, a click record
    with data and monitor clicks anywhere in the train, each frame's first and last slot among the likelier, the
    state the train starts from (``last_click`` counted from its first
    slot), and a monitor dead time of up to two frames, so that a
    click's dead window can run into the next frame."""
    d = draw(st.integers(2, 8), label="d")
    n = draw(st.integers(1, 8), label="n")
    rows = draw(st.integers(1, 4), label="rows")
    length = d * n
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    density = draw(st.sampled_from([0.1, 0.5, 1.0]), label="density")
    occ = np.random.default_rng(seed).random((rows, length)) < density
    maps = make_permutation(length, SeededByteSource(seed), rows)
    edges = sorted({k * length + e for k in range(rows) for e in (0, length - 1)})
    slots = st.one_of(st.sampled_from(edges), st.integers(0, rows * length - 1))
    data, monitor = (
        np.array(sorted(draw(st.sets(slots, max_size=3 * n), label=name)), dtype=np.int64)
        for name in ("data", "monitor")
    )
    gap = draw(st.one_of(st.none(), st.integers(1, 3 * length)), label="last_monitor_gap")
    clicks = ClickStream(data, monitor)
    prev_occupied = draw(st.booleans(), label="prev_occupied")
    last_click = -(1 << 62) if gap is None else -gap
    dead_slots = draw(st.integers(0, 2 * length), label="dead_slots")
    params = slot_params(mu=0.05, t_dead=2e-9 * dead_slots)
    return d, n, occ, maps, clicks, prev_occupied, last_click, params


def boundary_train():
    """Three frames of d=2, n=2, every slot a pulse, under the identity:
    data clicks on the last slot of frame 0 and the first of frame 1,
    and a monitor click on the last slot of frame 0 whose three-slot dead
    window covers frame 1's first three slots."""
    occ = np.ones((3, 4), dtype=bool)
    maps = np.tile(np.arange(1, 5), (3, 1))
    clicks = ClickStream(np.array([3, 4]), np.array([3]))
    return 2, 2, occ, maps, clicks, True, -(1 << 62), slot_params(mu=0.05, t_dead=2e-9 * 3)


class TestTrainAsItsFrames:
    """A train is decoded and tallied in one pass.  The sifted keys and
    the estimates of a session equal those of a block-by-block exchange
    because the train's results equal its frames' results, joined."""

    @settings(max_examples=300, deadline=None)
    @given(train=clicked_trains())
    @example(train=boundary_train())
    def test_decode_and_tally_equal_the_frames_joined(self, train):
        d, n, occ, maps, clicks, prev_occupied, last_click, params = train
        proto = ProtocolParams(d=d, n=n)
        entries, tally = [], MonitorTally()
        rows = rows_of(occ, clicks, prev_occupied, last_click)
        for k, (frame, (row, prev, last), map_) in enumerate(zip(occ, rows, maps, strict=True)):
            entries += [(k * n + i, j) for i, j in decode_per_click(proto, Permutation(map_), row)]
            tally.add(dense_tally(frame, row.monitor_slots, prev, last, params))
        assert pairs(decode_frame(proto, Permutation(maps), clicks).entries) == tuple(entries)
        assert tally_of(occ, clicks, prev_occupied, last_click, params) == tally

    def test_boundary_train(self):
        # frame 1's first pulse is dead, and the click on frame 0's last
        # pulse, which follows a pulse, counts as interfering; it names
        # qudit 1, whose data click is dropped with it
        d, n, occ, maps, clicks, prev_occupied, last_click, params = boundary_train()
        proto = ProtocolParams(d=d, n=n)
        assert pairs(decode_frame(proto, Permutation(maps), clicks).entries) == ((2, 1),)
        tally = tally_of(occ, clicks, prev_occupied, last_click, params)
        assert tally == MonitorTally(n_int=1, exp_int=9)
