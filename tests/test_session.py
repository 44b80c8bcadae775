import gc
import hashlib
import io
import math
import re
import socket
import struct
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcow.channel import ClickStream, MonitorTally, PhysicalParams, decode_frame, monitor_tally
from hdcow.config import default_config, parse_config
from hdcow.errors import InvalidArgumentError, ProtocolError
from hdcow.protocol import ProtocolParams
from hdcow.session import (
    QueuePipe,
    _Alice,
    SessionSettings,
    SimulatedChannel,
    StreamDuplex,
    Transcript,
    run_alice,
    run_bob,
    run_session,
    validate_transcript,
)
from hdcow.wire import (
    _BATCH_SLOTS,
    MAGIC,
    VERSION,
    DetectionReportMsg,
    EstimateReport,
    PermutationReveal,
    SessionStart,
    encode_message,
    read_message,
)


def frames_12(rows):
    """The pulses and the slot count of a train of ``rows`` frames, each
    of block symbols (1, 2) under the identity permutation, d=2 and n=2."""
    return (np.array([0, 3]) + np.arange(0, 4 * rows, 4)[:, None]).reshape(-1), 4 * rows


REVEAL_0 = PermutationReveal(block_id=0, indices=(1, 2, 3, 4))


def whole(text):
    """A pattern that matches ``text``, all of it and nothing more."""
    return f"^{re.escape(text)}$"


def noiseless_settings(d=4, n=16, blocks=1):
    return SessionSettings(
        protocol=ProtocolParams(d=d, n=n),
        physical=PhysicalParams.noiseless(),
        blocks=blocks,
    )


class TestNoiselessSession:
    def test_single_block_full_agreement(self):
        alice, bob, transcript = run_session(noiseless_settings(), seed=3)
        assert alice.sifted_count == 16
        assert bob.sifted_count == 16
        assert alice.sifted == bob.sifted
        assert alice.q_hat == 0.0
        assert bob.q_hat == 0.0
        assert validate_transcript(transcript) == []

    def test_multi_block_agreement(self):
        alice, bob, transcript = run_session(
            noiseless_settings(d=8, n=32, blocks=12), seed=9
        )
        assert alice.sifted == bob.sifted
        assert alice.sifted_count == 12 * 32
        assert validate_transcript(transcript) == []

    def test_undefined_visibility_gives_no_secure_bits(self):
        # no monitor tap (f_mon=0), so the data cannot define V; at this
        # mu, V = 1 would give 1.5 secure bits per detection
        settings = SessionSettings(
            protocol=ProtocolParams(d=4, n=16),
            physical=replace(PhysicalParams.noiseless(), mu=0.1),
            blocks=10,
        )
        alice, bob, _ = run_session(settings, seed=3)
        assert alice.sifted_count > 0
        assert alice.q_hat == 0.0
        for summary in (alice, bob):
            assert math.isnan(summary.v_hat)
            assert summary.secure_bits_per_detection == 0.0
            assert summary.secure_bits_per_second == 0.0

    def test_estimates_are_exchanged_once_per_session(self):
        # 64-slot frames go 256 to a train, so both blocks are one train
        _, _, transcript = run_session(noiseless_settings(blocks=2), seed=1)
        a, b = Transcript.A_TO_B, Transcript.B_TO_A
        sent = [(direction, type(item)) for direction, item in transcript.entries
                if direction != Transcript.QUANTUM]
        assert sent == [
            (a, SessionStart), (a, PermutationReveal), (b, DetectionReportMsg), (a, EstimateReport),
        ]
        assert transcript.messages()[-1].block_id == 1

    def test_transcripts_byte_identical_across_runs(self):
        _, _, t1 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=42)
        _, _, t2 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=42)
        assert t1.wire_bytes() == t2.wire_bytes()
        _, _, t3 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=43)
        assert t1.wire_bytes() != t3.wire_bytes()


class TestNoisySession:
    def test_mismatch_fraction_tracks_configured_qslot(self):
        proto = ProtocolParams(d=4, n=64)
        phys = PhysicalParams(
            mu=0.09, t_ch=1.0, xi=0.9, f_mon=0.0, t_dead=0.0, p_dc=0.0
        ).with_target_qslot(0.01, 4)
        settings = SessionSettings(protocol=proto, physical=phys, blocks=400)
        alice, bob, _ = run_session(settings, seed=5)
        mism = np.mean(np.array(alice.sifted) != np.array(bob.sifted))
        q_obs = mism / (proto.d - 1)
        sigma = math.sqrt(mism * (1 - mism) / alice.sifted_count) / (proto.d - 1)
        assert abs(q_obs - 0.01) < 3 * sigma
        assert abs(alice.q_hat - 0.01) < 3 * sigma

    def test_detected_rate_near_model(self):
        proto = ProtocolParams(d=8, n=256)
        phys = PhysicalParams(
            mu=0.1, xi=0.2, t_ch=0.5, f_mon=0.1, t_dead=4e-6, r_ext=0.0
        )
        settings = SessionSettings(protocol=proto, physical=phys, blocks=200)
        _, bob, _ = run_session(settings, seed=6)
        from hdcow.rates import detection_rate

        model = detection_rate(8, 0.1, phys.xi_eff, 4e-6, 2e-9)
        assert bob.detected_rate == pytest.approx(model, rel=0.05)


class ScriptedDuplex:
    """Feeds a canned byte stream to run_bob and swallows its output."""

    def __init__(self, frames):
        self._buffer = bytearray()
        for frame in frames:
            self._buffer.extend(frame)
        self.sent = bytearray()

    def send(self, data):
        self.sent.extend(data)

    def recv_exact(self, count):
        if len(self._buffer) < count:
            raise ProtocolError("script exhausted")
        out = bytes(self._buffer[:count])
        del self._buffer[:count]
        return out


@pytest.mark.parametrize("fraction", [0.4, 0.75])
def test_sample_fraction_must_be_a_unit_fraction(fraction):
    with pytest.raises(InvalidArgumentError, match="nearest allowed values"):
        SessionSettings(
            protocol=ProtocolParams(d=2, n=2),
            physical=PhysicalParams.noiseless(),
            blocks=1,
            sample_fraction=fraction,
        )


def test_slot_duration_is_the_channels():
    # The one slot duration sets SESSION_START's, the dead time in slots
    # and the detected rate.  A second copy on ProtocolParams once set
    # the first and the last, and the channel's the dead time.
    physical = PhysicalParams(mu=0.05, tau=1e-9)
    settings = SessionSettings(ProtocolParams(8, 64), physical, blocks=10)
    assert settings.start.tau_picoseconds == 1000
    assert physical.dead_slots == 4000
    alice, bob, _ = run_session(settings, seed=1)
    for summary in (alice, bob):
        assert summary.detected_rate == summary.sifted_count / (10 * 512 * 1e-9)


@pytest.mark.parametrize("tau", [1e-13, 5e-13])
def test_slot_duration_of_zero_picoseconds_refused(tau):
    # SESSION_START carries whole picoseconds; these slots were sent as 0
    cause = f"tau={tau} does not fit SESSION_START's u64 of whole picoseconds"
    with pytest.raises(InvalidArgumentError, match=cause):
        SessionSettings(ProtocolParams(8, 64), PhysicalParams(mu=0.05, tau=tau), blocks=1)
    assert SessionSettings(
        ProtocolParams(8, 64), PhysicalParams(mu=0.05, tau=6e-13), blocks=1
    ).start.tau_picoseconds == 1


@pytest.mark.parametrize("d, n", [(2, 2**31), (3, 1431655766), (65535, 65539)])
def test_block_beyond_u32_slots_refused(d, n):
    # a reveal index and a monitor slot are u32, so a block of 2**32 slots
    # or more cannot travel; it is refused before any array is drawn
    with pytest.raises(InvalidArgumentError, match=f"^n={n} with d={d} makes a block of"):
        SessionSettings(ProtocolParams(d, n), PhysicalParams.noiseless(), blocks=1)


def test_largest_block_accepted():
    # 3 * 1431655765 = 2**32 - 1 slots: only checked, never run
    settings = SessionSettings(ProtocolParams(3, 1431655765), PhysicalParams.noiseless(), 1)
    assert settings.protocol.slot_count == 2**32 - 1


@pytest.mark.parametrize("seed", [-1, [3, -2]])
def test_negative_seed_refused(seed):
    with pytest.raises(InvalidArgumentError, match="is not a seed"):
        run_session(noiseless_settings(), seed=seed)


class TestProtocolViolations:
    def test_dimension_mismatch_aborts(self):
        settings = noiseless_settings(d=4, n=16)
        channel = SimulatedChannel(settings.physical, seed=0)
        duplex = ScriptedDuplex(
            [encode_message(SessionStart(d=8, n=16, tau_picoseconds=2000))]
        )
        with pytest.raises(ProtocolError, match=r"expected SessionStart\(d=4, n=16, "):
            run_bob(settings, channel, duplex)

    def test_receive_before_any_transmit(self):
        channel = SimulatedChannel(noiseless_settings(d=2, n=2).physical, seed=0)
        with pytest.raises(ProtocolError, match="^no quantum transmission observed for block 0$"):
            channel.receive(0)

    def test_receive_for_another_train(self):
        channel = SimulatedChannel(noiseless_settings(d=2, n=2).physical, seed=0)
        channel.transmit(0, *frames_12(1))
        channel.transmit(1, *frames_12(1))
        cause = "^quantum train of block 0 does not match revealed 1$"
        with pytest.raises(ProtocolError, match=cause):
            channel.receive(1)

    def test_malformed_permutation_aborts(self):
        settings = noiseless_settings(d=2, n=2)
        channel = SimulatedChannel(settings.physical, seed=0)
        # transmit, then reveal a non-bijection
        channel.transmit(0, *frames_12(1))
        duplex = ScriptedDuplex(
            [
                encode_message(SessionStart(d=2, n=2, tau_picoseconds=2000)),
                encode_message(
                    PermutationReveal(block_id=0, indices=(1, 1, 3, 4))
                ),
            ]
        )
        with pytest.raises(ProtocolError, match="malformed permutation"):
            run_bob(settings, channel, duplex)


# d=2 and n=2 give 4-slot frames, 4096 to a train.
TRAIN = _BATCH_SLOTS // 4


def identity_reveal(first, rows):
    """The reveal of a train of ``rows`` blocks (d=2, n=2) from ``first``
    on, each under the identity permutation."""
    return PermutationReveal(block_id=first, indices=np.tile(np.arange(1, 5), rows))


def scripted_bob(messages, blocks=1, transmissions=1, channel=None):
    """Run Bob (d=2, n=2) on ``messages`` after the first ``transmissions``
    trains of a ``blocks``-block session, each frame ``frames_12``'s, have gone
    down the channel, a fresh simulated one unless ``channel`` is given."""
    settings = noiseless_settings(d=2, n=2, blocks=blocks)
    if channel is None:
        channel = SimulatedChannel(settings.physical, seed=0)
    for first in range(0, blocks, TRAIN)[:transmissions]:
        channel.transmit(first, *frames_12(min(TRAIN, blocks - first)))
    start = SessionStart(d=2, n=2, tau_picoseconds=2000)
    duplex = ScriptedDuplex([encode_message(m) for m in (start, *messages)])
    return run_bob(settings, channel, duplex)


@pytest.mark.parametrize("values", [(0, 2, 3, 4), (1, 2, 3, 5), (1, 1, 3, 4)])
def test_reveal_out_of_range_or_repeated_aborts(values):
    # 0 would scatter to the last slot of the inverse if not range-checked first
    with pytest.raises(ProtocolError, match="malformed permutation"):
        scripted_bob([PermutationReveal(block_id=0, indices=values)])


class TestMalformedTrainReveal:
    """A 3-block session of 4-slot frames is one train, so its reveal
    must be three bijections on {1..4}."""

    @pytest.mark.parametrize(
        "rows, cause",
        [
            ([[1, 2, 3, 4]] * 2, "reveal of 2 blocks for a train of 3"),
            ([[1, 2, 3, 4]] * 4, "reveal of 4 blocks for a train of 3"),
            ([[1, 2, 3, 4]] * 2 + [[1, 2, 3]], r"11 indices are not whole blocks of d\*n=4"),
            ([[1, 2, 3, 4], [1, 2, 2, 4], [1, 2, 3, 4]], "permutation is not a bijection"),
            ([[1, 2, 3, 4], [1, 2, 3, 4], [0, 2, 3, 4]], r"permutation values outside \{1\.\.L\}"),
            # Each row's images are moved to its place in the train, so
            # without a range check a 5 would fill the next row's first slot.
            ([[2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4]], r"permutation values outside \{1\.\.L\}"),
            ([[1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3, 4]], r"permutation values outside \{1\.\.L\}"),
        ],
    )
    def test_refused_with_its_cause(self, rows, cause):
        reveal = PermutationReveal(block_id=0, indices=[v for row in rows for v in row])
        with pytest.raises(ProtocolError, match=f"malformed permutation reveal: {cause}"):
            scripted_bob([reveal], blocks=3)

    def test_last_train_holds_the_blocks_left(self):
        # 4097 blocks are a train of 4096 and one of 1
        reveals = [identity_reveal(0, TRAIN), identity_reveal(TRAIN, 2)]
        with pytest.raises(ProtocolError, match="reveal of 2 blocks for a train of 1"):
            scripted_bob(reveals, blocks=TRAIN + 1, transmissions=2)


class TestReusedBufferReveal:
    """Bob checks every train's reveal in the same two arrays, so a bad
    reveal after a valid one must be refused for its own fault."""

    @pytest.mark.parametrize(
        "blocks, last",
        [(2 * TRAIN, TRAIN), (TRAIN + 1, 1)],
        ids=["second train", "shorter last train"],
    )
    @pytest.mark.parametrize(
        "bad_row, cause",
        [
            ([1, 2, 2, 4], "permutation is not a bijection"),
            ([0, 2, 3, 4], r"permutation values outside \{1\.\.L\}"),
            ([2, 3, 4, 5], r"permutation values outside \{1\.\.L\}"),
        ],
    )
    def test_bad_reveal_after_a_valid_one_refused(self, blocks, last, bad_row, cause):
        rows = np.tile(np.arange(1, 5), (last, 1))
        rows[-1] = bad_row
        reveals = [identity_reveal(0, TRAIN), PermutationReveal(block_id=TRAIN, indices=rows)]
        with pytest.raises(ProtocolError, match=f"malformed permutation reveal: {cause}"):
            scripted_bob(reveals, blocks=blocks, transmissions=2)

    def test_valid_reveals_after_a_valid_one_accepted(self):
        # the same script with both reveals valid runs to the estimate
        estimate = EstimateReport(block_id=TRAIN, q_hat=0.0, v_hat=1.0)
        bob = scripted_bob(
            [identity_reveal(0, TRAIN), identity_reveal(TRAIN, 1), estimate],
            blocks=TRAIN + 1,
            transmissions=2,
        )
        assert bob.sifted == (1, 2) * (TRAIN + 1)


class RecordingDuplex(ScriptedDuplex):
    def __init__(self, frames):
        super().__init__(frames)
        self.reads = []

    def recv_exact(self, count):
        self.reads.append(count)
        return super().recv_exact(count)


def oversized_header(tag):
    # declares a payload far beyond any block of the session
    return MAGIC + bytes([VERSION, tag]) + struct.pack("!I", 2**32 - 1)


class TestOversizedPayload:
    def test_bob_rejects_reveal_from_its_header(self):
        settings = noiseless_settings(d=2, n=2)
        duplex = RecordingDuplex(
            [
                encode_message(SessionStart(d=2, n=2, tau_picoseconds=2000)),
                oversized_header(0x03),
            ]
        )
        with pytest.raises(ProtocolError, match="malformed message"):
            run_bob(settings, SimulatedChannel(settings.physical, seed=0), duplex)
        assert duplex.reads == [8, 14, 8]

    def test_alice_rejects_report_from_its_header(self):
        settings = noiseless_settings(d=2, n=2)
        duplex = RecordingDuplex([oversized_header(0x04)])
        channel = SimulatedChannel(settings.physical, seed=0)
        with pytest.raises(ProtocolError, match="malformed message"):
            run_alice(settings, None, channel, duplex, seed=0)
        assert duplex.reads == [8]


class TestBlockSequence:
    """Bob's link refuses a message out of the lockstep order and names
    the message it expected and the one it got."""

    @pytest.mark.parametrize(
        "blocks, messages, cause",
        [
            (2, [replace(REVEAL_0, block_id=1)],
             "expected a->b PermutationReveal of block 0, got a->b PermutationReveal of block 1"),
            # the first train is blocks 0 to 4095, so the next reveal is for block 4096
            (TRAIN + 1, [identity_reveal(0, TRAIN)] * 2,
             f"expected a->b PermutationReveal of block {TRAIN}, "
             "got a->b PermutationReveal of block 0"),
            # a replay of the session's one block
            (1, [REVEAL_0, REVEAL_0],
             "expected a->b EstimateReport of block 0, got a->b PermutationReveal of block 0"),
        ],
    )
    def test_reveal_out_of_sequence_aborts(self, blocks, messages, cause):
        with pytest.raises(ProtocolError, match=whole(cause)):
            scripted_bob(messages, blocks=blocks)

    def test_estimate_for_another_block_aborts(self):
        messages = [
            PermutationReveal(block_id=0, indices=(1, 2, 3, 4)),
            EstimateReport(block_id=5, q_hat=0.0, v_hat=math.nan),
        ]
        cause = "expected a->b EstimateReport of block 0, got a->b EstimateReport of block 5"
        with pytest.raises(ProtocolError, match=whole(cause)):
            scripted_bob(messages)

    @pytest.mark.parametrize(
        "q_hat, v_hat, name",
        [
            # 1/(d-1) = 1 at d=2
            (-1.0, math.nan, "q_hat"),
            (1.0 + 1e-9, math.nan, "q_hat"),
            (math.nan, -0.5, "v_hat"),
            (0.0, 1.5, "v_hat"),
        ],
    )
    def test_out_of_range_error_estimate_aborts(self, q_hat, v_hat, name):
        messages = [REVEAL_0, EstimateReport(block_id=0, q_hat=q_hat, v_hat=v_hat)]
        with pytest.raises(ProtocolError, match=f"peer sent {name}="):
            scripted_bob(messages)

    @pytest.mark.parametrize(
        "blocks, tail, cause",
        [
            # at the end of the first of two trains no estimate is due yet
            (TRAIN + 1, [EstimateReport(block_id=TRAIN, q_hat=0.0, v_hat=math.nan)],
             f"expected a->b PermutationReveal of block {TRAIN}, "
             f"got a->b EstimateReport of block {TRAIN}"),
            (1, [SessionStart(d=2, n=2, tau_picoseconds=2000)],
             "expected a->b EstimateReport of block 0, got a->b SessionStart"),
            # a message of Bob's own kind, read as Alice's
            (1, [DetectionReportMsg(block_id=0, entries=())],
             "expected a->b EstimateReport of block 0, got a->b DetectionReportMsg of block 0"),
        ],
    )
    def test_estimate_out_of_turn_aborts(self, blocks, tail, cause):
        messages = [identity_reveal(0, min(blocks, TRAIN)), *tail]
        with pytest.raises(ProtocolError, match=whole(cause)):
            scripted_bob(messages, blocks=blocks)

    def test_refused_before_bob_acts_on_it(self):
        # The channel holds the second train only, so a Bob who measured
        # the second train's reveal first would be handed its clicks.
        channel = SpyChannel(PhysicalParams.noiseless(), seed=0)
        channel.transmit(TRAIN, *frames_12(1))
        cause = (
            "expected a->b PermutationReveal of block 0, "
            f"got a->b PermutationReveal of block {TRAIN}"
        )
        with pytest.raises(ProtocolError, match=whole(cause)):
            scripted_bob(
                [identity_reveal(TRAIN, 1)], blocks=TRAIN + 1, transmissions=0, channel=channel
            )
        assert channel.handed == []


class TestAliceRefusesOutOfTurn:
    """Alice's link refuses a message of Bob's out of the lockstep order
    before she sifts or tallies anything from it."""

    @pytest.mark.parametrize(
        "message, got",
        [
            # a report on the second train, while the first is open
            (DetectionReportMsg(block_id=TRAIN, entries=((0, 1),)),
             f"b->a DetectionReportMsg of block {TRAIN}"),
            (identity_reveal(0, 1), "b->a PermutationReveal of block 0"),
        ],
    )
    def test_refused_before_alice_acts_on_it(self, monkeypatch, message, got):
        made = []

        class KeptAlice(_Alice):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr("hdcow.session._Alice", KeptAlice)
        settings = noiseless_settings(d=2, n=2, blocks=TRAIN + 1)
        channel = SpyChannel(settings.physical, seed=0)
        cause = f"expected b->a DetectionReportMsg of block 0, got {got}"
        with pytest.raises(ProtocolError, match=whole(cause)):
            run_alice(settings, None, channel, ScriptedDuplex([encode_message(message)]), seed=0)
        (alice,) = made
        assert [slots for _, slots in channel.sent] == [4 * TRAIN]  # the first train only
        assert alice._sifted == [] and alice._tally == MonitorTally()


class TestAliceSampling:
    def run_with_report(self, entries, blocks=([1, 2, 1, 2],)):
        settings = SessionSettings(
            protocol=ProtocolParams(d=2, n=4),
            physical=PhysicalParams.noiseless(),
            blocks=len(blocks),
            sample_fraction=0.5,
        )
        duplex = ScriptedDuplex([encode_message(DetectionReportMsg(block_id=0, entries=entries))])
        channel = SimulatedChannel(settings.physical, seed=0)
        summary = run_alice(settings, blocks, channel, duplex, seed=0)
        return summary.q_hat

    def test_sampled_qudits_do_not_depend_on_report_order(self):
        # qudit 0 (sent 1, received 2) is the one sampled at every=2
        assert self.run_with_report(((0, 2), (3, 2))) == 1.0
        assert self.run_with_report(((3, 2), (0, 2))) == 1.0

    def test_train_qudit_is_sampled_by_its_block_and_place(self):
        # The two blocks are one train.  Train qudit 5 is qudit 1 of block
        # 1, so 1 + 1 is even and it is sampled (sent 2, received 1);
        # train qudit 4, qudit 0 of block 1, is not.
        assert self.run_with_report(((4, 2), (5, 1)), ([1, 2, 1, 2], [2, 2, 2, 2])) == 1.0

    def test_qudit_is_sampled_by_its_block_across_trains(self):
        # 16384-slot frames go one to a train, so block 1 is the second
        # train's.  Its qudit 0 (sent 1, received 2) has 1 + 0 odd and is
        # not sampled; its qudit 1 has 1 + 1 even and is.
        settings = SessionSettings(
            protocol=ProtocolParams(d=2, n=8192),
            physical=PhysicalParams.noiseless(),
            blocks=2,
            sample_fraction=0.5,
        )
        reports = [DetectionReportMsg(0, ((0, 1),)), DetectionReportMsg(1, ((0, 2), (1, 1)))]
        duplex = ScriptedDuplex([encode_message(report) for report in reports])
        channel = SimulatedChannel(settings.physical, seed=0)
        summary = run_alice(settings, [[1] * 8192] * 2, channel, duplex, seed=0)
        assert summary.sifted == (1, 1, 1)
        assert summary.q_hat == 0.0


def test_short_block_source_names_the_block():
    settings = noiseless_settings(d=2, n=2, blocks=2)
    duplex = ScriptedDuplex([encode_message(DetectionReportMsg(block_id=0, entries=((0, 1),)))])
    channel = SimulatedChannel(settings.physical, seed=0)
    with pytest.raises(ProtocolError, match="block source ended after 1 of 2 blocks"):
        run_alice(settings, [[1, 2]], channel, duplex, seed=0)


def sent_messages(duplex):
    sent = io.BytesIO(bytes(duplex.sent))
    messages = []
    while sent.tell() < len(duplex.sent):
        messages.append(read_message(sent.read))
    return messages


class TestSuppliedBlocksAcrossBatches:
    """d=8, n=64: 512-slot frames, so Alice prepares 32 blocks a batch."""

    settings = noiseless_settings(d=8, n=64, blocks=40)
    per_batch = _BATCH_SLOTS // 512

    def refusal(self, blocks, reported):
        """Run Alice on ``blocks`` with empty reports for the trains before
        block ``reported``; returns her error and the first blocks of the
        trains she revealed."""
        duplex = ScriptedDuplex(
            [
                encode_message(DetectionReportMsg(block_id=b, entries=()))
                for b in range(0, reported, self.per_batch)
            ]
        )
        channel = SimulatedChannel(self.settings.physical, seed=0)
        with pytest.raises(ProtocolError) as info:
            run_alice(self.settings, blocks, channel, duplex, seed=0)
        revealed = [m.block_id for m in sent_messages(duplex) if isinstance(m, PermutationReveal)]
        return str(info.value), revealed

    @staticmethod
    def valid_blocks(count):
        rng = np.random.default_rng(3)
        return [rng.integers(1, 9, size=64) for _ in range(count)]

    @pytest.mark.parametrize("index", [1, 31, 33])
    @pytest.mark.parametrize(
        "bad, cause",
        [
            ([1] * 63, "block length 63 != n=64"),
            ([9] + [1] * 63, "outside"),
            ([[1] * 64] * 2, "symbols must be a flat sequence"),
        ],
    )
    def test_invalid_block_refused_when_its_batch_is_prepared(self, index, bad, cause):
        assert self.per_batch == 32
        blocks = self.valid_blocks(40)
        blocks[index] = bad
        batch_start = index - index % self.per_batch
        error, revealed = self.refusal(blocks, batch_start)
        assert error.startswith(f"supplied block {index}: ") and cause in error
        assert revealed == list(range(0, batch_start, 32))  # not the refused batch

    @pytest.mark.parametrize("supplied", [1, 32, 33])
    def test_source_running_dry_fails_at_the_batch_it_cannot_fill(self, supplied):
        filled = supplied - supplied % self.per_batch
        error, revealed = self.refusal(self.valid_blocks(supplied), filled)
        assert error == f"block source ended after {supplied} of 40 blocks"
        assert revealed == list(range(0, filled, 32))  # not the batch left short


class TestAliceMonitorList:
    """d=2, n=2 and one block: Alice's one train is 4 slots, and Bob's
    report must list his monitor clicks as strictly increasing slots of
    it that name no qudit the report keeps."""

    @staticmethod
    def alice_after_start():
        settings = noiseless_settings(d=2, n=2)
        alice = _Alice(settings, SimulatedChannel(settings.physical, seed=0), None, seed=0)
        _, reveal = alice.start()
        return alice, reveal.values()

    @pytest.mark.parametrize(
        "monitor, cause",
        [
            ((4,), r"monitor clicks \(4,\) outside the train's 4 slots"),
            ((0, 4), r"monitor clicks \(0, 4\) outside the train's 4 slots"),
            ((1, 1), r"monitor clicks \(1, 1\) are not strictly increasing"),
            ((3, 0), r"monitor clicks \(3, 0\) are not strictly increasing"),
        ],
    )
    def test_malformed_list_refused(self, monitor, cause):
        alice, _ = self.alice_after_start()
        with pytest.raises(ProtocolError, match=cause):
            alice.receive(DetectionReportMsg(block_id=0, entries=(), monitor_slots=monitor))

    def test_negative_slot_refused_when_the_report_is_built(self):
        # a report holds its slots as u32 from the start, so a negative
        # one never reaches Alice
        with pytest.raises(InvalidArgumentError, match="^monitor slot=-1 does not fit u32$"):
            DetectionReportMsg(block_id=0, entries=(), monitor_slots=(-1, 2))

    @pytest.mark.parametrize("symbol", [1, 2])
    def test_click_naming_a_kept_qudit_refused(self, symbol):
        # the slot of qudit 1's symbol ``symbol`` is sigma(2 + symbol)
        alice, values = self.alice_after_start()
        slot = int(values[1 + symbol]) - 1
        report = DetectionReportMsg(block_id=0, entries=((1, 2),), monitor_slots=(slot,))
        with pytest.raises(
            ProtocolError,
            match="a monitor click names qudit 1, which the report keeps",
        ):
            alice.receive(report)

    def test_click_naming_a_dropped_qudit_is_tallied(self):
        alice, values = self.alice_after_start()
        slot = int(values[0]) - 1  # qudit 0, which the report does not keep
        report = DetectionReportMsg(block_id=0, entries=((1, 2),), monitor_slots=(slot,))
        (estimate,) = alice.receive(report)
        assert isinstance(estimate, EstimateReport)
        assert alice.summary.sifted_count == 1


class TestQueuePipe:
    @settings(max_examples=100, deadline=None)
    @given(
        sends=st.lists(st.binary(max_size=20), max_size=6),
        cuts=st.lists(st.integers(0, 30), max_size=10),
    )
    def test_reads_return_the_stream_in_order(self, sends, cuts):
        # reads that split a send, span several or read nothing
        pipe = QueuePipe()
        for data in sends:
            pipe.send(bytearray(data))
        stream, got = b"".join(sends), b""
        for cut in cuts:
            if len(got) + cut > len(stream):
                with pytest.raises(ProtocolError, match="pipe holding"):
                    pipe.recv_exact(cut)
                continue
            got += bytes(pipe.recv_exact(cut))
        assert got == stream[: len(got)]
        assert bytes(pipe.recv_exact(len(stream) - len(got))) == stream[len(got) :]


class TestStreamDuplex:
    def test_chunked_message_round_trips(self):
        message = PermutationReveal(block_id=7, indices=range(1, 257))
        frame = encode_message(message)
        left, right = socket.socketpair()
        with left, right:
            right.settimeout(5.0)
            sender = StreamDuplex(left)
            sender.send(frame[:5])
            # the rest arrives while the reader is blocked mid-frame
            late = threading.Timer(0.05, sender.send, args=(frame[5:],))
            late.start()
            try:
                assert read_message(StreamDuplex(right).recv_exact) == message
            finally:
                late.join(timeout=5.0)
            assert not late.is_alive()

    def test_peer_closing_mid_frame_raises(self):
        frame = encode_message(PermutationReveal(block_id=7, indices=range(1, 65)))
        left, right = socket.socketpair()
        with right:
            right.settimeout(5.0)
            with left:
                StreamDuplex(left).send(frame[:-3])
            with pytest.raises(ProtocolError, match="stream closed mid-frame"):
                read_message(StreamDuplex(right).recv_exact)


def estimate_from_bob(entries):
    entries[-1] = Transcript.B_TO_A, entries[-1][1]


def estimate_after_start(entries):
    entries.insert(1, entries.pop())


def estimate_for_block_0(entries):
    direction, estimate = entries[-1]
    entries[-1] = direction, replace(estimate, block_id=0)


def bob_estimate_first(entries):
    # the exchange of wire version 3: Bob's estimate, then Alice's
    entries.insert(-1, (Transcript.B_TO_A, entries[-1][1]))


def second_start(entries):
    entries.insert(len(entries) // 2, entries[0])


def early_estimate(entries):
    entries.insert(len(entries) // 2, entries[-1])


def second_estimate(entries):
    entries.append(entries[-1])


def drop_train_2(entries):
    del entries[5:8]  # its quantum marker, reveal and report


def drop_quantum_2(entries):
    entries.remove((Transcript.QUANTUM, 2))


def reveal_0_again(entries):
    entries.insert(-1, next(e for e in entries if isinstance(e[1], PermutationReveal)))


A, B, Q = Transcript.A_TO_B, Transcript.B_TO_A, Transcript.QUANTUM
START = (A, SessionStart(d=2, n=2, tau_picoseconds=2000))
REPORT_0 = DetectionReportMsg(block_id=0, entries=())
ESTIMATE_0 = EstimateReport(block_id=0, q_hat=0.0, v_hat=math.nan)


class TestTranscriptValidator:
    @pytest.mark.parametrize(
        "entries, violation",
        [
            ([START, (A, REVEAL_0), (Q, 0), (B, REPORT_0), (A, ESTIMATE_0)],
             "entry 1: expected quantum transmission of block 0, "
             "got a->b PermutationReveal of block 0"),
            ([START, (Q, 0), (B, REPORT_0), (A, REVEAL_0), (A, ESTIMATE_0)],
             "entry 2: expected a->b PermutationReveal of block 0, "
             "got b->a DetectionReportMsg of block 0"),
            ([START, (Q, 0), (A, REVEAL_0), (A, REPORT_0), (A, ESTIMATE_0)],
             "entry 3: expected b->a DetectionReportMsg of block 0, "
             "got a->b DetectionReportMsg of block 0"),
            # blocks 0 and 1 are one train, with one reveal and one report
            ([START, (Q, 0), (Q, 1), (A, REVEAL_0), (B, REPORT_0), (A, ESTIMATE_0)],
             "entry 5: expected a->b EstimateReport of block 1, "
             "got a->b EstimateReport of block 0"),
            # the block-by-block exchange of wire version 2
            ([START, (Q, 0), (Q, 1), (A, REVEAL_0), (B, REPORT_0),
              (A, replace(REVEAL_0, block_id=1))],
             "entry 5: expected a->b EstimateReport of block 1, "
             "got a->b PermutationReveal of block 1"),
            # 4-slot frames go 4096 to a train, so block 1 goes out with block 0
            ([START, (Q, 0), (A, REVEAL_0), (B, REPORT_0), (Q, 1)],
             "entry 2: expected quantum transmission of block 1, "
             "got a->b PermutationReveal of block 0"),
            # 16384-slot frames go one to a train
            ([(A, SessionStart(d=2, n=2**13, tau_picoseconds=2000)), (Q, 0), (Q, 1)],
             "entry 2: expected a->b PermutationReveal of block 0, "
             "got quantum transmission of block 1"),
        ],
    )
    def test_flags_hand_recorded_transcript(self, entries, violation):
        t = Transcript()
        for entry in entries:
            t.record(*entry)
        assert validate_transcript(t) == [violation]

    @pytest.mark.parametrize(
        "edit, violation",
        [
            (estimate_from_bob,
             "entry 8: expected a->b EstimateReport of block 2, got b->a EstimateReport of block 2"),
            (bob_estimate_first,
             "entry 8: expected a->b EstimateReport of block 2, got b->a EstimateReport of block 2"),
            (estimate_after_start,
             "entry 1: expected quantum transmission of block 0, got a->b EstimateReport of block 2"),
            (estimate_for_block_0,
             "entry 8: expected a->b EstimateReport of block 2, got a->b EstimateReport of block 0"),
            (second_start,
             "entry 4: expected b->a DetectionReportMsg of block 0, got a->b SessionStart"),
            (early_estimate,
             "entry 4: expected b->a DetectionReportMsg of block 0, "
             "got a->b EstimateReport of block 2"),
            (second_estimate,
             "entry 9: expected the end of the transcript, got a->b EstimateReport of block 2"),
            (list.pop, "entry 8: expected a->b EstimateReport of block 2, got the end of the transcript"),
            (list.clear, "entry 0: expected a->b SessionStart, got the end of the transcript"),
            (drop_train_2,
             "entry 5: expected a->b EstimateReport of block 1, got a->b EstimateReport of block 2"),
            # without its marker block 2 was never transmitted
            (drop_quantum_2,
             "entry 5: expected a->b EstimateReport of block 1, got a->b PermutationReveal of block 2"),
            (reveal_0_again,
             "entry 8: expected a->b EstimateReport of block 2, got a->b PermutationReveal of block 0"),
        ],
    )
    def test_flags_edits_of_a_real_session(self, edit, violation):
        # 8192-slot frames go two to a train, so three blocks are trains of 2 and 1
        _, _, transcript = run_session(noiseless_settings(d=8, n=1024, blocks=3), seed=1)
        entries = transcript.entries
        assert len(entries) == 9
        assert [e[1] for e in entries[1:3]] == [0, 1] and entries[5] == (Q, 2)
        assert entries[-1][0] == A and type(entries[-1][1]) is EstimateReport
        assert validate_transcript(transcript) == []
        edit(entries)
        assert validate_transcript(transcript) == [violation]

    def test_accepts_recorded_real_session(self):
        _, _, transcript = run_session(noiseless_settings(blocks=3), seed=1)
        assert validate_transcript(transcript) == []

    def test_each_train_is_transmitted_before_its_reveals(self):
        # 512-slot frames go 32 to a train: 70 blocks are trains of 32, 32 and 6
        settings = noiseless_settings(d=8, n=64, blocks=70)
        assert _BATCH_SLOTS // 512 == 32
        _, _, transcript = run_session(settings, seed=1)
        assert validate_transcript(transcript) == []
        shapes = [
            (direction, item if direction == Q else item.block_id)
            for direction, item in transcript.entries[1:-1]
        ]
        expected = []
        for first, last in ((0, 32), (32, 64), (64, 70)):
            expected += [(Q, b) for b in range(first, last)]
            expected += [(A, first), (B, first)]
        assert shapes == expected

    def test_far_block_id_is_one_violation(self):
        # Alice's link records Bob's report before it checks it, so her
        # transcript holds its block id; the check stops at that entry and
        # does not walk the blocks up to the id.
        settings = noiseless_settings(d=2, n=2)
        report = DetectionReportMsg(block_id=10**6, entries=())
        duplex = ScriptedDuplex([encode_message(report)])
        channel = SimulatedChannel(settings.physical, seed=0)
        transcript = Transcript()
        cause = (
            "expected b->a DetectionReportMsg of block 0, "
            "got b->a DetectionReportMsg of block 1000000"
        )
        with pytest.raises(ProtocolError, match=whole(cause)):
            run_alice(settings, None, channel, duplex, transcript, seed=0)
        assert transcript.entries[3] == (B, report)
        assert validate_transcript(transcript) == [
            "entry 3: expected b->a DetectionReportMsg of block 0, "
            "got b->a DetectionReportMsg of block 1000000"
        ]


class SpyChannel(SimulatedChannel):
    """A simulated channel that keeps every train sent down it, as its
    pulses and its slot count, and every click record it hands to the
    receiver."""

    def __init__(self, phys, seed):
        super().__init__(phys, seed)
        self.sent, self.handed = [], []

    def transmit(self, first_block_id, pulses, slots):
        self.sent.append((pulses, slots))
        super().transmit(first_block_id, pulses, slots)

    def receive(self, first_block_id):
        self.handed.append(super().receive(first_block_id))
        return self.handed[-1]


class TestSingleThreadedSession:
    def test_endpoint_fault_aborts_at_once(self, monkeypatch):
        fault = RuntimeError("encoder fault")

        def broken_encoder(*args, **kwargs):
            raise fault

        monkeypatch.setattr("hdcow.session.encode_block", broken_encoder)
        start = time.perf_counter()
        with pytest.raises(ProtocolError, match="alice") as info:
            run_session(noiseless_settings(), seed=0)
        assert info.value.__cause__ is fault
        assert time.perf_counter() - start < 1.0

    def test_socket_drivers_match_run_session(self):
        proto = ProtocolParams(d=4, n=64)
        phys = PhysicalParams(
            mu=0.09, t_ch=1.0, xi=0.9, f_mon=0.1, t_dead=0.0
        ).with_target_qslot(0.01, 4)
        settings = SessionSettings(
            protocol=proto, physical=phys, blocks=20, sample_fraction=0.5
        )
        alice_seed, channel_seed = np.random.SeedSequence(7).spawn(2)
        channel = SpyChannel(phys, channel_seed)
        transcript, bob_transcript = Transcript(), Transcript()
        left, right = socket.socketpair()
        with left, right, ThreadPoolExecutor(max_workers=1) as pool:
            left.settimeout(10.0)
            right.settimeout(10.0)
            bob_run = pool.submit(
                run_bob, settings, channel, StreamDuplex(right), bob_transcript
            )
            alice = run_alice(
                settings, None, channel, StreamDuplex(left), transcript, seed=alice_seed
            )
            bob = bob_run.result(timeout=10.0)
        ref_alice, ref_bob, ref_transcript = run_session(settings, seed=7)
        assert alice.sifted_count > 0
        np.testing.assert_equal(asdict(alice), asdict(ref_alice))
        np.testing.assert_equal(asdict(bob), asdict(ref_bob))
        # Alice's own record is the whole session's
        assert validate_transcript(transcript) == []
        assert [e[0] for e in transcript.entries] == [e[0] for e in ref_transcript.entries]
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == (
            hashlib.sha256(ref_transcript.wire_bytes()).hexdigest()
        )
        # Bob's holds the same messages and no quantum marker
        assert bob_transcript.entries == [
            e for e in transcript.entries if e[0] != Transcript.QUANTUM
        ]
        assert validate_transcript(bob_transcript) == [
            "entry 1: expected quantum transmission of block 0, "
            "got a->b PermutationReveal of block 0"
        ]
        # The handle is given the one train of 20 blocks as its m*n sorted
        # int64 pulse slots and its m*L slots.  Bob's endpoint is handed
        # detector events only: the train's click record, which holds no
        # part of its pulses.
        ((clicks,), ((pulses, slots),)) = channel.handed, channel.sent
        assert slots == 20 * 256
        assert pulses.dtype == np.int64 and len(pulses) == 20 * 64
        assert (np.diff(pulses) > 0).all() and 0 <= pulses[0] and pulses[-1] < slots
        assert [f.name for f in fields(clicks)] == ["data_slots", "monitor_slots"]
        assert len(clicks.data_slots) and len(clicks.monitor_slots)
        for value in (clicks.data_slots, clicks.monitor_slots):
            assert value.dtype == np.int64 and not np.shares_memory(value, pulses)


# Sessions of several trains each, so that every endpoint reuses its
# train-sized arrays: five trains of 64 d=4, n=64 blocks with clicks near
# their edges, and three one-block trains of 32768-slot frames.
SEVERAL_TRAINS = {
    "train edge": {
        "physical": {"mu": 0.1, "t_ch": 1.0, "xi": 1.0, "t_dead": 6e-8, "p_dc": 1e-3, "f_mon": 0.5},
        "session": {"d": 4, "n": 64, "blocks": 300, "sample_fraction": 0.5},
    },
    "wide": {
        "physical": {"mu": 0.1, "t_ch": 1.0, "xi": 0.9, "t_dead": 2e-8, "p_dc": 1e-4},
        "session": {"d": 32, "n": 1024, "blocks": 3},
    },
    # with half the light on the monitor, so each report carries dozens
    # of kept qudits and of monitor clicks
    "wide monitor": {
        "physical": {"mu": 0.1, "t_ch": 1.0, "xi": 0.9, "t_dead": 2e-8, "p_dc": 1e-4, "f_mon": 0.5},
        "session": {"d": 32, "n": 1024, "blocks": 3},
    },
}


def several_trains(name):
    return parse_config(SEVERAL_TRAINS[name]).session_settings()


def assert_same_session(got, want):
    """Both summaries (NaNs included) and the transcript's wire bytes."""
    (alice, bob, transcript), (ref_alice, ref_bob, ref_transcript) = got, want
    assert alice.sifted_count > 0
    np.testing.assert_equal(asdict(alice), asdict(ref_alice))
    np.testing.assert_equal(asdict(bob), asdict(ref_bob))
    assert transcript.wire_bytes() == ref_transcript.wire_bytes()


class TestNoSharedState:
    """Each endpoint holds its own arrays for its session, so sessions at
    once, in threads or over a socket, run as they do alone."""

    @pytest.mark.parametrize(
        "runs",
        [
            [("wide", 1), ("wide", 2)],
            [("train edge", 3), ("wide", 3)],
            # more sessions than cores, switching threads as often as it can
            [("wide", seed) for seed in range(4, 10)],
        ],
    )
    def test_sessions_in_threads_match_sessions_alone(self, runs):
        alone = [run_session(several_trains(name), seed=seed) for name, seed in runs]
        barrier = threading.Barrier(len(runs))

        def run(name_seed):
            name, seed = name_seed
            settings = several_trains(name)
            barrier.wait(timeout=10.0)
            return run_session(settings, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(runs)) as pool:
                together = list(pool.map(run, runs, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(together, alone):
            assert_same_session(got, want)

    @pytest.mark.parametrize("name", sorted(SEVERAL_TRAINS))
    def test_endpoints_over_a_socket_match_run_session(self, name):
        settings, seed = several_trains(name), 4
        alice_seed, channel_seed = np.random.SeedSequence(seed).spawn(2)
        channel = SimulatedChannel(settings.physical, channel_seed)
        transcript, bob_transcript = Transcript(), Transcript()
        left, right = socket.socketpair()
        with left, right, ThreadPoolExecutor(max_workers=1) as pool:
            left.settimeout(10.0)
            right.settimeout(10.0)
            bob_run = pool.submit(run_bob, settings, channel, StreamDuplex(right), bob_transcript)
            alice = run_alice(
                settings, None, channel, StreamDuplex(left), transcript, seed=alice_seed
            )
            bob = bob_run.result(timeout=10.0)
        assert_same_session((alice, bob, transcript), run_session(settings, seed=seed))
        # Alice reads each report out of the bytearray StreamDuplex fills,
        # as a read-only view that equals and hashes as the one Bob built
        reports = [
            [m for m in t.messages() if isinstance(m, DetectionReportMsg)]
            for t in (transcript, bob_transcript)
        ]
        assert len(reports[0]) == len(reports[1]) > 0
        for read, built in zip(*reports):
            for field in (read.entries, read.monitor_slots):
                assert isinstance(field, memoryview) and field.readonly
            assert read == built and hash(read) == hash(built)


def test_transcript_freed_when_the_caller_drops_it():
    # A session leaves no reference cycle: a transcript that one held would
    # outlive its session, with every reveal in it, until the cycle
    # collector ran, so the memory of a loop of sessions would grow.
    gc.disable()
    try:
        _, _, transcript = run_session(noiseless_settings(d=8, n=64, blocks=40), seed=1)
        kept = weakref.ref(transcript)
        del transcript
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("slot", [10**6, -1])
def test_bob_refuses_a_monitor_click_outside_a_train_without_data_clicks(monkeypatch, slot):
    # One 1536-slot train.  Bob decoded no click of a train without a data
    # click, so this report reached Alice, and the abort named her.
    class StrayClickChannel(SimulatedChannel):
        def receive(self, first_block_id):
            super().receive(first_block_id)
            return ClickStream(np.zeros(0, dtype=np.int64), np.array([slot], dtype=np.int64))

    monkeypatch.setattr("hdcow.session.SimulatedChannel", StrayClickChannel)
    settings = SessionSettings(ProtocolParams(8, 64), PhysicalParams(mu=0.05), blocks=3)
    with pytest.raises(
        ProtocolError, match=r"bob endpoint aborted: click outside the train's slots 0\.\.1535"
    ):
        run_session(settings, seed=1)


@pytest.mark.filterwarnings("ignore:mu\\*t_ch")
def test_alice_carries_the_monitor_state_as_the_channel_does(monkeypatch):
    # After every train, the state Alice's tally leaves equals the one
    # the channel's detectors leave, in the two fields she can know.
    # Dead time of 30 slots, dark counts and half the light on the
    # monitor put clicks near the ends of the five trains.
    channel_states, alice_states = [], []

    class RecordingChannel(SimulatedChannel):
        def transmit(self, first_block_id, pulses, slots):
            super().transmit(first_block_id, pulses, slots)
            channel_states.append((self._state.prev_occupied, self._state.last_monitor_click))

    def recording_tally(pulses, slots, monitor_slots, state, params):
        tally = monitor_tally(pulses, slots, monitor_slots, state, params)
        alice_states.append((state.prev_occupied, state.last_monitor_click))
        return tally

    monkeypatch.setattr("hdcow.session.SimulatedChannel", RecordingChannel)
    monkeypatch.setattr("hdcow.session.monitor_tally", recording_tally)
    physical = PhysicalParams(
        mu=1.0, t_ch=1.0, xi=1.0, t_dead=2e-9 * 30, p_dc=1e-3, f_mon=0.5, v_true=0.9
    )
    settings = SessionSettings(ProtocolParams(4, 64), physical, blocks=300)
    run_session(settings, seed=2)
    assert len(alice_states) == 5
    assert alice_states == channel_states
    # a dead window reaches past a train's end, into the next train
    assert any(last > -30 for _, last in alice_states)


@pytest.mark.filterwarnings("ignore:mu\\*t_ch")
def test_no_key_qudit_is_named_by_a_reported_monitor_click(monkeypatch):
    # A lossless link with half the light on the monitor: about one pulse
    # in eight clicks it, so many reported clicks name qudits; Alice, who
    # knows the pulses, tallies them.
    dropped = []  # per train, the qudits the monitor clicks take out of the key

    def counting_decode(params, sigma, clicks):
        report = decode_frame(params, sigma, clicks)
        unmonitored = replace(clicks, monitor_slots=clicks.monitor_slots[:0])
        dropped.append(len(decode_frame(params, sigma, unmonitored).entries) - len(report.entries))
        return report

    monkeypatch.setattr("hdcow.session.decode_frame", counting_decode)
    physical = PhysicalParams(
        mu=1.0, t_ch=1.0, xi=1.0, t_dead=0.0, r_ext=0.0, f_mon=0.5, v_true=0.9
    )
    settings = SessionSettings(ProtocolParams(d=4, n=16), physical, blocks=300)
    alice, bob, transcript = run_session(settings, seed=5)
    messages = transcript.messages()
    reveals = {m.block_id: m.values() for m in messages if isinstance(m, PermutationReveal)}
    named = 0
    for report in (m for m in messages if isinstance(m, DetectionReportMsg)):
        values = reveals[report.block_id]
        length = 4 * 16
        # train slot t names train qudit sigma^{-1}(t) // d of its row
        inverse = np.empty(len(values), dtype=np.int64)
        at = np.arange(len(values))
        inverse[at - at % length + values.astype(np.int64) - 1] = at
        qudits = {int(inverse[t]) // 4 for t in report.monitor()}
        kept = set(report.columns()[:, 0].tolist())
        assert not qudits & kept
        named += len(qudits)
    assert named > 300
    assert sum(dropped) > 100
    assert alice.sifted == bob.sifted
    # the visibility is Alice's, from her tally; Bob takes hers
    assert alice.v_hat == bob.v_hat and 0.0 < alice.v_stderr < 0.1
    assert math.isnan(bob.v_stderr)


class TestPinnedTranscripts:
    """Wire transcripts and sifted strings of seeded sessions.  A change
    to what a seed draws (permutations, key blocks or clicks) moves them;
    it must re-record them and say which values moved.  A change of wire
    format, or of the messages a session sends, moves the digests and
    entry counts too.  The sifted strings and the estimates move with
    them only where a change of protocol keeps other qudits, as the rule
    that a reported monitor click takes the qudit it names out of the key
    can; it moved none of the strings pinned here."""

    @staticmethod
    def check(settings, seed, digest, entries, sifted, bob_sifted=None):
        alice, bob, transcript = run_session(settings, seed=seed)
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == digest
        assert len(transcript.entries) == entries
        assert alice.sifted == sifted
        assert bob.sifted == (sifted if bob_sifted is None else bob_sifted)
        assert validate_transcript(transcript) == []
        return alice, bob

    @staticmethod
    def check_stderrs(alice, bob, q_stderr, v_stderr):
        # Neither error bar is on the wire, so the digests do not cover
        # them; both estimates are Alice's.
        np.testing.assert_equal(
            (alice.q_stderr, alice.v_stderr, bob.q_stderr, bob.v_stderr),
            (q_stderr, v_stderr, math.nan, math.nan),
        )

    def test_noiseless_session(self):
        self.check(
            noiseless_settings(d=4, n=8, blocks=5),
            42,
            "cf3f7dc2b9f71e146f0a96ff3d9f569ffe3f1edf33790f2ffa15c3ced092db6d",
            9,
            (3, 4, 1, 4, 2, 2, 3, 4, 4, 1, 4, 4, 3, 4, 4, 1, 1, 2, 1, 3,
             1, 1, 4, 1, 4, 4, 1, 2, 3, 1, 2, 4, 3, 1, 3, 3, 3, 3, 4, 1),
        )

    def test_simulate_defaults(self):
        config = default_config()
        settings = SessionSettings(
            protocol=config.session_protocol(),
            physical=config.physical_params(),
            blocks=config.session.blocks,
            sample_fraction=config.session.sample_fraction,
        )
        alice, bob = self.check(
            settings,
            config.seed,
            "9825f9b2ed7102bbe69ac12663c8a01a633b0b60e3e745e07af3b587678aa901",
            110,
            (5, 2, 6, 3, 1, 5, 4, 3, 1, 3),
        )
        self.check_stderrs(alice, bob, 0.0, 3.6779891304347827)

    def test_reference_geometry_monitor_tally(self):
        # The defaults' 100 blocks see too few monitor clicks for a useful
        # error bar on V (3.7); over 1000 blocks the tally's counts
        # and live exposures at d=8, n=64 bring it to 0.88.  Four of the
        # 76 sifted qudits are errors.
        config = default_config()
        settings = SessionSettings(
            protocol=config.session_protocol(),
            physical=config.physical_params(),
            blocks=1000,
            sample_fraction=config.session.sample_fraction,
        )
        alice, bob = self.check(
            settings,
            config.seed,
            "324d283f703efc41bc3cea36c85e295e3e6f8413c4d1fd1b58b9fba8303e7014",
            1066,
            (5, 2, 6, 3, 1, 5, 4, 3, 1, 3, 2, 6, 5, 2, 7, 2, 4, 3, 1, 5, 6, 7, 2, 7, 7, 1,
             2, 5, 7, 3, 1, 8, 7, 1, 3, 6, 3, 4, 5, 8, 4, 6, 4, 1, 2, 8, 7, 3, 3, 3, 2, 1,
             7, 1, 5, 2, 3, 2, 3, 4, 5, 4, 2, 7, 1, 3, 1, 8, 6, 3, 2, 8, 3, 7, 5, 2),
            (5, 2, 6, 3, 1, 5, 4, 3, 1, 3, 2, 6, 5, 2, 7, 2, 4, 3, 1, 8, 6, 7, 2, 7, 7, 1,
             2, 5, 7, 3, 3, 8, 7, 1, 3, 6, 3, 4, 5, 8, 4, 6, 4, 1, 2, 5, 7, 3, 3, 3, 2, 1,
             7, 1, 5, 2, 3, 2, 3, 4, 5, 4, 2, 7, 1, 3, 1, 8, 6, 3, 2, 8, 3, 3, 5, 2),
        )
        assert alice.v_hat == bob.v_hat == 1.0
        self.check_stderrs(alice, bob, 0.003659129799942012, 0.8792724142328785)

    def test_wide_geometry(self):
        # The session_wide benchmark geometry, d=32 and n=1024 over a
        # back-to-back link: about 100 data clicks per block, a few lost
        # to the 10-slot dead time, and a few monitor clicks.
        settings = SessionSettings(
            protocol=ProtocolParams(d=32, n=1024),
            physical=PhysicalParams(mu=0.1, t_ch=1.0, xi=0.9, t_dead=20e-9),
            blocks=2,
        )
        alice, bob, transcript = run_session(settings, seed=1)
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == (
            "f95a88f4467177f467b37519ab0b21a8e2d48c887868730e08e49464d3d868d8"
        )
        assert len(transcript.entries) == 8
        assert alice.sifted_count == bob.sifted_count == 185
        assert hashlib.sha256(bytes(alice.sifted)).hexdigest() == (
            "31eb91a417ccc540e46d3d512901e7fb7002cf63edd2741f75ab41a8ad974080"
        )
        assert validate_transcript(transcript) == []
        self.check_stderrs(alice, bob, 0.0009288816109911649, 4.364035087719298)

    def test_train_edges(self):
        # Five trains of 64 blocks (the last of 44), d=4 and n=64, over a
        # back-to-back link with dark counts, half the light on the
        # monitor and a 30-slot dead time.  At seed 1 two trains end on a
        # pulse and two leave a monitor dead window that runs into the
        # next train, so the carry across a train's end shows here.
        config = parse_config({
            "physical": {"mu": 0.1, "t_ch": 1.0, "xi": 1.0, "t_dead": 6e-8, "p_dc": 1e-3,
                         "f_mon": 0.5},
            "session": {"d": 4, "n": 64, "blocks": 300},
        })
        alice, bob, transcript = run_session(config.session_settings(), seed=1)
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == (
            "298e347c4429f1cac1db37a26910b827091ae5db233bad8cd1e6b5c60faa71ab"
        )
        assert len(transcript.entries) == 312
        assert alice.sifted_count == bob.sifted_count == 709
        assert hashlib.sha256(bytes(alice.sifted)).hexdigest() == (
            "1e3319d1c22e28c60d919fcd4ddac46c57e16fa7f977cc8feb2f0cf563b2ed82"
        )
        assert hashlib.sha256(bytes(bob.sifted)).hexdigest() == (
            "387495d2b61e9cbbbc03bf158ba54be1e1ea27f670561ab43f897881f9c3d4c9"
        )
        assert validate_transcript(transcript) == []
        self.check_stderrs(alice, bob, 0.003292298824942305, 0.02516936699716138)

    def test_wide_monitor_heavy(self):
        # The wide geometry with dark counts and half the light on the
        # monitor: three one-block trains whose reports carry 142 kept
        # qudits and 53 monitor clicks between them, each click checked
        # and tallied by Alice.
        config = parse_config({
            "physical": {"mu": 0.1, "t_ch": 1.0, "xi": 0.9, "t_dead": 2e-8, "p_dc": 1e-4,
                         "f_mon": 0.5},
            "session": {"d": 32, "n": 1024, "blocks": 3},
        })
        alice, bob, transcript = run_session(config.session_settings(), seed=1)
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == (
            "f409eee6afee66b26045d12858ee81c87e3b01576d0c28354a361cf049b6d168"
        )
        assert len(transcript.entries) == 11
        assert alice.sifted_count == bob.sifted_count == 142
        assert hashlib.sha256(bytes(alice.sifted)).hexdigest() == (
            "3edefb6deec6ce1c06870c123f141f5a60f2b8a4305bd7703b29a3ce755042e1"
        )
        assert hashlib.sha256(bytes(bob.sifted)).hexdigest() == (
            "20223de76db5753a7201e6e33b8ec507100af33b5baab48e077402e685aa40fb"
        )
        assert validate_transcript(transcript) == []
        self.check_stderrs(alice, bob, 0.0011310378045976898, 0.4589506172839506)


class TestSessionEstimates:
    """Estimator quality over whole sessions."""

    def test_noiseless_run_has_no_errors(self):
        settings = SessionSettings(
            protocol=ProtocolParams(d=8, n=32),
            physical=PhysicalParams.noiseless(),
            blocks=20,
        )
        alice, bob, _ = run_session(settings, seed=1)
        assert alice.sifted_count == 20 * 32
        assert alice.sifted == bob.sifted
        assert alice.q_hat == 0.0

    def test_configured_qslot_recovered(self):
        phys = PhysicalParams(
            mu=0.08, t_ch=1.0, f_mon=0.0, t_dead=0.0, p_dc=0.0
        ).with_target_qslot(0.004, 8)
        settings = SessionSettings(
            protocol=ProtocolParams(d=8, n=64), physical=phys, blocks=1500
        )
        alice, _, _ = run_session(settings, seed=11)
        assert alice.sifted_count > 1000
        assert abs(alice.q_hat - 0.004) < 3 * alice.q_stderr

    @pytest.mark.filterwarnings("ignore:mu\\*t_ch")
    def test_visibility_estimator_inverts_generator(self):
        phys = PhysicalParams(
            mu=0.5, t_ch=1.0, xi=0.2, f_mon=0.5, t_dead=0.0,
            p_dc=0.0, r_ext=0.0, v_true=0.99,
        )
        settings = SessionSettings(
            protocol=ProtocolParams(d=2, n=512), physical=phys, blocks=1000
        )
        alice, _, _ = run_session(settings, seed=4)
        assert abs(alice.v_hat - 0.99) < 3 * alice.v_stderr

    @pytest.mark.filterwarnings("ignore:mu\\*t_ch")
    def test_error_shrinks_with_sample_size(self):
        phys = PhysicalParams(
            mu=0.3, t_ch=1.0, f_mon=0.0, t_dead=0.0
        ).with_target_qslot(0.01, 4)

        def alice_after(blocks):
            settings = SessionSettings(
                protocol=ProtocolParams(d=4, n=64), physical=phys, blocks=blocks
            )
            return run_session(settings, seed=2)[0]

        small = alice_after(30)
        large = alice_after(3000)
        assert abs(small.q_hat - 0.01) < 3 * small.q_stderr
        assert abs(large.q_hat - 0.01) < 3 * large.q_stderr
        # binomial stderr shrinks like 1/sqrt(N): 100x samples ~ 10x smaller
        assert large.q_stderr < small.q_stderr / 5
