import hashlib
import math
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from hdcow.channel import PhysicalParams
from hdcow.config import default_config
from hdcow.errors import ProtocolError
from hdcow.protocol import KeyBlock, Permutation, ProtocolParams, encode_block
from hdcow.session import (
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
    BlockAnnounce,
    DetectionReportMsg,
    EstimateReport,
    PermutationReveal,
    SessionEnd,
    SessionStart,
    encode_message,
    read_message,
)


def noiseless_settings(d=4, n=16, blocks=1):
    return SessionSettings(
        protocol=ProtocolParams(d=d, n=n, tau=2e-9),
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

    def test_transcripts_byte_identical_across_runs(self):
        _, _, t1 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=42)
        _, _, t2 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=42)
        assert t1.wire_bytes() == t2.wire_bytes()
        _, _, t3 = run_session(noiseless_settings(d=4, n=8, blocks=5), seed=43)
        assert t1.wire_bytes() != t3.wire_bytes()


class TestNoisySession:
    def test_mismatch_fraction_tracks_configured_qslot(self):
        proto = ProtocolParams(d=4, n=64, tau=2e-9)
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
        proto = ProtocolParams(d=8, n=256, tau=2e-9)
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


class TestProtocolViolations:
    def test_reveal_before_announce_aborts(self):
        settings = noiseless_settings(d=2, n=2)
        channel = SimulatedChannel(settings.physical, seed=0)
        duplex = ScriptedDuplex(
            [
                encode_message(SessionStart(d=2, n=2, tau_picoseconds=2000)),
                encode_message(
                    PermutationReveal(block_id=0, indices=(1, 2, 3, 4))
                ),
            ]
        )
        with pytest.raises(ProtocolError, match="before"):
            run_bob(settings, channel, duplex)

    def test_dimension_mismatch_aborts(self):
        settings = noiseless_settings(d=4, n=16)
        channel = SimulatedChannel(settings.physical, seed=0)
        duplex = ScriptedDuplex(
            [encode_message(SessionStart(d=8, n=16, tau_picoseconds=2000))]
        )
        with pytest.raises(ProtocolError, match="dimension mismatch"):
            run_bob(settings, channel, duplex)

    def test_malformed_permutation_aborts(self):
        settings = noiseless_settings(d=2, n=2)
        channel = SimulatedChannel(settings.physical, seed=0)
        # announce, transmit, then reveal a non-bijection
        frame = encode_block(
            settings.protocol, KeyBlock([1, 2]), Permutation.identity(4), mu=50.0
        )
        channel.transmit(0, frame)
        duplex = ScriptedDuplex(
            [
                encode_message(SessionStart(d=2, n=2, tau_picoseconds=2000)),
                encode_message(BlockAnnounce(block_id=0)),
                encode_message(
                    PermutationReveal(block_id=0, indices=(1, 1, 3, 4))
                ),
            ]
        )
        with pytest.raises(ProtocolError, match="malformed permutation"):
            run_bob(settings, channel, duplex)

    def test_end_with_open_block_aborts(self):
        settings = noiseless_settings(d=2, n=2)
        channel = SimulatedChannel(settings.physical, seed=0)
        frame = encode_block(
            settings.protocol, KeyBlock([1, 2]), Permutation.identity(4), mu=50.0
        )
        channel.transmit(0, frame)
        duplex = ScriptedDuplex(
            [
                encode_message(SessionStart(d=2, n=2, tau_picoseconds=2000)),
                encode_message(BlockAnnounce(block_id=0)),
                encode_message(SessionEnd()),
            ]
        )
        with pytest.raises(ProtocolError, match="open block"):
            run_bob(settings, channel, duplex)


def scripted_bob(messages, blocks=1, transmissions=1):
    """Run Bob (d=2, n=2) on ``messages`` after ``transmissions`` copies of
    one block-0 frame have gone down the channel."""
    settings = noiseless_settings(d=2, n=2, blocks=blocks)
    channel = SimulatedChannel(settings.physical, seed=0)
    frame = encode_block(
        settings.protocol, KeyBlock([1, 2]), Permutation.identity(4), mu=50.0
    )
    for _ in range(transmissions):
        channel.transmit(0, frame)
    start = SessionStart(d=2, n=2, tau_picoseconds=2000)
    duplex = ScriptedDuplex([encode_message(m) for m in (start, *messages)])
    return run_bob(settings, channel, duplex)


class TestBlockSequence:
    def test_replayed_block_aborts(self):
        block_0 = [
            BlockAnnounce(block_id=0),
            PermutationReveal(block_id=0, indices=(1, 2, 3, 4)),
            EstimateReport(block_id=0, q_hat=0.0, v_hat=math.nan),
        ]
        with pytest.raises(ProtocolError, match="block 0 announced, expected block 1"):
            scripted_bob(block_0 * 3, transmissions=3)

    def test_estimate_for_another_block_aborts(self):
        messages = [
            BlockAnnounce(block_id=0),
            PermutationReveal(block_id=0, indices=(1, 2, 3, 4)),
            EstimateReport(block_id=5, q_hat=0.0, v_hat=math.nan),
        ]
        with pytest.raises(ProtocolError, match="estimate for block 5"):
            scripted_bob(messages)

    def test_early_session_end_aborts(self):
        with pytest.raises(ProtocolError, match="after 0 of 3 blocks"):
            scripted_bob([SessionEnd()], blocks=3, transmissions=0)


class TestAliceSampling:
    def run_with_report(self, entries):
        settings = SessionSettings(
            protocol=ProtocolParams(d=2, n=4, tau=2e-9),
            physical=PhysicalParams.noiseless(),
            blocks=1,
            sample_fraction=0.5,
        )
        duplex = ScriptedDuplex(
            [
                encode_message(DetectionReportMsg(block_id=0, entries=entries)),
                encode_message(EstimateReport(block_id=0, q_hat=math.nan, v_hat=0.95)),
            ]
        )
        channel = SimulatedChannel(settings.physical, seed=0)
        summary = run_alice(settings, [KeyBlock([1, 2, 1, 2])], channel, duplex, seed=0)
        return summary.q_hat

    def test_sampled_qudits_do_not_depend_on_report_order(self):
        # qudit 0 (sent 1, received 2) is the one sampled at every=2
        assert self.run_with_report(((0, 2), (3, 2))) == 1.0
        assert self.run_with_report(((3, 2), (0, 2))) == 1.0


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


class TestTranscriptValidator:
    def test_flags_reveal_before_quantum(self):
        t = Transcript()
        t.record(Transcript.A_TO_B, SessionStart(d=2, n=2, tau_picoseconds=2000))
        t.record(Transcript.A_TO_B, BlockAnnounce(block_id=0))
        t.record(Transcript.A_TO_B, PermutationReveal(block_id=0, indices=(1, 2, 3, 4)))
        t.record(Transcript.QUANTUM, 0)
        t.record(Transcript.B_TO_A, DetectionReportMsg(block_id=0, entries=()))
        t.record(Transcript.A_TO_B, SessionEnd())
        violations = validate_transcript(t)
        assert any("before transmission" in v for v in violations)

    def test_flags_report_before_reveal(self):
        t = Transcript()
        t.record(Transcript.A_TO_B, SessionStart(d=2, n=2, tau_picoseconds=2000))
        t.record(Transcript.A_TO_B, BlockAnnounce(block_id=0))
        t.record(Transcript.QUANTUM, 0)
        t.record(Transcript.B_TO_A, DetectionReportMsg(block_id=0, entries=()))
        t.record(Transcript.A_TO_B, PermutationReveal(block_id=0, indices=(1, 2, 3, 4)))
        t.record(Transcript.A_TO_B, SessionEnd())
        violations = validate_transcript(t)
        assert any("precedes reveal" in v for v in violations)

    def test_accepts_recorded_real_session(self):
        _, _, transcript = run_session(noiseless_settings(blocks=3), seed=1)
        assert validate_transcript(transcript) == []


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
        proto = ProtocolParams(d=4, n=64, tau=2e-9)
        phys = PhysicalParams(
            mu=0.09, t_ch=1.0, xi=0.9, f_mon=0.1, t_dead=0.0
        ).with_target_qslot(0.01, 4)
        settings = SessionSettings(
            protocol=proto, physical=phys, blocks=20, sample_fraction=0.5
        )
        alice_seed, channel_seed = np.random.SeedSequence(7).spawn(2)
        channel = SimulatedChannel(phys, channel_seed)
        left, right = socket.socketpair()
        with left, right, ThreadPoolExecutor(max_workers=1) as pool:
            left.settimeout(10.0)
            right.settimeout(10.0)
            bob_run = pool.submit(run_bob, settings, channel, StreamDuplex(right))
            alice = run_alice(settings, None, channel, StreamDuplex(left), seed=alice_seed)
            bob = bob_run.result(timeout=10.0)
        ref_alice, ref_bob, _ = run_session(settings, seed=7)
        assert alice.sifted_count > 0
        np.testing.assert_equal(asdict(alice), asdict(ref_alice))
        np.testing.assert_equal(asdict(bob), asdict(ref_bob))


class TestPinnedTranscripts:
    """Wire transcripts and sifted strings recorded with the earlier
    two-thread session, which the single-threaded one must reproduce."""

    @staticmethod
    def check(settings, seed, digest, entries, sifted):
        alice, bob, transcript = run_session(settings, seed=seed)
        assert hashlib.sha256(transcript.wire_bytes()).hexdigest() == digest
        assert len(transcript.entries) == entries
        assert alice.sifted == sifted
        assert bob.sifted == sifted
        assert validate_transcript(transcript) == []

    def test_noiseless_session(self):
        self.check(
            noiseless_settings(d=4, n=8, blocks=5),
            42,
            "57425406c758142b9f0b76c1aa71e0ab1ee85622560c25765770ed59bdf062fa",
            32,
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
        self.check(
            settings,
            config.seed,
            "a4decb1ab2de7265ee3861e295f705c8194c29612407ce08be34593f06ba3a0b",
            602,
            (7, 3, 7, 8, 8, 8, 8, 1),
        )


class TestSessionEstimates:
    """Estimator quality over whole sessions."""

    def test_noiseless_run_has_no_errors(self):
        settings = SessionSettings(
            protocol=ProtocolParams(d=8, n=32, tau=2e-9),
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
            protocol=ProtocolParams(d=8, n=64, tau=2e-9), physical=phys, blocks=1500
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
            protocol=ProtocolParams(d=2, n=512, tau=2e-9), physical=phys, blocks=1000
        )
        _, bob, _ = run_session(settings, seed=4)
        assert abs(bob.v_hat - 0.99) < 3 * bob.v_stderr

    @pytest.mark.filterwarnings("ignore:mu\\*t_ch")
    def test_error_shrinks_with_sample_size(self):
        phys = PhysicalParams(
            mu=0.3, t_ch=1.0, f_mon=0.0, t_dead=0.0
        ).with_target_qslot(0.01, 4)

        def alice_after(blocks):
            settings = SessionSettings(
                protocol=ProtocolParams(d=4, n=64, tau=2e-9), physical=phys, blocks=blocks
            )
            return run_session(settings, seed=2)[0]

        small = alice_after(30)
        large = alice_after(3000)
        assert abs(small.q_hat - 0.01) < 3 * small.q_stderr
        assert abs(large.q_hat - 0.01) < 3 * large.q_stderr
        # binomial stderr shrinks like 1/sqrt(N): 100x samples ~ 10x smaller
        assert large.q_stderr < small.q_stderr / 5
