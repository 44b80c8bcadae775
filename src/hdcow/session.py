"""End-to-end protocol sessions: endpoint state machines, in-process
transport, quantum-channel handle, and transcript validation.

Per block the classical exchange is lockstep::

    A->B  BLOCK_ANNOUNCE
    (quantum transmission of the block's pulse frame)
    A->B  PERMUTATION_REVEAL
    B->A  DETECTION_REPORT
    B->A  ESTIMATE_REPORT   (visibility side; error field NaN)
    A->B  ESTIMATE_REPORT   (error side; echoes the visibility)

The receiver refuses a reveal for any block it has not announced and
measured, which is the ordering invariant the transcript validator
checks offline.  The quantum channel and detectors sit behind a handle
injected into both endpoints so the same state machines can drive an
in-process simulation or external hardware.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    DetectorState,
    MonitorTally,
    PhysicalParams,
    decode_frame,
    estimate_qber,
    estimate_visibility,
    monitor_tally,
    transmit_frame,
)
from .errors import DecodeError, InvalidArgumentError, ProtocolError, UndefinedEstimateError
from .protocol import (
    DetectionReport,
    KeyBlock,
    Permutation,
    ProtocolParams,
    PulseFrame,
    SeededByteSource,
    encode_block,
    make_permutation,
    sift_block,
)
from .security import eve_optimal_holevo
from .wire import (
    BlockAnnounce,
    DetectionReportMsg,
    EstimateReport,
    Message,
    PermutationReveal,
    SessionEnd,
    SessionStart,
    encode_message,
    read_message,
)

__all__ = [
    "SessionSettings",
    "SessionSummary",
    "Transcript",
    "QueuePipe",
    "pipe_pair",
    "StreamDuplex",
    "SimulatedChannel",
    "run_alice",
    "run_bob",
    "run_session",
    "validate_transcript",
]

_RECV_TIMEOUT = 120.0


@dataclass(frozen=True)
class SessionSettings:
    protocol: ProtocolParams
    physical: PhysicalParams
    blocks: int
    sample_fraction: float = 1.0

    def __post_init__(self):
        if self.blocks < 1:
            raise InvalidArgumentError("blocks must be >= 1")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise InvalidArgumentError("sample_fraction outside (0, 1]")

    @property
    def sample_every(self) -> int:
        return max(1, round(1.0 / self.sample_fraction))


@dataclass
class SessionSummary:
    role: str
    d: int
    n: int
    blocks: int
    total_slots: int
    sifted: tuple
    q_hat: float
    q_stderr: float
    v_hat: float
    v_stderr: float
    detected_rate: float
    secure_bits_per_detection: float
    secure_bits_per_second: float

    @property
    def sifted_count(self) -> int:
        return len(self.sifted)


class QueuePipe:
    """One direction of an in-process ordered reliable byte stream."""

    def __init__(self):
        self._chunks: queue.Queue = queue.Queue()
        self._buffer = bytearray()

    def send(self, data: bytes) -> None:
        self._chunks.put(bytes(data))

    def recv_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            try:
                chunk = self._chunks.get(timeout=_RECV_TIMEOUT)
            except queue.Empty:
                raise ProtocolError("peer silent: receive timed out") from None
            self._buffer.extend(chunk)
        out = bytes(self._buffer[:count])
        del self._buffer[:count]
        return out


class _DuplexEnd:
    def __init__(self, tx: QueuePipe, rx: QueuePipe):
        self._tx = tx
        self._rx = rx

    def send(self, data: bytes) -> None:
        self._tx.send(data)

    def recv_exact(self, count: int) -> bytes:
        return self._rx.recv_exact(count)


def pipe_pair() -> tuple[_DuplexEnd, _DuplexEnd]:
    """In-process duplex: returns (alice end, bob end)."""
    a_to_b = QueuePipe()
    b_to_a = QueuePipe()
    return _DuplexEnd(a_to_b, b_to_a), _DuplexEnd(b_to_a, a_to_b)


class StreamDuplex:
    """Adapter running the session over any stream socket."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_exact(self, count: int) -> bytes:
        out = bytearray()
        while len(out) < count:
            chunk = self._sock.recv(count - len(out))
            if not chunk:
                raise ProtocolError("stream closed mid-frame")
            out.extend(chunk)
        return bytes(out)


class Transcript:
    """Thread-safe ordered record of classical messages and quantum
    transmission markers."""

    A_TO_B = "a->b"
    B_TO_A = "b->a"
    QUANTUM = "quantum"

    def __init__(self):
        self.entries: list[tuple[str, object]] = []
        self._lock = threading.Lock()

    def record(self, direction: str, item) -> None:
        with self._lock:
            self.entries.append((direction, item))

    def wire_bytes(self) -> bytes:
        """Concatenated encoding of the classical messages, for
        byte-level determinism checks."""
        out = bytearray()
        for direction, item in self.entries:
            if direction != self.QUANTUM:
                out.extend(encode_message(item))
        return bytes(out)


def validate_transcript(transcript: Transcript) -> list[str]:
    """Check the ordering invariant; returns a list of violations."""
    violations = []
    entries = transcript.entries
    if not entries:
        return ["empty transcript"]
    if not (entries[0][0] == Transcript.A_TO_B and isinstance(entries[0][1], SessionStart)):
        violations.append("transcript does not open with SESSION_START")
    classical = [e for e in entries if e[0] != Transcript.QUANTUM]
    if not isinstance(classical[-1][1], SessionEnd):
        violations.append("transcript does not close with SESSION_END")

    def positions(pred):
        return {getattr(item, "block_id"): k for k, (_, item) in enumerate(entries) if pred(item)}

    announced = positions(lambda m: isinstance(m, BlockAnnounce))
    revealed = positions(lambda m: isinstance(m, PermutationReveal))
    reported = positions(lambda m: isinstance(m, DetectionReportMsg))
    quantum = {item: k for k, (tag, item) in enumerate(entries) if tag == Transcript.QUANTUM}

    for block_id, k_reveal in revealed.items():
        k_q = quantum.get(block_id)
        if k_q is None:
            violations.append(f"block {block_id}: revealed without quantum transmission")
            continue
        if not k_q < k_reveal:
            violations.append(f"block {block_id}: permutation revealed before transmission")
        k_rep = reported.get(block_id)
        if k_rep is None:
            violations.append(f"block {block_id}: no detection report")
        elif not k_reveal < k_rep:
            violations.append(f"block {block_id}: detection report precedes reveal")
        k_ann = announced.get(block_id)
        if k_ann is None or not k_ann < k_q:
            violations.append(f"block {block_id}: transmission precedes announcement")
    return violations


@dataclass
class _QuantumDelivery:
    block_id: int
    clicks: object
    occupancy: np.ndarray
    prev_occupied: bool
    last_monitor_click: int


class SimulatedChannel:
    """In-process quantum channel handle.

    The transmitter side pushes pulse frames through the Monte Carlo
    channel; the receiver side pulls the resulting click record.  The
    frame occupancy rides along for post-reveal monitor classification,
    which stands in for the disclosure a hardware system would perform
    on estimation blocks.
    """

    def __init__(
        self,
        phys: PhysicalParams,
        seed,
        transcript: Transcript | None = None,
    ):
        self.phys = phys
        self._rng = np.random.default_rng(seed)
        self._state = DetectorState()
        self._deliveries: queue.Queue = queue.Queue()
        self._transcript = transcript

    def transmit(self, block_id: int, frame: PulseFrame) -> None:
        prev_occupied = self._state.prev_occupied
        last_mon = self._state.last_monitor_click
        clicks = transmit_frame(frame, self.phys, self._rng, self._state)
        if self._transcript is not None:
            self._transcript.record(Transcript.QUANTUM, block_id)
        self._deliveries.put(
            _QuantumDelivery(
                block_id=block_id,
                clicks=clicks,
                occupancy=frame.occupancy,
                prev_occupied=prev_occupied,
                last_monitor_click=last_mon,
            )
        )

    def receive(self, block_id: int) -> _QuantumDelivery:
        try:
            delivery = self._deliveries.get(timeout=_RECV_TIMEOUT)
        except queue.Empty:
            raise ProtocolError(
                f"no quantum transmission observed for block {block_id}"
            ) from None
        if delivery.block_id != block_id:
            raise ProtocolError(
                f"quantum block {delivery.block_id} does not match announced {block_id}"
            )
        return delivery


class _Endpoint:
    def __init__(self, duplex, transcript: Transcript | None, direction: str):
        self._duplex = duplex
        self._transcript = transcript
        self._direction = direction

    def send(self, message: Message) -> None:
        if self._transcript is not None:
            self._transcript.record(self._direction, message)
        self._duplex.send(encode_message(message))

    def recv(self) -> Message:
        try:
            return read_message(self._duplex.recv_exact)
        except DecodeError as exc:
            raise ProtocolError(f"malformed message: {exc}") from exc


def _is_sampled(block_id: int, qudit: int, every: int) -> bool:
    return (block_id + qudit) % every == 0


def run_alice(
    settings: SessionSettings,
    block_source,
    channel: SimulatedChannel,
    duplex,
    transcript: Transcript | None = None,
    seed=None,
) -> SessionSummary:
    """Drive the transmitter side of a session.

    ``block_source`` yields :class:`KeyBlock` instances; pass ``None``
    to generate random blocks from ``seed``.
    """
    proto = settings.protocol
    endpoint = _Endpoint(duplex, transcript, Transcript.A_TO_B)
    rng = np.random.default_rng(seed)
    perm_source = SeededByteSource(rng.integers(0, 2**63))
    if block_source is None:
        block_source = (KeyBlock.random(proto, rng) for _ in range(settings.blocks))

    endpoint.send(
        SessionStart(
            d=proto.d, n=proto.n, tau_picoseconds=round(proto.tau * 1e12)
        )
    )
    sifted: list[int] = []
    sampled_mine: list[int] = []
    sampled_theirs: list[int] = []
    q_hat = q_err = float("nan")
    v_hat = v_err = float("nan")
    kept_total = 0

    blocks_iter = iter(block_source)
    for block_id in range(settings.blocks):
        block = next(blocks_iter)
        block.validate(proto)
        endpoint.send(BlockAnnounce(block_id=block_id))
        sigma = make_permutation(proto.slot_count, perm_source)
        frame = encode_block(proto, block, sigma, settings.physical.mu)
        channel.transmit(block_id, frame)
        endpoint.send(PermutationReveal(block_id=block_id, indices=sigma.map_))

        report = _expect(endpoint.recv(), DetectionReportMsg, block_id)
        bob_estimate = _expect(endpoint.recv(), EstimateReport, block_id)
        v_hat = bob_estimate.v_hat

        alice_syms, bob_syms = sift_block(
            block, DetectionReport(report.entries), proto.d
        )
        sifted.extend(alice_syms)
        kept_total += len(alice_syms)
        # sift_block orders by qudit index, so the entries must be too
        for (i, _j), a_sym, b_sym in zip(
            sorted(report.entries), alice_syms, bob_syms
        ):
            if _is_sampled(block_id, i, settings.sample_every):
                sampled_mine.append(a_sym)
                sampled_theirs.append(b_sym)
        if sampled_mine:
            q_hat, q_err = estimate_qber(sampled_mine, sampled_theirs, proto.d)
        endpoint.send(EstimateReport(block_id=block_id, q_hat=q_hat, v_hat=v_hat))
    endpoint.send(SessionEnd())

    return _summary(
        "alice", settings, sifted, q_hat, q_err, v_hat, v_err, kept_total
    )


def run_bob(
    settings: SessionSettings,
    channel: SimulatedChannel,
    duplex,
    transcript: Transcript | None = None,
) -> SessionSummary:
    """Drive the receiver side of a session."""
    proto = settings.protocol
    endpoint = _Endpoint(duplex, transcript, Transcript.B_TO_A)

    start = endpoint.recv()
    if not isinstance(start, SessionStart):
        raise ProtocolError(f"expected SESSION_START, got {type(start).__name__}")
    if (start.d, start.n) != (proto.d, proto.n):
        raise ProtocolError(
            f"dimension mismatch: peer ({start.d}, {start.n}) vs local "
            f"({proto.d}, {proto.n})"
        )
    if start.tau_picoseconds != round(proto.tau * 1e12):
        raise ProtocolError("slot duration mismatch")

    sifted: list[int] = []
    tally = MonitorTally()
    pending: _QuantumDelivery | None = None
    q_hat = q_err = float("nan")
    v_hat = v_err = float("nan")
    kept_total = 0
    finished = False

    while not finished:
        message = endpoint.recv()
        if isinstance(message, BlockAnnounce):
            if pending is not None:
                raise ProtocolError(
                    f"block {message.block_id} announced while block "
                    f"{pending.block_id} is still open"
                )
            pending = channel.receive(message.block_id)
        elif isinstance(message, PermutationReveal):
            if pending is None or pending.block_id != message.block_id:
                raise ProtocolError(
                    f"permutation for block {message.block_id} revealed before "
                    "its quantum transmission was measured"
                )
            try:
                sigma = Permutation(message.values())
                if len(sigma) != proto.slot_count:
                    raise InvalidArgumentError("permutation length mismatch")
            except InvalidArgumentError as exc:
                raise ProtocolError(f"malformed permutation reveal: {exc}") from exc
            report = decode_frame(proto, sigma, pending.clicks)
            sifted.extend(j for _i, j in report.entries)
            kept_total += len(report.entries)
            tally.add(
                monitor_tally(
                    pending.occupancy,
                    pending.prev_occupied,
                    pending.clicks,
                    settings.physical,
                    pending.last_monitor_click,
                )
            )
            try:
                v_hat, v_err = estimate_visibility(
                    tally.n_int, tally.exp_int, tally.n_non, tally.exp_non
                )
            except UndefinedEstimateError:
                v_hat = v_err = float("nan")
            endpoint.send(
                DetectionReportMsg(block_id=message.block_id, entries=report.entries)
            )
            endpoint.send(
                EstimateReport(
                    block_id=message.block_id, q_hat=float("nan"), v_hat=v_hat
                )
            )
            pending = None
        elif isinstance(message, EstimateReport):
            q_hat = message.q_hat
        elif isinstance(message, SessionEnd):
            if pending is not None:
                raise ProtocolError("session ended with an open block")
            finished = True
        else:
            raise ProtocolError(f"unexpected message {type(message).__name__}")

    return _summary("bob", settings, sifted, q_hat, q_err, v_hat, v_err, kept_total)


def _expect(message: Message, expected_type, block_id: int):
    if not isinstance(message, expected_type):
        raise ProtocolError(
            f"expected {expected_type.__name__}, got {type(message).__name__}"
        )
    if message.block_id != block_id:
        raise ProtocolError(
            f"{expected_type.__name__} for block {message.block_id}, expected {block_id}"
        )
    return message


def _summary(
    role, settings, sifted, q_hat, q_err, v_hat, v_err, kept_total
) -> SessionSummary:
    proto = settings.protocol
    total_slots = settings.blocks * proto.slot_count
    duration = total_slots * proto.tau
    detected_rate = kept_total / duration if duration > 0 else 0.0
    q_for_rate = q_hat if not math.isnan(q_hat) else 0.0
    q_for_rate = min(max(q_for_rate, 0.0), 1.0 / (proto.d - 1))
    v_for_rate = v_hat if not math.isnan(v_hat) else settings.physical.v_true
    per_detection = eve_optimal_holevo(
        proto.d, q_for_rate, settings.physical.mu, v_for_rate
    ).secure_fraction
    return SessionSummary(
        role=role,
        d=proto.d,
        n=proto.n,
        blocks=settings.blocks,
        total_slots=total_slots,
        sifted=tuple(sifted),
        q_hat=q_hat,
        q_stderr=q_err,
        v_hat=v_hat,
        v_stderr=v_err,
        detected_rate=detected_rate,
        secure_bits_per_detection=per_detection,
        secure_bits_per_second=detected_rate * per_detection,
    )


def run_session(
    settings: SessionSettings, seed=0
) -> tuple[SessionSummary, SessionSummary, Transcript]:
    """Run both endpoints concurrently over an in-process duplex.

    Returns (alice summary, bob summary, transcript); endpoint errors
    propagate to the caller.
    """
    seq = np.random.SeedSequence(seed)
    alice_seed, channel_seed = seq.spawn(2)
    transcript = Transcript()
    channel = SimulatedChannel(settings.physical, channel_seed, transcript)
    alice_end, bob_end = pipe_pair()
    results: dict[str, SessionSummary] = {}
    errors: dict[str, BaseException] = {}

    def alice_main():
        try:
            results["alice"] = run_alice(
                settings, None, channel, alice_end, transcript, seed=alice_seed
            )
        except BaseException as exc:  # surfaced after join
            errors["alice"] = exc

    def bob_main():
        try:
            results["bob"] = run_bob(settings, channel, bob_end, transcript)
        except BaseException as exc:
            errors["bob"] = exc

    threads = [
        threading.Thread(target=alice_main, name="hdcow-alice", daemon=True),
        threading.Thread(target=bob_main, name="hdcow-bob", daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=_RECV_TIMEOUT * 2)
    if errors:
        role, exc = next(iter(errors.items()))
        raise ProtocolError(f"{role} endpoint aborted: {exc}") from exc
    if len(results) != 2:
        raise ProtocolError("session did not complete")
    return results["alice"], results["bob"], transcript
