"""End-to-end protocol sessions: endpoint state machines, their drivers,
in-process transport, quantum-channel handle, and transcript validation.

Per block the classical exchange is lockstep::

    A->B  BLOCK_ANNOUNCE
    (quantum transmission of the block's pulse frame)
    A->B  PERMUTATION_REVEAL
    B->A  DETECTION_REPORT
    B->A  ESTIMATE_REPORT   (visibility side; error field NaN)
    A->B  ESTIMATE_REPORT   (error side; echoes the visibility)

Alice and Bob are state machines without I/O: each takes one received
message and returns what to send, in order.  Alice's output carries her
block frames between the announce and the reveal; Bob reads a block's
clicks from the channel handle when its reveal arrives, by which time
Alice has transmitted.  So no endpoint ever waits for the other:
``run_session`` drives both in one thread through two in-process byte
pipes, and ``run_alice``/``run_bob`` drive one over any duplex, such as
``StreamDuplex`` on a socket.  A fault raises at once, in the thread
that drives the failing endpoint.

The receiver accepts blocks only in sequence and refuses a reveal for a
block it has not announced, which is the ordering invariant the
transcript validator checks offline.  The quantum channel and detectors
sit behind a handle injected into both endpoints so the same state
machines can drive an in-process simulation or external hardware.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

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
    "StreamDuplex",
    "SimulatedChannel",
    "run_alice",
    "run_bob",
    "run_session",
    "validate_transcript",
]


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
    """One direction of an in-process ordered reliable byte stream.

    Its reader runs in the writer's thread, so bytes that are not there
    yet will never come: asking for them raises at once.
    """

    def __init__(self):
        self._buffer = bytearray()

    def send(self, data: bytes) -> None:
        self._buffer.extend(data)

    def recv_exact(self, count: int) -> bytes:
        if len(self._buffer) < count:
            raise ProtocolError(
                f"read of {count} bytes from a pipe holding {len(self._buffer)}"
            )
        out = bytes(self._buffer[:count])
        del self._buffer[:count]
        return out


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
    """Ordered record of classical messages and quantum transmission
    markers."""

    A_TO_B = "a->b"
    B_TO_A = "b->a"
    QUANTUM = "quantum"

    def __init__(self):
        self.entries: list[tuple[str, object]] = []

    def record(self, direction: str, item) -> None:
        self.entries.append((direction, item))

    def messages(self) -> list[Message]:
        """The classical messages in order, without quantum markers."""
        return [item for direction, item in self.entries if direction != self.QUANTUM]

    def wire_bytes(self) -> bytes:
        """Concatenated encoding of the classical messages, for
        byte-level determinism checks."""
        return b"".join(encode_message(message) for message in self.messages())


def validate_transcript(transcript: Transcript) -> list[str]:
    """Check the ordering invariant; returns a list of violations."""
    violations = []
    entries = transcript.entries
    if not entries:
        return ["empty transcript"]
    if not (entries[0][0] == Transcript.A_TO_B and isinstance(entries[0][1], SessionStart)):
        violations.append("transcript does not open with SESSION_START")
    messages = transcript.messages()
    if not (messages and isinstance(messages[-1], SessionEnd)):
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
    channel; the receiver side pulls the resulting click records in
    order, and asking for one that was never transmitted raises.  The
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
        self._deliveries: deque[_QuantumDelivery] = deque()
        self._transcript = transcript

    def transmit(self, block_id: int, frame: PulseFrame) -> None:
        prev_occupied = self._state.prev_occupied
        last_mon = self._state.last_monitor_click
        clicks = transmit_frame(frame, self.phys, self._rng, self._state)
        if self._transcript is not None:
            self._transcript.record(Transcript.QUANTUM, block_id)
        self._deliveries.append(
            _QuantumDelivery(
                block_id=block_id,
                clicks=clicks,
                occupancy=frame.occupancy,
                prev_occupied=prev_occupied,
                last_monitor_click=last_mon,
            )
        )

    def receive(self, block_id: int) -> _QuantumDelivery:
        if not self._deliveries:
            raise ProtocolError(f"no quantum transmission observed for block {block_id}")
        delivery = self._deliveries.popleft()
        if delivery.block_id != block_id:
            raise ProtocolError(
                f"quantum block {delivery.block_id} does not match announced {block_id}"
            )
        return delivery


@dataclass(frozen=True)
class _Transmit:
    """An endpoint's request to send a block's frame down the quantum
    channel, placed among its outgoing messages."""

    block_id: int
    frame: PulseFrame


class _Link:
    """An endpoint's side of the classical channel: sends its output,
    records it in the transcript, and reads the peer's messages."""

    def __init__(self, tx, rx, transcript: Transcript | None, direction: str, channel):
        self._tx = tx
        self._rx = rx
        self._transcript = transcript
        self._direction = direction
        self._channel = channel

    def send(self, items: list) -> int:
        """Send messages and transmit frames in order; returns the number
        of messages sent."""
        sent = 0
        for item in items:
            if isinstance(item, _Transmit):
                self._channel.transmit(item.block_id, item.frame)
                continue
            if self._transcript is not None:
                self._transcript.record(self._direction, item)
            self._tx.send(encode_message(item))
            sent += 1
        return sent

    def recv(self) -> Message:
        try:
            return read_message(self._rx.recv_exact)
        except DecodeError as exc:
            raise ProtocolError(f"malformed message: {exc}") from exc


def _is_sampled(block_id: int, qudit: int, every: int) -> bool:
    return (block_id + qudit) % every == 0


class _Alice:
    """Transmitter state machine.  ``start()`` and ``receive(message)``
    return the messages to send and the frames to transmit, in order;
    ``summary`` is set once the session has ended."""

    role = "alice"

    def __init__(self, settings: SessionSettings, block_source, seed):
        self._settings = settings
        proto = settings.protocol
        rng = np.random.default_rng(seed)
        self._perm_source = SeededByteSource(rng.integers(0, 2**63))
        if block_source is None:
            block_source = (KeyBlock.random(proto, rng) for _ in range(settings.blocks))
        self._blocks = iter(block_source)
        self._block_id = 0
        self._block: KeyBlock | None = None
        self._report: DetectionReportMsg | None = None
        self._sifted: list[int] = []
        self._sampled_mine: list[int] = []
        self._sampled_theirs: list[int] = []
        self._q_hat = self._q_err = float("nan")
        self._v_hat = float("nan")
        self.summary: SessionSummary | None = None

    def start(self) -> list:
        proto = self._settings.protocol
        start = SessionStart(d=proto.d, n=proto.n, tau_picoseconds=round(proto.tau * 1e12))
        return [start, *self._open_block()]

    def _open_block(self) -> list:
        proto = self._settings.protocol
        self._block = next(self._blocks)
        self._block.validate(proto)
        sigma = make_permutation(proto.slot_count, self._perm_source)
        frame = encode_block(proto, self._block, sigma, self._settings.physical.mu)
        block_id = self._block_id
        return [
            BlockAnnounce(block_id=block_id),
            _Transmit(block_id, frame),
            PermutationReveal(block_id=block_id, indices=sigma.map_),
        ]

    def receive(self, message: Message) -> list:
        block_id = self._block_id
        if self._report is None:
            self._report = _expect(message, DetectionReportMsg, block_id)
            return []
        self._v_hat = _expect(message, EstimateReport, block_id).v_hat
        settings = self._settings
        alice_syms, bob_syms = sift_block(
            self._block, DetectionReport(self._report.entries), settings.protocol.d
        )
        self._sifted.extend(alice_syms)
        # sift_block orders by qudit index, so the entries must be too
        for (i, _j), a_sym, b_sym in zip(sorted(self._report.entries), alice_syms, bob_syms):
            if _is_sampled(block_id, i, settings.sample_every):
                self._sampled_mine.append(a_sym)
                self._sampled_theirs.append(b_sym)
        if self._sampled_mine:
            self._q_hat, self._q_err = estimate_qber(
                self._sampled_mine, self._sampled_theirs, settings.protocol.d
            )
        out = [EstimateReport(block_id=block_id, q_hat=self._q_hat, v_hat=self._v_hat)]
        self._report = None
        self._block_id += 1
        if self._block_id < settings.blocks:
            return out + self._open_block()
        self.summary = _summary(
            self.role, settings, self._sifted, self._q_hat, self._q_err,
            self._v_hat, float("nan"),
        )
        return out + [SessionEnd()]


class _Bob:
    """Receiver state machine.  ``receive(message)`` returns the messages
    to send; a reveal pulls its block's clicks from ``channel``.
    ``summary`` is set once the session has ended."""

    role = "bob"

    def __init__(self, settings: SessionSettings, channel):
        self._settings = settings
        self._channel = channel
        self._started = False
        self._announced: int | None = None  # block announced, not yet revealed
        self._reported: int | None = None  # block reported, estimate not yet in
        self._blocks_done = 0
        self._sifted: list[int] = []
        self._tally = MonitorTally()
        self._q_hat = float("nan")
        self._v_hat = self._v_err = float("nan")
        self.summary: SessionSummary | None = None

    def start(self) -> list:
        return []

    def receive(self, message: Message) -> list:
        settings = self._settings
        proto = settings.protocol
        if not self._started:
            if not isinstance(message, SessionStart):
                raise ProtocolError(f"expected SESSION_START, got {type(message).__name__}")
            if (message.d, message.n) != (proto.d, proto.n):
                raise ProtocolError(
                    f"dimension mismatch: peer ({message.d}, {message.n}) vs local "
                    f"({proto.d}, {proto.n})"
                )
            if message.tau_picoseconds != round(proto.tau * 1e12):
                raise ProtocolError("slot duration mismatch")
            self._started = True
        elif isinstance(message, BlockAnnounce):
            if self._announced is not None:
                raise ProtocolError(
                    f"block {message.block_id} announced while block "
                    f"{self._announced} is still open"
                )
            if message.block_id != self._blocks_done or self._blocks_done == settings.blocks:
                raise ProtocolError(
                    f"block {message.block_id} announced, expected block {self._blocks_done} "
                    f"of {settings.blocks}"
                )
            self._announced = message.block_id
        elif isinstance(message, PermutationReveal):
            return self._measure(message)
        elif isinstance(message, EstimateReport):
            if message.block_id != self._reported:
                raise ProtocolError(
                    f"estimate for block {message.block_id}, expected one for block "
                    f"{self._reported}"
                )
            self._reported = None
            self._q_hat = message.q_hat
        elif isinstance(message, SessionEnd):
            if self._announced is not None:
                raise ProtocolError("session ended with an open block")
            if self._blocks_done < settings.blocks:
                raise ProtocolError(
                    f"session ended after {self._blocks_done} of {settings.blocks} blocks"
                )
            self.summary = _summary(
                self.role, settings, self._sifted, self._q_hat, float("nan"),
                self._v_hat, self._v_err,
            )
        else:
            raise ProtocolError(f"unexpected message {type(message).__name__}")
        return []

    def _measure(self, message: PermutationReveal) -> list:
        block_id = message.block_id
        if block_id != self._announced:
            raise ProtocolError(
                f"permutation for block {block_id} revealed before it was announced"
            )
        proto = self._settings.protocol
        try:
            sigma = Permutation(message.values())
            if len(sigma) != proto.slot_count:
                raise InvalidArgumentError("permutation length mismatch")
        except InvalidArgumentError as exc:
            raise ProtocolError(f"malformed permutation reveal: {exc}") from exc
        delivery = self._channel.receive(block_id)
        report = decode_frame(proto, sigma, delivery.clicks)
        self._sifted.extend(j for _i, j in report.entries)
        tally = self._tally
        tally.add(
            monitor_tally(
                delivery.occupancy,
                delivery.prev_occupied,
                delivery.clicks,
                self._settings.physical,
                delivery.last_monitor_click,
            )
        )
        try:
            self._v_hat, self._v_err = estimate_visibility(
                tally.n_int, tally.exp_int, tally.n_non, tally.exp_non
            )
        except UndefinedEstimateError:
            self._v_hat = self._v_err = float("nan")
        self._announced = None
        self._reported = block_id
        self._blocks_done += 1
        return [
            DetectionReportMsg(block_id=block_id, entries=report.entries),
            EstimateReport(block_id=block_id, q_hat=float("nan"), v_hat=self._v_hat),
        ]


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


def _drive(endpoint, link: _Link) -> SessionSummary:
    """Run one endpoint to the end of the session over a blocking link."""
    link.send(endpoint.start())
    while endpoint.summary is None:
        link.send(endpoint.receive(link.recv()))
    return endpoint.summary


def run_alice(
    settings: SessionSettings,
    block_source,
    channel: SimulatedChannel,
    duplex,
    transcript: Transcript | None = None,
    seed=None,
) -> SessionSummary:
    """Drive the transmitter side of a session over ``duplex``.

    ``block_source`` yields :class:`KeyBlock` instances; pass ``None``
    to generate random blocks from ``seed``.
    """
    link = _Link(duplex, duplex, transcript, Transcript.A_TO_B, channel)
    return _drive(_Alice(settings, block_source, seed), link)


def run_bob(
    settings: SessionSettings,
    channel: SimulatedChannel,
    duplex,
    transcript: Transcript | None = None,
) -> SessionSummary:
    """Drive the receiver side of a session over ``duplex``."""
    link = _Link(duplex, duplex, transcript, Transcript.B_TO_A, channel)
    return _drive(_Bob(settings, channel), link)


def _summary(role, settings, sifted, q_hat, q_err, v_hat, v_err) -> SessionSummary:
    proto = settings.protocol
    total_slots = settings.blocks * proto.slot_count
    duration = total_slots * proto.tau
    detected_rate = len(sifted) / duration if duration > 0 else 0.0
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


@contextmanager
def _aborts(role: str):
    """Re-raise an endpoint's error as a ProtocolError naming its role."""
    try:
        yield
    except Exception as exc:
        raise ProtocolError(f"{role} endpoint aborted: {exc}") from exc


def run_session(
    settings: SessionSettings, seed=0
) -> tuple[SessionSummary, SessionSummary, Transcript]:
    """Run both endpoints in this thread over two in-process pipes.

    Each turn one endpoint sends its output and the other reads and
    answers it message by message, so the session runs in protocol
    order with nothing to wait for.  Returns (alice summary, bob
    summary, transcript); an endpoint's error is raised at once as a
    :class:`ProtocolError` naming the endpoint, with the error as cause.
    """
    alice_seed, channel_seed = np.random.SeedSequence(seed).spawn(2)
    transcript = Transcript()
    channel = SimulatedChannel(settings.physical, channel_seed, transcript)
    to_bob, to_alice = QueuePipe(), QueuePipe()
    alice = _Alice(settings, None, alice_seed)
    bob = _Bob(settings, channel)
    links = {
        alice: _Link(to_bob, to_alice, transcript, Transcript.A_TO_B, channel),
        bob: _Link(to_alice, to_bob, transcript, Transcript.B_TO_A, channel),
    }
    sender, receiver = alice, bob
    with _aborts(alice.role):
        outgoing = alice.start()
    while outgoing:
        with _aborts(sender.role):
            sent = links[sender].send(outgoing)
        outgoing = []
        with _aborts(receiver.role):
            for _ in range(sent):
                outgoing += receiver.receive(links[receiver].recv())
        sender, receiver = receiver, sender
    if alice.summary is None or bob.summary is None:
        raise ProtocolError("session did not complete")
    return alice.summary, bob.summary, transcript
