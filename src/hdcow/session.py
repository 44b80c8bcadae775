"""End-to-end protocol sessions: endpoint state machines, their drivers,
in-process transport, quantum-channel handle, and transcript validation.

The blocks go out in trains: the frames of as many whole blocks as fit
in ``wire._BATCH_SLOTS`` slots, and at least one, sent back to back as
one continuous pulse train (``wire._train_blocks``).  The train is also
the unit of the classical exchange, which is lockstep::

    A->B  SESSION_START
    per train of blocks k, k+1, ..., k+m-1, with ids from 0 to B-1:
        (quantum transmission of the m frames, one after another)
        A->B  PERMUTATION_REVEAL  (block k; the m permutations, row after row)
        B->A  DETECTION_REPORT    (block k; qudit i of row r as r*n + i, and
                                   the monitor clicks as train slots)
    after the last train's report, once per session:
    A->B  ESTIMATE_REPORT   (Q from all sampled pairs, V from Alice's
                             monitor tally; it ends the session)

So a B-block session in trains of t blocks sends 2*ceil(B/t) + 2
messages, and the estimate carries the last block's id.  Both sides
derive t from SESSION_START's d and n, so each train's m is known: t,
or the blocks left for the last train.

Alice and Bob are state machines without I/O: each takes one received
message and returns what to send, in order.  Alice's output carries
each train just before its reveal; Bob reads the train's clicks from the
channel handle when its reveal arrives, by which time Alice has
transmitted.  So no endpoint ever waits for the other: ``run_session``
drives both in one thread through two in-process byte pipes, and
``run_alice``/``run_bob`` drive one over any duplex, such as
``StreamDuplex`` on a socket.  A fault raises at once, in the thread
that drives the failing endpoint.

Bob counts the blocks he has measured and refuses a reveal for any
train but the next one, or with any other number of rows.  The
transcript validator checks the same order offline: a transcript
recorded on Alice's side must be the sequence above, entry for entry,
with the train size that SESSION_START's d and n give.  An endpoint's
link is the one writer of its transcript: it records each message it
sends, each train it passes to the channel (a quantum marker per
block), and each message it reads, under the peer's direction.
``run_session`` records on Alice's side.

The quantum channel and detectors sit behind a handle injected into
both endpoints, so the same state machines can drive an in-process
simulation or external hardware.  The handle has two calls:
``transmit(first_block_id, occupancy)`` on Alice's side, which sends a
train given as its ``(m, d*n)`` bool occupancy, one frame per row for
the blocks from ``first_block_id`` on, and ``receive(first_block_id)
-> clicks`` on Bob's, which returns that train's
:class:`~hdcow.channel.ClickStream`: detector events only, as 0-based
slots of the train, as a receiver's time tagger gives them against its
frame sync.  Bob reports his monitor clicks, and Alice, who knows the
pulses, keeps the monitor tally.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import (
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
from .errors import DecodeError, InvalidArgumentError, ProtocolError, UndefinedEstimateError
from .protocol import (
    DetectionReport,
    Permutation,
    ProtocolParams,
    SeededByteSource,
    _check_symbols,
    encode_block,
    make_permutation,
    sift_block,
)
from .security import eve_optimal_holevo
from .wire import (
    DetectionReportMsg,
    EstimateReport,
    Message,
    PermutationReveal,
    SessionStart,
    _train_blocks,
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
        p, start = self.protocol, self.start
        for name, value, field, bits, unit in (
            ("d", p.d, p.d, 16, ""), ("n", p.n, p.n, 32, ""),
            ("tau", self.physical.tau, start.tau_picoseconds, 64, " of whole picoseconds"),
        ):
            if not 0 < field < 2**bits:  # a slot duration of 0 ps would not fit either
                raise InvalidArgumentError(
                    f"{name}={value} does not fit SESSION_START's u{bits}{unit}"
                )
        if self.blocks < 1:
            raise InvalidArgumentError(f"blocks={self.blocks} must be >= 1")
        f = self.sample_fraction
        if not 0.0 < f <= 1.0:
            raise InvalidArgumentError(f"sample_fraction={f} outside (0, 1]")
        if abs(f * round(1.0 / f) - 1.0) > 1e-9:
            k = math.floor(1.0 / f)
            raise InvalidArgumentError(
                f"sample_fraction={f} is not 1/k for an integer k; "
                f"the nearest allowed values are 1/{k + 1} and 1/{k}"
            )

    @property
    def sample_every(self) -> int:
        return round(1.0 / self.sample_fraction)

    @property
    def start(self) -> SessionStart:
        p = self.protocol
        return SessionStart(d=p.d, n=p.n, tau_picoseconds=round(self.physical.tau * 1e12))


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
    yet will never come: asking for them raises at once.  The pipe holds
    what is sent without copying it, and a read within one send returns
    a read-only view of it, so a message read as it was sent is never
    copied here; a read of exactly the rest of a send, such as a payload
    after its header, hands over the held view itself.
    """

    def __init__(self):
        self._chunks: deque[memoryview] = deque()
        self._held = 0

    def send(self, data: bytes) -> None:
        # bytes(...) copies a mutable buffer but returns bytes as they are
        self._chunks.append(memoryview(bytes(data)))
        self._held += len(data)

    def recv_exact(self, count: int) -> bytes | memoryview:
        if self._held < count:
            raise ProtocolError(
                f"read of {count} bytes from a pipe holding {self._held}"
            )
        self._held -= count
        chunks = self._chunks
        if chunks and len(chunks[0]) >= count:  # within the first send
            chunk = chunks[0]
            if len(chunk) == count:
                return chunks.popleft()
            chunks[0] = chunk[count:]
            return chunk[:count]
        parts = []  # the read spans sends
        while count:
            chunk = chunks[0]
            parts.append(chunk[:count])
            if len(chunk) > count:
                chunks[0] = chunk[count:]
                break
            chunks.popleft()
            count -= len(chunk)
        return b"".join(parts)


class StreamDuplex:
    """Adapter running the session over any stream socket."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_exact(self, count: int) -> bytearray:
        """Read exactly ``count`` bytes into one new buffer, which is
        returned without a further copy."""
        out = bytearray(count)
        with memoryview(out) as view:
            got = 0
            while got < count:
                size = self._sock.recv_into(view[got:])
                if not size:
                    raise ProtocolError("stream closed mid-frame")
                got += size
        return out


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


def _lockstep(blocks: int, train: int):
    """The entries of a ``blocks``-block session in trains of ``train``
    blocks, recorded on Alice's side, in order, each as (direction,
    message type or None for a quantum marker, block id or None)."""
    a_to_b = Transcript.A_TO_B
    yield a_to_b, SessionStart, None
    for first in range(0, blocks, train):
        for block_id in range(first, min(first + train, blocks)):
            yield Transcript.QUANTUM, None, block_id
        yield a_to_b, PermutationReveal, first
        yield Transcript.B_TO_A, DetectionReportMsg, first
    yield a_to_b, EstimateReport, blocks - 1


def _shape(entry) -> tuple:
    """A transcript entry in the form :func:`_lockstep` yields."""
    direction, item = entry
    if direction == Transcript.QUANTUM:
        return direction, None, item
    return direction, type(item), getattr(item, "block_id", None)


def _describe(shape) -> str:
    if shape is None:
        return "the end of the transcript"
    direction, kind, block_id = shape
    what = "quantum transmission" if kind is None else f"{direction} {kind.__name__}"
    return what if block_id is None else f"{what} of block {block_id}"


def validate_transcript(transcript: Transcript) -> list[str]:
    """Check a transcript recorded on Alice's side against the lockstep
    order of the module docstring, entry for entry: each entry's
    direction, message type and block id.  The block count B is the
    number of blocks transmitted: one more than the highest block id of
    a quantum marker, and 1 without any.  The train size comes from the
    d and n of a SESSION_START at the head through ``_train_blocks``, as
    Alice takes it (a train of one block without one, where the head
    departs anyway).  Returns the first entry that departs from that
    order as a one-item list, or ``[]``.  The expected entries are
    generated as they are compared, so the cost is bounded by the
    transcript's length, whatever block id it records.  Bob's own record
    holds no quantum markers, so it departs at its first block."""
    shapes = [_shape(entry) for entry in transcript.entries]
    blocks = 1 + max([0, *(shape[2] for shape in shapes if shape[0] == Transcript.QUANTUM)])
    head = transcript.entries[0][1] if transcript.entries else None
    slots = head.d * head.n if isinstance(head, SessionStart) else 0
    expected = _lockstep(blocks, _train_blocks(slots) if slots >= 1 else 1)
    for k, (got, want) in enumerate(itertools.zip_longest(shapes, expected)):
        if got != want:
            return [f"entry {k}: expected {_describe(want)}, got {_describe(got)}"]
    return []


class SimulatedChannel:
    """In-process quantum channel handle.

    The transmitter side pushes trains, each a ``(m, d*n)`` bool
    occupancy with one frame per row, through the Monte Carlo channel in
    one :func:`~hdcow.channel.transmit_frame` call and keeps only the
    click record; the receiver side pulls each train's click record in
    order, when the train's reveal arrives.  Asking for a train that was
    never transmitted, or for another first block than the next
    train's, raises.
    """

    def __init__(self, phys: PhysicalParams, seed):
        self.phys = phys
        self._rng = np.random.default_rng(seed)
        self._state = DetectorState()
        self._deliveries: deque[tuple[int, ClickStream]] = deque()

    def transmit(self, first_block_id: int, occupancy: np.ndarray) -> None:
        clicks = transmit_frame(occupancy, self.phys, self._rng, self._state)
        self._deliveries.append((first_block_id, clicks))

    def receive(self, first_block_id: int) -> ClickStream:
        if not self._deliveries:
            raise ProtocolError(f"no quantum transmission observed for block {first_block_id}")
        sent_id, clicks = self._deliveries.popleft()
        if sent_id != first_block_id:
            raise ProtocolError(
                f"quantum train of block {sent_id} does not match revealed {first_block_id}"
            )
        return clicks


@dataclass(frozen=True)
class _Transmit:
    """An endpoint's request to send a train down the quantum channel,
    placed among its outgoing messages: the ``(m, d*n)`` occupancy of the
    blocks from ``first_block_id`` on."""

    first_block_id: int
    occupancy: np.ndarray


class _Link:
    """An endpoint's side of the classical channel: sends its output,
    reads the peer's messages, and records both, with each train passed
    to the channel, in the transcript."""

    def __init__(self, tx, rx, transcript: Transcript | None, direction: str, channel, settings):
        self._tx = tx
        self._rx = rx
        self._proto = settings.protocol
        self._transcript = transcript
        self._direction = direction
        self._peer_direction = (
            Transcript.B_TO_A if direction == Transcript.A_TO_B else Transcript.A_TO_B
        )
        self._channel = channel

    def send(self, items: list) -> int:
        """Send messages and transmit trains in order; returns the number
        of messages sent."""
        sent = 0
        transcript = self._transcript
        for item in items:
            if isinstance(item, _Transmit):
                first = item.first_block_id
                self._channel.transmit(first, item.occupancy)
                if transcript is not None:
                    for block_id in range(first, first + len(item.occupancy)):
                        transcript.record(Transcript.QUANTUM, block_id)
                continue
            if transcript is not None:
                transcript.record(self._direction, item)
            self._tx.send(encode_message(item))
            sent += 1
        return sent

    def recv(self) -> Message:
        try:
            message = read_message(self._rx.recv_exact, self._proto.d, self._proto.n)
        except DecodeError as exc:
            raise ProtocolError(f"malformed message: {exc}") from exc
        if self._transcript is not None:
            self._transcript.record(self._peer_direction, message)
        return message


class _Alice:
    """Transmitter state machine.  ``start()`` and ``receive(message)``
    return the messages to send and the trains to transmit, in order;
    ``summary`` is set when her estimate ends the session.

    She works a train at a time (see ``_train_blocks``), on arrays with
    one block per row: the generated keys of a train come from one draw,
    its permutations from one byte-source call and one sort, its frames
    from one scatter and its reveal from one conversion.  The draws equal
    those of one block at a time, so the train size changes no block.  The
    train goes to the channel at once, before its reveal, and she keeps
    its ``(m, n)`` symbols, its occupancy and its reveal until Bob's
    report on it, whose monitor clicks she tallies.  Supplied blocks are
    symbol sequences, taken from ``block_source`` a train at a time and
    checked when their train is prepared; a source that runs dry fails
    at the train it cannot fill, before that train is sent."""

    role = "alice"

    def __init__(self, settings: SessionSettings, block_source, seed):
        self._settings = settings
        self._every = settings.sample_every  # qudit i of block b is sampled when every | b + i
        self._rng = np.random.default_rng(seed)
        self._perm_source = SeededByteSource(self._rng.integers(0, 2**63))
        self._supplied = None if block_source is None else iter(block_source)
        self._per_train = _train_blocks(settings.protocol.slot_count)
        self._block_id = 0  # the open train's first block
        self._symbols: np.ndarray | None = None  # the open train's, one block per row
        self._train = self._reveal = None  # the open train's _Transmit and PermutationReveal
        self._monitor = DetectorState()  # as the open train finds the channel's
        self._tally = MonitorTally()
        self._sifted: list[int] = []
        self._sampled_mine: list[int] = []
        self._sampled_theirs: list[int] = []
        self.summary: SessionSummary | None = None

    def start(self) -> list:
        return [self._settings.start, *self._open_train()]

    def _open_train(self) -> list:
        """Prepare the train from the current block on and return its
        transmission and its reveal."""
        settings = self._settings
        proto = settings.protocol
        first = self._block_id
        count = min(self._per_train, settings.blocks - first)
        if self._supplied is None:
            symbols = self._rng.integers(1, proto.d + 1, size=(count, proto.n))
        else:
            blocks = [
                np.asarray(block, dtype=np.int64)
                for block in itertools.islice(self._supplied, count)
            ]
            for block_id, block in enumerate(blocks, first):
                try:
                    if block.ndim != 1:
                        raise InvalidArgumentError("symbols must be a flat sequence")
                    _check_symbols(block, proto)
                except InvalidArgumentError as exc:
                    raise ProtocolError(f"supplied block {block_id}: {exc}") from exc
            if len(blocks) < count:
                raise ProtocolError(
                    f"block source ended after {first + len(blocks)} of {settings.blocks} blocks"
                )
            symbols = np.array(blocks)
        self._symbols = symbols
        maps = make_permutation(proto.slot_count, self._perm_source, count)
        self._train = _Transmit(first, encode_block(proto, symbols, maps))
        self._reveal = PermutationReveal.of_bijections(first, maps)
        return [self._train, self._reveal]

    def receive(self, message: Message) -> list:
        settings = self._settings
        first = self._block_id
        if not isinstance(message, DetectionReportMsg):
            raise ProtocolError(f"expected DetectionReportMsg, got {type(message).__name__}")
        if message.block_id != first:
            raise ProtocolError(
                f"DetectionReportMsg for block {message.block_id}, expected {first}"
            )
        entries = message.entries
        symbols = self._symbols.reshape(-1)
        alice_syms, _ = sift_block(symbols, DetectionReport(entries), settings.protocol.d)
        self._tally_monitor(message.monitor_slots, entries)
        self._sifted.extend(alice_syms)
        # The entries passed sift_block's checks.  The estimate counts
        # mismatches, so the sampled pairs may stay in the report's order.
        # Qudit g of the train is qudit g % n of block first + g // n.
        every, n = self._every, settings.protocol.n
        for g, j in entries:
            if (first + g // n + g % n) % every == 0:
                self._sampled_mine.append(int(symbols[g]))
                self._sampled_theirs.append(j)
        self._block_id += len(self._symbols)
        return self._open_train() if self._block_id < settings.blocks else [self._finish()]

    def _tally_monitor(self, monitor: tuple, entries) -> None:
        """Check the monitor clicks Bob reports on the open train and add
        them to the tally.  They must be strictly increasing slots of the
        train, and none may name a qudit that the report keeps: the
        reveal's values give the slots of each kept qudit's symbols."""
        occupancy = self._train.occupancy
        slots = occupancy.size
        if monitor:
            if any(a >= b for a, b in zip(monitor, monitor[1:])):
                raise ProtocolError(f"monitor clicks {monitor} are not strictly increasing")
            if monitor[0] < 0 or monitor[-1] >= slots:
                raise ProtocolError(f"monitor clicks {monitor} outside the train's {slots} slots")
            proto = self._settings.protocol
            qudits = np.array([g for g, _ in entries], dtype=np.int64)
            # row g of the reveal's values, d to a row: qudit g's slots in its frame, from 1
            kept = self._reveal.values().reshape(-1, proto.d)[qudits]
            clicked = np.zeros(slots, dtype=bool)
            clicked[list(monitor)] = True
            named = clicked[kept + (qudits[:, None] // proto.n * proto.slot_count - 1)]
            if named.any():
                raise ProtocolError(
                    f"a monitor click names qudit {qudits[named.any(axis=1).argmax()]}, "
                    "which the report keeps"
                )
        self._tally.add(monitor_tally(occupancy, monitor, self._monitor, self._settings.physical))
        self._train = self._reveal = None  # held until the train's report only

    def _finish(self) -> EstimateReport:
        """Q over all sampled pairs and V from the monitor tally, in the
        estimate that ends the session."""
        q_hat = q_err = v_hat = v_err = float("nan")  # what the data leave undefined
        if self._sampled_mine:
            q_hat, q_err = estimate_qber(
                self._sampled_mine, self._sampled_theirs, self._settings.protocol.d
            )
        t = self._tally
        try:
            v_hat, v_err = estimate_visibility(t.n_int, t.exp_int, t.n_non, t.exp_non)
        except UndefinedEstimateError:
            pass
        self.summary = _summary(self.role, self._settings, self._sifted, q_hat, q_err, v_hat, v_err)
        return EstimateReport(block_id=self._settings.blocks - 1, q_hat=q_hat, v_hat=v_hat)


class _Bob:
    """Receiver state machine.  ``receive(message)`` returns the messages
    to send.  A reveal must be for the next train, whose first block is
    the first one not yet measured, and must carry one permutation per
    block of that train; it pulls the train's clicks from ``channel``
    and reports the qudits they keep and the monitor clicks.  Alice's
    estimate, after the last report, ends the session and sets
    ``summary``."""

    role = "bob"

    def __init__(self, settings: SessionSettings, channel):
        self._settings = settings
        self._channel = channel
        self._per_train = _train_blocks(settings.protocol.slot_count)
        self._started = False
        self._blocks_done = 0
        self._sifted: list[int] = []
        self.summary: SessionSummary | None = None

    def start(self) -> list:
        return []

    def receive(self, message: Message) -> list:
        settings = self._settings
        if not self._started:
            if message != settings.start:
                got = message if isinstance(message, SessionStart) else type(message).__name__
                raise ProtocolError(f"expected {settings.start}, got {got}")
            self._started = True
        elif isinstance(message, PermutationReveal):
            return self._measure(message)
        elif isinstance(message, EstimateReport):
            last = settings.blocks - 1
            if self._blocks_done < settings.blocks:
                raise ProtocolError(f"estimate before the reveal of the last block {last}")
            if message.block_id != last:
                raise ProtocolError(f"estimate for block {message.block_id}, expected {last}")
            q_hat, v_hat = message.q_hat, message.v_hat
            bounds = (("q_hat", q_hat, 1.0 / (settings.protocol.d - 1)), ("v_hat", v_hat, 1.0))
            for name, value, upper in bounds:
                if not (math.isnan(value) or 0.0 <= value <= upper):
                    raise ProtocolError(f"peer sent {name}={value}, outside [0, {upper}]")
            self.summary = _summary(
                self.role, settings, self._sifted, q_hat, math.nan, v_hat, math.nan
            )
        else:
            raise ProtocolError(f"unexpected message {type(message).__name__}")
        return []

    def _measure(self, message: PermutationReveal) -> list:
        first, expected = message.block_id, self._blocks_done
        settings = self._settings
        if expected == settings.blocks:
            raise ProtocolError(
                f"permutation for block {first} revealed after the last block {expected - 1}"
            )
        if first != expected:
            raise ProtocolError(
                f"permutation for block {first} revealed, expected block {expected}"
            )
        length = settings.protocol.slot_count
        rows = min(self._per_train, settings.blocks - first)
        values = message.values()
        count = len(values)
        try:
            if count % length:
                raise InvalidArgumentError(f"{count} indices are not whole blocks of d*n={length}")
            if count != rows * length:
                raise InvalidArgumentError(f"reveal of {count // length} blocks for a train of {rows}")
            sigma = Permutation(values.reshape(rows, length))
        except InvalidArgumentError as exc:
            raise ProtocolError(f"malformed permutation reveal: {exc}") from exc
        clicks = self._channel.receive(first)
        report = decode_frame(settings.protocol, sigma, clicks)
        self._sifted.extend(j for _i, j in report.entries)
        self._blocks_done += rows
        monitor = tuple(clicks.monitor_slots.tolist())
        return [DetectionReportMsg(block_id=first, entries=report.entries, monitor_slots=monitor)]


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

    ``block_source`` yields each block's ``n`` symbols in {1..d}, as a
    flat sequence of integers; pass ``None`` to generate random blocks
    from ``seed``.  A ``transcript`` records the whole session: Alice's
    messages and frames, and Bob's messages as she reads them.
    """
    link = _Link(duplex, duplex, transcript, Transcript.A_TO_B, channel, settings)
    return _drive(_Alice(settings, block_source, seed), link)


def run_bob(
    settings: SessionSettings,
    channel: SimulatedChannel,
    duplex,
    transcript: Transcript | None = None,
) -> SessionSummary:
    """Drive the receiver side of a session over ``duplex``.  A
    ``transcript`` records the messages Bob sends and reads; he passes no
    frame to the channel, so it holds no quantum marker."""
    link = _Link(duplex, duplex, transcript, Transcript.B_TO_A, channel, settings)
    return _drive(_Bob(settings, channel), link)


def _summary(role, settings, sifted, q_hat, q_err, v_hat, v_err) -> SessionSummary:
    proto = settings.protocol
    total_slots = settings.blocks * proto.slot_count
    detected_rate = len(sifted) / (total_slots * settings.physical.tau)
    per_detection = 0.0  # an estimate the data leave undefined (NaN) justifies no key
    if not (math.isnan(q_hat) or math.isnan(v_hat)):
        per_detection = eve_optimal_holevo(
            proto.d, q_hat, settings.physical.mu, v_hat
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
    """Run both endpoints in this thread over two in-process pipes.

    Each turn one endpoint sends its output and the other reads and
    answers it message by message, so the session runs in protocol
    order with nothing to wait for.  Returns (alice summary, bob
    summary, transcript), the transcript recorded on Alice's side as
    :func:`run_alice` records it.  An endpoint's error is raised at once
    as a :class:`ProtocolError` naming the endpoint, with the error as
    cause.
    """
    try:
        alice_seed, channel_seed = np.random.SeedSequence(seed).spawn(2)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"seed={seed!r} is not a seed: {exc}") from None
    transcript = Transcript()
    channel = SimulatedChannel(settings.physical, channel_seed)
    to_bob, to_alice = QueuePipe(), QueuePipe()
    alice = _Alice(settings, None, alice_seed)
    bob = _Bob(settings, channel)
    links = {
        alice: _Link(to_bob, to_alice, transcript, Transcript.A_TO_B, channel, settings),
        bob: _Link(to_alice, to_bob, None, Transcript.B_TO_A, channel, settings),
    }
    sender, receiver = alice, bob
    role = alice.role  # the endpoint at work, named if it fails
    try:
        outgoing = alice.start()
        while outgoing:
            role = sender.role
            sent = links[sender].send(outgoing)
            outgoing = []
            role = receiver.role
            for _ in range(sent):
                outgoing += receiver.receive(links[receiver].recv())
            sender, receiver = receiver, sender
    except Exception as exc:
        raise ProtocolError(f"{role} endpoint aborted: {exc}") from exc
    if alice.summary is None or bob.summary is None:
        raise ProtocolError("session did not complete")
    return alice.summary, bob.summary, transcript
