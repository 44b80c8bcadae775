"""Classical-channel wire format.

Frame layout, all integers big-endian::

    magic 0x51 0x4B | version 0x04 | tag u8 | payload length u32 | payload

Payloads by tag:

    0x01 SESSION_START      d u16, n u32, tau_picoseconds u64
    0x02                    retired; refused as an unknown tag
    0x03 PERMUTATION_REVEAL block_id u64, indices (m*d*n) x u32
    0x04 DETECTION_REPORT   block_id u64, count u32, count x (i u32, j u16),
                            monitor count u32, monitor count x (slot u32)
    0x05 ESTIMATE_REPORT    block_id u64, q_hat f64, v_hat f64
    0x06                    retired; refused as an unknown tag

A reveal and a report cover one train of m blocks from ``block_id`` on:
``_train_blocks`` of SESSION_START's d and n, or the blocks left.  The
reveal holds the m blocks' images row after row; the report's qudit
index counts across the train, k*n + i for qudit i of row k, and its
monitor clicks are 0-based slots of the train.  An estimate the data
leave undefined is encoded as NaN.  A reveal's indices are held in
their wire form from the moment the message is built.
"""

from __future__ import annotations

import io
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    BadMagicError,
    InvalidArgumentError,
    LengthMismatchError,
    TruncatedError,
    UnknownTagError,
    UnsupportedVersionError,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "SessionStart",
    "PermutationReveal",
    "DetectionReportMsg",
    "EstimateReport",
    "Message",
    "encode_message",
    "decode_message",
    "read_message",
]

MAGIC = b"\x51\x4b"
VERSION = 0x04
_HEADER = struct.Struct("!2sBBI")
_U64 = struct.Struct("!Q")
_START = struct.Struct("!HIQ")
_ESTIMATE = struct.Struct("!Qdd")
_REPORT_HEAD = struct.Struct("!QI")


def _framed(payload: struct.Struct) -> struct.Struct:
    """A payload layout with the header in front, so that a whole frame
    is packed in one call."""
    return struct.Struct(_HEADER.format + payload.format[1:])


_START_FRAME = _framed(_START)
_ESTIMATE_FRAME = _framed(_ESTIMATE)

# A train holds as many whole blocks as fit in this many slots, and at
# least one.  Both peers derive it from SESSION_START's d and n, so it is
# part of the protocol, not an option.  It bounds the temporaries the
# sender prepares a train with (keys, their packed and ranked copies,
# occupancy and reveal bytes, about 34 bytes a slot) at about half a
# megabyte: a frame of 2**14 slots or more is a train of its own.
_BATCH_SLOTS = 2**14


def _train_blocks(slot_count: int) -> int:
    """The number of blocks of ``slot_count`` slots each that a train
    holds: as many as fit in ``_BATCH_SLOTS`` slots, and at least one."""
    return max(1, _BATCH_SLOTS // slot_count)


TAG_SESSION_START = 0x01
TAG_PERMUTATION_REVEAL = 0x03
TAG_DETECTION_REPORT = 0x04
TAG_ESTIMATE_REPORT = 0x05

# The known tags, each with its payload size, or None for a tag whose
# payload varies in length.
_PAYLOAD_LENGTHS = {
    TAG_SESSION_START: _START.size,
    TAG_PERMUTATION_REVEAL: None,
    TAG_DETECTION_REPORT: None,
    TAG_ESTIMATE_REPORT: _ESTIMATE.size,
}


@dataclass(frozen=True)
class SessionStart:
    d: int
    n: int
    tau_picoseconds: int


@dataclass(frozen=True)
class PermutationReveal:
    """The permutations of one train's blocks, the first of which is
    ``block_id``.  ``indices`` are each block's images sigma(1), ...,
    sigma(L), block after block, as big-endian u32, 4 bytes each.  A
    ``bytes`` value is taken as that form; any other integer sequence is
    converted, and values outside u32 are rejected, when the message is
    built.  Built and decoded reveals compare equal."""

    block_id: int
    indices: bytes

    def __post_init__(self):
        if isinstance(self.indices, bytes):
            if len(self.indices) % 4:
                raise InvalidArgumentError(
                    f"{len(self.indices)} index bytes is not a whole number of u32"
                )
        else:
            values = np.asarray(self.indices)
            if values.size:
                if values.dtype.kind not in "iu":  # floats, or ints too wide for numpy
                    raise InvalidArgumentError("index values do not fit u32")
                _check_u(int(np.minimum.reduce(values, axis=None)), 32, "index")
                _check_u(int(np.maximum.reduce(values, axis=None)), 32, "index")
            object.__setattr__(self, "indices", values.astype(">u4").tobytes())

    @classmethod
    def of_bijections(cls, first_block_id: int, maps: np.ndarray) -> "PermutationReveal":
        """The reveal of a train whose first block is ``first_block_id``,
        given its blocks' bijections on {1..L} as the rows of an integer
        array of image sequences, such as ``make_permutation`` draws.  The
        values are at most L, so L alone is checked against u32, and the
        rows are put in wire form by one conversion."""
        _check_u(maps.shape[1], 32, "index")
        return cls(first_block_id, maps.astype(">u4").tobytes())

    def values(self) -> np.ndarray:
        """The indices as a flat array of integers, block after block."""
        return np.frombuffer(self.indices, dtype=">u4")


@dataclass(frozen=True)
class DetectionReportMsg:
    block_id: int
    entries: tuple  # ((qudit index, symbol), ...)
    monitor_slots: tuple = ()  # the monitor's clicks, as 0-based train slots


@dataclass(frozen=True, eq=False)
class EstimateReport:
    block_id: int
    q_hat: float
    v_hat: float

    def __eq__(self, other):
        if not isinstance(other, EstimateReport):
            return NotImplemented
        same = self.block_id == other.block_id
        for a, b in ((self.q_hat, other.q_hat), (self.v_hat, other.v_hat)):
            same &= (math.isnan(a) and math.isnan(b)) or a == b
        return same

    def __hash__(self):
        # NaN fields are equal to each other here, so they must hash alike;
        # hash(nan) differs between NaN objects.
        fields = (self.q_hat, self.v_hat)
        return hash((self.block_id, *(None if math.isnan(x) else x for x in fields)))


Message = Union[
    SessionStart,
    PermutationReveal,
    DetectionReportMsg,
    EstimateReport,
]


def _check_u(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise InvalidArgumentError(f"{what}={value} does not fit u{bits}")
    return value


def _check_u_all(values, bits: int, what: str) -> None:
    for value in (min(values), max(values)):
        _check_u(value, bits, what)


def encode_message(message: Message) -> bytes:
    """One frame.  A fixed-layout message is packed with its header in
    one call; a reveal's index bytes, most of a session's bytes, are
    copied once."""
    if isinstance(message, EstimateReport):
        return _ESTIMATE_FRAME.pack(
            MAGIC, VERSION, TAG_ESTIMATE_REPORT, _ESTIMATE.size,
            _check_u(message.block_id, 64, "block_id"), message.q_hat, message.v_hat,
        )
    if isinstance(message, PermutationReveal):
        block_id = _U64.pack(_check_u(message.block_id, 64, "block_id"))
        length = len(block_id) + len(message.indices)
        header = _HEADER.pack(MAGIC, VERSION, TAG_PERMUTATION_REVEAL, length)
        return b"".join((header, block_id, message.indices))
    if isinstance(message, DetectionReportMsg):
        count, monitor = len(message.entries), message.monitor_slots
        if count:
            qudits, symbols = zip(*message.entries)
            _check_u_all(qudits, 32, "qudit index")
            _check_u_all(symbols, 16, "symbol")
        if monitor:
            _check_u_all(monitor, 32, "monitor slot")
        return struct.pack(
            f"{_HEADER.format}QI{'IH' * count}I{len(monitor)}I",
            MAGIC, VERSION, TAG_DETECTION_REPORT, 16 + 6 * count + 4 * len(monitor),
            _check_u(message.block_id, 64, "block_id"),
            _check_u(count, 32, "count"),
            *itertools.chain.from_iterable(message.entries),
            len(monitor),
            *monitor,
        )
    if isinstance(message, SessionStart):
        return _START_FRAME.pack(
            MAGIC, VERSION, TAG_SESSION_START, _START.size,
            _check_u(message.d, 16, "d"),
            _check_u(message.n, 32, "n"),
            _check_u(message.tau_picoseconds, 64, "tau_picoseconds"),
        )
    raise InvalidArgumentError(f"not a wire message: {message!r}")


def _decode_payload(tag: int, payload: bytes) -> Message:
    """Decode a payload whose tag is known and, for a fixed-size tag,
    whose length is right; :func:`read_message` checks both."""
    if tag == TAG_ESTIMATE_REPORT:
        block_id, q_hat, v_hat = _ESTIMATE.unpack(payload)
        return EstimateReport(block_id=block_id, q_hat=q_hat, v_hat=v_hat)
    if tag == TAG_PERMUTATION_REVEAL:
        if len(payload) < 8 or (len(payload) - 8) % 4:
            raise LengthMismatchError(
                "PERMUTATION_REVEAL payload must be 8 + 4k bytes"
            )
        block_id = _U64.unpack_from(payload)[0]
        indices = bytes(memoryview(payload)[8:])  # one copy, from any buffer
        return PermutationReveal(block_id=block_id, indices=indices)
    if tag == TAG_DETECTION_REPORT:
        if len(payload) < 16:
            raise LengthMismatchError("DETECTION_REPORT payload must be >= 16 bytes")
        block_id, count = _REPORT_HEAD.unpack_from(payload)
        end = 12 + 6 * count
        clicks = struct.unpack_from("!I", payload, end)[0] if len(payload) >= end + 4 else 0
        if len(payload) != end + 4 + 4 * clicks:
            raise LengthMismatchError(
                f"DETECTION_REPORT counts {count} and {clicks} disagree with payload size"
            )
        entries = tuple(struct.iter_unpack("!IH", payload[12:end]))
        monitor = struct.unpack_from(f"!{clicks}I", payload, end + 4)
        return DetectionReportMsg(block_id=block_id, entries=entries, monitor_slots=monitor)
    d, n, tau_ps = _START.unpack(payload)
    return SessionStart(d=d, n=n, tau_picoseconds=tau_ps)


def decode_message(data: bytes) -> Message:
    """Decode one complete frame; trailing bytes are an error."""
    stream = io.BytesIO(data)
    message = read_message(stream.read)
    if stream.tell() < len(data):
        raise LengthMismatchError(
            f"frame carries {len(data) - stream.tell()} bytes past its payload"
        )
    return message


def read_message(recv_exact: Callable[[int], bytes], d=None, n=None) -> Message:
    """Read one frame off an ordered byte stream.

    ``recv_exact(k)`` must return k bytes, or fewer only where the
    stream ends, or raise; short reads surface as
    :class:`TruncatedError`.  The header is checked before the payload
    is read, so a bad tag or a wrong fixed length costs no payload read.
    Given the block geometry ``d`` and ``n``, a reveal or report longer
    than one train can fill is rejected from its header too.
    """
    header = recv_exact(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TruncatedError("stream closed inside a frame header")
    magic, version, tag, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    if tag not in _PAYLOAD_LENGTHS:
        raise UnknownTagError(f"unknown message tag 0x{tag:02x}")
    fixed = _PAYLOAD_LENGTHS[tag]
    if fixed is not None:
        if length != fixed:
            raise LengthMismatchError(
                f"tag 0x{tag:02x} payload must be {fixed} bytes, header declares {length}"
            )
    elif d is not None and n is not None:  # a reveal or a report
        train = _train_blocks(d * n)
        most = 4 * d * n * train + (8 if tag == TAG_PERMUTATION_REVEAL else 16 + 6 * n * train)
        if length > most:
            raise LengthMismatchError(
                f"tag 0x{tag:02x} payload is at most {most} bytes for d={d}, "
                f"n={n} and {train} blocks a train, header declares {length}"
            )
    payload = recv_exact(length) if length else b""
    if len(payload) < length:
        raise TruncatedError("stream closed inside a frame payload")
    return _decode_payload(tag, payload)
