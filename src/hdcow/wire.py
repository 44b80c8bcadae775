"""Classical-channel wire format.

Frame layout, all integers big-endian::

    magic 0x51 0x4B | version 0x01 | tag u8 | payload length u32 | payload

Payloads by tag:

    0x01 SESSION_START      d u16, n u32, tau_picoseconds u64
    0x02 BLOCK_ANNOUNCE     block_id u64
    0x03 PERMUTATION_REVEAL block_id u64, indices (d*n) x u32
    0x04 DETECTION_REPORT   block_id u64, count u32, count x (i u32, j u16)
    0x05 ESTIMATE_REPORT    block_id u64, q_hat f64, v_hat f64
    0x06 SESSION_END        empty

Estimate fields not yet known are encoded as NaN.  A reveal's indices
are held in their wire form from the moment the message is built.
"""

from __future__ import annotations

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
    "BlockAnnounce",
    "PermutationReveal",
    "DetectionReportMsg",
    "EstimateReport",
    "SessionEnd",
    "Message",
    "encode_message",
    "decode_message",
    "read_message",
]

MAGIC = b"\x51\x4b"
VERSION = 0x01
_HEADER = struct.Struct("!2sBBI")

TAG_SESSION_START = 0x01
TAG_BLOCK_ANNOUNCE = 0x02
TAG_PERMUTATION_REVEAL = 0x03
TAG_DETECTION_REPORT = 0x04
TAG_ESTIMATE_REPORT = 0x05
TAG_SESSION_END = 0x06


@dataclass(frozen=True)
class SessionStart:
    d: int
    n: int
    tau_picoseconds: int


@dataclass(frozen=True)
class BlockAnnounce:
    block_id: int


@dataclass(frozen=True)
class PermutationReveal:
    """``indices`` are the images sigma(1), ..., sigma(L) as big-endian
    u32, 4 bytes each.  A ``bytes`` value is taken as that form; any other
    integer sequence is converted, and values outside u32 are rejected,
    when the message is built.  Built and decoded reveals compare equal."""

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
                _check_u(int(values.min()), 32, "index")
                _check_u(int(values.max()), 32, "index")
            object.__setattr__(self, "indices", values.astype(">u4").tobytes())

    def values(self) -> np.ndarray:
        """The indices as an array of integers."""
        return np.frombuffer(self.indices, dtype=">u4")


@dataclass(frozen=True)
class DetectionReportMsg:
    block_id: int
    entries: tuple  # ((qudit index, symbol), ...)


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


@dataclass(frozen=True)
class SessionEnd:
    pass


Message = Union[
    SessionStart,
    BlockAnnounce,
    PermutationReveal,
    DetectionReportMsg,
    EstimateReport,
    SessionEnd,
]


def _check_u(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise InvalidArgumentError(f"{what}={value} does not fit u{bits}")
    return value


def _check_u_all(values, bits: int, what: str) -> None:
    for value in (min(values), max(values)):
        _check_u(value, bits, what)


def encode_message(message: Message) -> bytes:
    if isinstance(message, SessionStart):
        tag = TAG_SESSION_START
        payload = struct.pack(
            "!HIQ",
            _check_u(message.d, 16, "d"),
            _check_u(message.n, 32, "n"),
            _check_u(message.tau_picoseconds, 64, "tau_picoseconds"),
        )
    elif isinstance(message, BlockAnnounce):
        tag = TAG_BLOCK_ANNOUNCE
        payload = struct.pack("!Q", _check_u(message.block_id, 64, "block_id"))
    elif isinstance(message, PermutationReveal):
        tag = TAG_PERMUTATION_REVEAL
        payload = struct.pack("!Q", _check_u(message.block_id, 64, "block_id"))
        payload += message.indices
    elif isinstance(message, DetectionReportMsg):
        tag = TAG_DETECTION_REPORT
        count = len(message.entries)
        if count:
            qudits, symbols = zip(*message.entries)
            _check_u_all(qudits, 32, "qudit index")
            _check_u_all(symbols, 16, "symbol")
        payload = struct.pack(
            "!QI" + "IH" * count,
            _check_u(message.block_id, 64, "block_id"),
            _check_u(count, 32, "count"),
            *itertools.chain.from_iterable(message.entries),
        )
    elif isinstance(message, EstimateReport):
        tag = TAG_ESTIMATE_REPORT
        payload = struct.pack(
            "!Qdd",
            _check_u(message.block_id, 64, "block_id"),
            message.q_hat,
            message.v_hat,
        )
    elif isinstance(message, SessionEnd):
        tag = TAG_SESSION_END
        payload = b""
    else:
        raise InvalidArgumentError(f"not a wire message: {message!r}")
    return _HEADER.pack(MAGIC, VERSION, tag, len(payload)) + payload


def _decode_payload(tag: int, payload: bytes) -> Message:
    if tag == TAG_SESSION_START:
        if len(payload) != 14:
            raise LengthMismatchError("SESSION_START payload must be 14 bytes")
        d, n, tau_ps = struct.unpack("!HIQ", payload)
        return SessionStart(d=d, n=n, tau_picoseconds=tau_ps)
    if tag == TAG_BLOCK_ANNOUNCE:
        if len(payload) != 8:
            raise LengthMismatchError("BLOCK_ANNOUNCE payload must be 8 bytes")
        return BlockAnnounce(block_id=struct.unpack("!Q", payload)[0])
    if tag == TAG_PERMUTATION_REVEAL:
        if len(payload) < 8 or (len(payload) - 8) % 4:
            raise LengthMismatchError(
                "PERMUTATION_REVEAL payload must be 8 + 4k bytes"
            )
        block_id = struct.unpack_from("!Q", payload)[0]
        return PermutationReveal(block_id=block_id, indices=bytes(payload[8:]))
    if tag == TAG_DETECTION_REPORT:
        if len(payload) < 12:
            raise LengthMismatchError("DETECTION_REPORT payload must be >= 12 bytes")
        block_id, count = struct.unpack_from("!QI", payload)
        if len(payload) != 12 + 6 * count:
            raise LengthMismatchError(
                f"DETECTION_REPORT count={count} disagrees with payload size"
            )
        entries = tuple(struct.iter_unpack("!IH", payload[12:]))
        return DetectionReportMsg(block_id=block_id, entries=entries)
    if tag == TAG_ESTIMATE_REPORT:
        if len(payload) != 24:
            raise LengthMismatchError("ESTIMATE_REPORT payload must be 24 bytes")
        block_id, q_hat, v_hat = struct.unpack("!Qdd", payload)
        return EstimateReport(block_id=block_id, q_hat=q_hat, v_hat=v_hat)
    if tag == TAG_SESSION_END:
        if payload:
            raise LengthMismatchError("SESSION_END payload must be empty")
        return SessionEnd()
    raise UnknownTagError(f"unknown message tag 0x{tag:02x}")


def decode_message(data: bytes) -> Message:
    """Decode one complete frame; trailing bytes are an error."""
    if len(data) < _HEADER.size:
        raise TruncatedError(f"{len(data)} bytes is shorter than a frame header")
    magic, version, tag, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    payload = data[_HEADER.size :]
    if len(payload) < length:
        raise TruncatedError(
            f"payload truncated: declared {length}, got {len(payload)}"
        )
    if len(payload) > length:
        raise LengthMismatchError(
            f"declared {length} payload bytes but frame carries {len(payload)}"
        )
    return _decode_payload(tag, payload)


def read_message(recv_exact: Callable[[int], bytes]) -> Message:
    """Read one frame off an ordered byte stream.

    ``recv_exact(k)`` must return exactly k bytes or raise; short reads
    surface as :class:`TruncatedError`.
    """
    header = recv_exact(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TruncatedError("stream closed inside a frame header")
    magic, version, tag, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported version {version}")
    payload = recv_exact(length) if length else b""
    if len(payload) < length:
        raise TruncatedError("stream closed inside a frame payload")
    return _decode_payload(tag, payload)
