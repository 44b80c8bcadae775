"""Qudit block encoding, click decoding, and key sifting.

A block carries ``n`` qudits of dimension ``d`` in ``d*n`` time slots.
Slot indices, qudit symbols, and permutation images follow the 1-based
convention ``t = sigma(d*i + q_i)`` with ``q_i in {1..d}`` used
throughout the analysis; only internal array storage is 0-based.
Each block's permutation ranks random keys from an injected byte source.

The sender works on arrays with one block per row: ``(m, n)`` symbols
and ``(m, d*n)`` permutation images from :func:`make_permutation`; the
m frames' train is the ``m*n`` slots that :func:`encode_block` gives
its pulses.  The receiver checks a revealed train's image sequences, one row per block,
as one :class:`Permutation`.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, ProtocolError

__all__ = [
    "ProtocolParams",
    "Permutation",
    "DetectionReport",
    "ByteSource",
    "SeededByteSource",
    "make_permutation",
    "encode_block",
    "sift_block",
]

# A byte source is any callable returning a bytes-like object of exactly
# `count` fresh random bytes, such as ``os.urandom``.
ByteSource = Callable[[int], "bytes | memoryview"]


class SeededByteSource:
    """Deterministic byte source for simulations.  Session endpoints
    seed one from the session seed, so a run repeats exactly and the seed
    gives away every permutation: a seeded session models the protocol
    but distributes no secret key.  :func:`make_permutation` takes any
    :data:`ByteSource`, such as ``os.urandom``.

    The stream is the raw 64-bit output of ``np.random.PCG64(seed)``,
    each word serialized little-endian.  A call for ``count`` bytes takes
    ``ceil(count / 8)`` fresh words and returns their first ``count``
    bytes.  So while every count is a positive multiple of 8, the calls
    return the same bytes as successive
    ``np.random.default_rng(seed).bytes(count)``.  Any other count drops
    the rest of its last word, and the next call starts on a fresh word;
    ``Generator.bytes`` would instead keep a half-word buffered when
    ``count % 8`` is 1 to 4.  A count of 0 takes no word.

    A call returns a read-only ``memoryview`` of the words, not a copy
    of them as ``bytes``."""

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)

    def __call__(self, count: int) -> memoryview:
        words = self._bits.random_raw(-(-count // 8)).astype("<u8", copy=False)
        return memoryview(words.view(np.uint8)).toreadonly()[:count]


@dataclass(frozen=True)
class ProtocolParams:
    """Block geometry: ``d`` slots per qudit, ``n`` qudits per block.
    The slot duration is the channel's, ``PhysicalParams.tau``.  The
    fields are frozen, so ``slot_count`` is computed once per instance."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise InvalidArgumentError(f"d={self.d} must be >= 2")
        if self.n < 1:
            raise InvalidArgumentError(f"n={self.n} must be >= 1")

    @cached_property
    def slot_count(self) -> int:
        return self.d * self.n


def _check_symbols(symbols: np.ndarray, params: ProtocolParams) -> None:
    """Check one block's symbols, or a batch's with one block per row."""
    if symbols.shape[-1] != params.n:
        raise InvalidArgumentError(f"block length {symbols.shape[-1]} != n={params.n}")
    if symbols.size and (
        np.minimum.reduce(symbols, axis=None) < 1 or np.maximum.reduce(symbols, axis=None) > params.d
    ):
        raise InvalidArgumentError("symbols outside {1..d}")


@lru_cache(maxsize=4)
def _ramp(size: int, dtype) -> np.ndarray:
    """The integers 1..``size`` as ``dtype``: the positions that
    :func:`make_permutation` packs into its keys, and the values that
    :class:`Permutation` scatters into its inverse.  Read-only, since it
    is shared."""
    ramp = np.arange(1, size + 1, dtype=dtype)
    ramp.flags.writeable = False
    return ramp


@lru_cache(maxsize=4)
def _row_starts(size: int, length: int) -> np.ndarray:
    """The first slot of each slot's row, for ``size`` slots in rows of
    ``length``: what moves each row's images to its place in a train.
    Read-only, since it is shared."""
    starts = np.arange(size) // length * length
    starts.flags.writeable = False
    return starts


@dataclass(eq=False)
class Permutation:
    """A peer's bijections on {1..L}, one per block of a train: the image
    sequences ``map_``, one row per block or a single row, so
    ``sigma_k(u) = map_[k, u-1]``, and the inverse ``inverse_map`` of the
    same shape, whose row k holds ``k*L + sigma_k^{-1}(t)`` at column
    ``t-1``.  Flattened, it inverts the train's bijection on {1..m*L},
    which applies row k's to the train's k-th frame.

    The constructor validates the images it is given, as a receiver must
    a reveal off the wire, in one pass for all rows: it copies them into
    ``map_`` as int64 and checks that every value lies in {1..L}, which
    also keeps each row's values out of its neighbours', then one
    scatter builds the inverse and shows every slot of every row is hit,
    which for values in range makes each row a bijection.  The inverse
    is int32, half the bytes of int64, unless m*L reaches 2**31.

    ``buffers``, keyword only, is a pair of arrays to work in instead of
    fresh ones, for a receiver that checks one train after another: an
    int64 array of at least m*L elements for ``map_``, and a 1-D array
    of at least m*L + 1 elements, of a dtype that holds m*L, for the
    inverse.  ``map_`` and ``inverse_map`` are then views of them, valid
    until the buffers are next used.  So two instances compare by
    identity: equal values now would say nothing of them later."""

    map_: np.ndarray
    inverse_map: np.ndarray = field(init=False, repr=False)
    _: KW_ONLY
    buffers: InitVar[tuple[np.ndarray, np.ndarray] | None] = None

    def __post_init__(self, buffers):
        images = np.asarray(self.map_)
        L, total = images.shape[-1], images.size
        if total == 0:
            raise InvalidArgumentError("empty permutation")
        if buffers is None:
            dtype = np.int32 if total < 2**31 else np.int64
            buffers = np.empty(total, dtype=np.int64), np.empty(total + 1, dtype=dtype)
        map_ = self.map_ = buffers[0].reshape(-1)[:total].reshape(images.shape)
        np.copyto(map_, images, casting="unsafe")
        if np.minimum.reduce(map_, axis=None) < 1 or np.maximum.reduce(map_, axis=None) > L:
            raise InvalidArgumentError("permutation values outside {1..L}")
        inv = buffers[1][: total + 1]
        inv.fill(0)
        # each row's images, moved to its place in the train for the scatter
        # and back, in place
        slots, starts = map_.reshape(-1), None
        if total > L:
            starts = _row_starts(buffers[0].size, L)[:total]
            slots += starts
        inv[slots] = _ramp(len(buffers[1]) - 1, inv.dtype)[:total]  # slot 0 is dropped
        if starts is not None:
            slots -= starts
        self.inverse_map = inv[1:].reshape(map_.shape)
        if np.count_nonzero(self.inverse_map) != total:
            raise InvalidArgumentError("permutation is not a bijection")


@dataclass
class DetectionReport:
    """Receiver's claim of which qudits arrived and as which symbols:
    ``entries``, a ``(k, 2)`` integer array of qudit index and symbol
    columns, one row per qudit, or any sequence of such pairs.
    :func:`sift_block` rejects a report that names a qudit twice."""

    entries: np.ndarray


def make_permutation(
    length: int, source: ByteSource, count: int = 1, *, buffers=None
) -> np.ndarray:
    """``count`` uniformly random permutations of {1..length}, as the rows
    of a ``(count, length)`` int64 array of image sequences: each ranks
    one random key per position (Knuth, TAOCP vol. 2, §3.4.2).

    The keys are little-endian u64, an ``8*length``-byte chunk per
    permutation, so a seed gives the same permutations on every host.
    Distinct keys are exchangeable, so their ranking is exactly uniform;
    a chunk with a tie (probability at most ``length**2 / 2**65``) is
    skipped and the next one is used.

    The chunks come from one call for ``8*length*count`` bytes and are
    ranked with one sort along the rows.  Row k takes the k-th chunk with
    no tie: each tied chunk is skipped, and one more chunk per skipped one
    is drawn at the end.  So from a source whose bytes do not depend on
    how they are split into calls, such as :class:`SeededByteSource` for
    multiples of 8, one call for ``count`` rows returns the same rows as
    ``count`` successive calls for one and consumes the same bytes.

    The ranking sorts plain integers: each key's low
    ``length.bit_length()`` bits are replaced by its 1-based position,
    and when the remaining high parts are distinct they order the keys
    as the full keys do, so the sorted low bits are the ``argsort`` of
    the keys, plus one.  A chunk whose high parts collide (probability
    at most ``length**3 / 2**64``) is ranked by ``argsort`` of its full
    keys.  Both rankings are that of the keys, so the width of the low
    part changes no result.  Either ranking is a bijection by
    construction, so the rows are not checked again.

    ``buffers``, keyword only, is a pair of ``(rows, length)`` arrays to
    work in instead of fresh ones, for a sender that draws one train
    after another: a uint64 array for the packed keys and an int64 array
    for the ranking, with ``rows >= count``.  The result is then a view
    of the ranking buffer's first ``count`` rows, valid until the buffers
    are next used.
    """
    if length < 1:
        raise InvalidArgumentError(f"length={length} must be >= 1")
    if count < 1:
        raise InvalidArgumentError(f"count={count} must be >= 1")
    if buffers is None:
        buffers = np.empty((count, length), np.uint64), np.empty((count, length), np.int64)
    packed_keys, ranking = buffers
    low_bits = length.bit_length()
    shift, low_mask = np.uint64(low_bits), np.uint64((1 << low_bits) - 1)
    ranked = 0
    while ranked < count:
        wanted = count - ranked
        data = source(8 * length * wanted)
        if len(data) != 8 * length * wanted:
            raise InvalidArgumentError(
                f"byte source returned {len(data)} bytes, expected {8 * length * wanted}"
            )
        keys = np.frombuffer(data, dtype="<u8").reshape(wanted, length)
        packed = np.bitwise_and(keys, ~low_mask, out=packed_keys[:wanted])
        packed |= _ramp(length, np.uint64)
        packed.sort()
        rows = ranking[ranked:count]
        np.bitwise_and(packed, low_mask, out=rows.view(np.uint64))
        packed >>= shift  # the high parts, in increasing order along each row
        # The mask is rebuilt on a collision, not kept: a frame-sized mask
        # held to the end of the call slowed large frames measurably.
        kept = wanted
        if np.count_nonzero(packed[:, 1:] == packed[:, :-1]):
            collided = (packed[:, 1:] == packed[:, :-1]).any(axis=1)
            kept = 0  # each kept row moves up over the skipped ones
            for row_keys, row, collides in zip(keys, rows, collided):
                if collides:
                    order = np.argsort(row_keys)
                    if not np.diff(row_keys[order]).all():  # two keys are equal
                        continue
                    row = order + 1
                rows[kept] = row
                kept += 1
        ranked += kept
    return ranking[:count]


def encode_block(params: ProtocolParams, symbols: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Place one pulse per qudit at slot ``sigma(d*i + q_i)``, for m blocks
    at once: ``symbols`` is ``(m, n)``, one block per row, and ``maps``
    holds each block's permutation as a row of ``(m, d*n)`` image
    sequences, such as :func:`make_permutation` draws.  Returns the m
    frames' train as the ``m*n`` sorted int64 slots of its pulses, from
    0, frame k's from ``k*d*n`` on.  The rows of ``maps`` must be
    bijections on {1..d*n}; a pulse's image outside {1..d*n}, or two
    pulses in one slot, is refused.
    """
    _check_symbols(symbols, params)
    count, length = len(symbols), params.slot_count
    if maps.shape != (count, length):
        raise InvalidArgumentError(
            f"permutations of shape {maps.shape} for {count} blocks of d*n={length} slots"
        )
    # raw slot d*i + q_i of each qudit, 0-based and counted from the
    # batch's first slot, so that it indexes the flattened images
    raw_slots = np.arange(-1, count * length - 1, params.d).reshape(count, params.n) + symbols
    pulses = maps.take(raw_slots).astype(np.int64, copy=False)  # sigma's images are 1-based
    # Read as unsigned (whose sort make_permutation already loads), an
    # image outside {1..L}, less one, is L or more.
    unsigned = pulses.view(np.uint64)
    if np.count_nonzero(unsigned - 1 >= length):
        raise InvalidArgumentError(f"pulse images outside {{1..{length}}}")
    unsigned.sort()
    pulses += np.arange(-1, count * length - 1, length)[:, None]  # each frame's start, less one
    pulses = pulses.reshape(-1)
    if np.count_nonzero(pulses[1:] == pulses[:-1]):
        raise InvalidArgumentError("two pulses in one slot")
    return pulses


def sift_block(
    symbols: Sequence[int], report: DetectionReport, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Align the sender's symbols of one block with the receiver's reported
    symbols for the qudits that arrived, ordered by qudit index: two int64
    arrays, the sender's symbols and the receiver's.  A report that names
    a qudit twice or outside the block, or a symbol outside {1..d}, is
    rejected.  A report in increasing qudit order, as
    :func:`~hdcow.channel.decode_frame` gives, is aligned without a sort."""
    entries = np.asarray(report.entries, dtype=np.int64).reshape(-1, 2)
    qudits = entries[:, 0]
    if np.count_nonzero(qudits[1:] <= qudits[:-1]):  # not strictly increasing
        entries = entries[qudits.argsort(kind="stable")]
        qudits = entries[:, 0]
        if np.count_nonzero(qudits[1:] == qudits[:-1]):
            raise ProtocolError("duplicate qudit index in detection report")
    if len(qudits) and (qudits[0] < 0 or qudits[-1] >= len(symbols)):
        raise ProtocolError("reported qudit index outside the block")
    theirs = entries[:, 1]
    if len(theirs) and (np.minimum.reduce(theirs) < 1 or np.maximum.reduce(theirs) > d):
        raise ProtocolError(f"reported symbol outside {{1..{d}}}")
    return np.asarray(symbols, dtype=np.int64)[qudits], theirs
