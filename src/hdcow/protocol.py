"""Qudit block encoding, click decoding, and key sifting.

A block carries ``n`` qudits of dimension ``d`` in ``d*n`` time slots.
Slot indices, qudit symbols, and permutation images follow the 1-based
convention ``t = sigma(d*i + q_i)`` with ``q_i in {1..d}`` used
throughout the analysis; only internal array storage is 0-based.
Each block's permutation ranks random keys from an injected byte source.

The sender works on arrays with one block per row: ``(m, n)`` symbols,
``(m, d*n)`` permutation images from :func:`make_permutation` and the
``(m, d*n)`` bool occupancy that :func:`encode_block` places.  The
receiver checks a revealed train's image sequences, one row per block,
as one :class:`Permutation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass
class Permutation:
    """A peer's bijections on {1..L}, one per block of a train: the image
    sequences ``map_``, one row per block or a single row, so
    ``sigma_k(u) = map_[k, u-1]``, and the inverse ``inverse_map`` of the
    same shape, whose row k holds ``k*L + sigma_k^{-1}(t)`` at column
    ``t-1``.  Flattened, it inverts the train's bijection on {1..m*L},
    which applies row k's to the train's k-th frame.

    The constructor validates ``map_``, as a receiver must a reveal off
    the wire, in one pass for all rows: a check that every value lies in
    {1..L}, which also keeps each row's values out of its neighbours',
    then one scatter that builds the inverse and shows every slot of
    every row is hit, which for values in range makes each row a
    bijection.  The inverse is int32, half the bytes of int64, unless
    m*L reaches 2**31."""

    map_: np.ndarray
    inverse_map: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        map_ = self.map_ = np.asarray(self.map_, dtype=np.int64)
        L, total = map_.shape[-1], map_.size
        if total == 0:
            raise InvalidArgumentError("empty permutation")
        if np.minimum.reduce(map_, axis=None) < 1 or np.maximum.reduce(map_, axis=None) > L:
            raise InvalidArgumentError("permutation values outside {1..L}")
        dtype = np.int32 if total < 2**31 else np.int64
        inv = np.zeros(total + 1, dtype=dtype)
        # each row's images, moved to its place in the train
        slots = map_ if total == L else map_ + np.arange(0, total, L).reshape(-1, 1)
        inv[slots.reshape(-1)] = np.arange(1, total + 1, dtype=dtype)  # 1-based; slot 0 is dropped
        self.inverse_map = inv[1:].reshape(map_.shape)
        if np.count_nonzero(self.inverse_map) != total:
            raise InvalidArgumentError("permutation is not a bijection")


@dataclass
class DetectionReport:
    """Receiver's claim of which qudits arrived and as which symbols, as
    ``(qudit index, symbol)`` pairs.  :func:`sift_block` rejects a report
    that names a qudit twice."""

    entries: tuple


def make_permutation(length: int, source: ByteSource, count: int = 1) -> np.ndarray:
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
    """
    if length < 1:
        raise InvalidArgumentError(f"length={length} must be >= 1")
    if count < 1:
        raise InvalidArgumentError(f"count={count} must be >= 1")
    low_bits = length.bit_length()
    shift, low_mask = np.uint64(low_bits), np.uint64((1 << low_bits) - 1)
    parts, ranked = [], 0
    while ranked < count:
        wanted = count - ranked
        data = source(8 * length * wanted)
        if len(data) != 8 * length * wanted:
            raise InvalidArgumentError(
                f"byte source returned {len(data)} bytes, expected {8 * length * wanted}"
            )
        keys = np.frombuffer(data, dtype="<u8").reshape(wanted, length)
        positions = np.arange(1, length + 1, dtype=np.uint64)
        packed = keys & ~low_mask
        packed |= positions
        packed.sort()
        # One row is ranked in the positions' own buffer: large frames come
        # one to a batch, and a frame-sized allocation is saved.
        ranking = np.bitwise_and(
            packed, low_mask, out=positions[None] if wanted == 1 else None
        ).view(np.int64)
        packed >>= shift  # the high parts, in increasing order along each row
        # The mask is rebuilt on a collision, not kept: a frame-sized mask
        # held to the end of the call slowed large frames measurably.
        if np.count_nonzero(packed[:, 1:] == packed[:, :-1]):
            collided = (packed[:, 1:] == packed[:, :-1]).any(axis=1)
            kept = []
            for row, row_keys, collides in zip(ranking, keys, collided):
                if not collides:
                    kept.append(row)
                    continue
                order = np.argsort(row_keys)
                if np.diff(row_keys[order]).all():  # no two keys are equal
                    kept.append(order + 1)
            ranking = np.array(kept, dtype=np.int64).reshape(len(kept), length)
        parts.append(ranking)
        ranked += len(ranking)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def encode_block(params: ProtocolParams, symbols: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Place one pulse per qudit at slot ``sigma(d*i + q_i)``, for m blocks
    at once: ``symbols`` is ``(m, n)``, one block per row, and ``maps``
    holds each block's permutation as a row of ``(m, d*n)`` image
    sequences, such as :func:`make_permutation` draws.  Returns the
    ``(m, d*n)`` bool occupancy, one frame per row, placed by one scatter.
    The rows of ``maps`` must be bijections on {1..d*n}; only the pulse
    count is checked again.
    """
    _check_symbols(symbols, params)
    count, length = len(symbols), params.slot_count
    if maps.shape != (count, length):
        raise InvalidArgumentError(
            f"permutations of shape {maps.shape} for {count} blocks of d*n={length} slots"
        )
    occupancy = np.zeros((count, length + 1), dtype=bool)
    # raw slot d*i + q_i of each qudit, 0-based and counted from the
    # batch's first slot, so that it indexes the flattened images
    raw_slots = np.arange(-1, count * length - 1, params.d).reshape(count, params.n) + symbols
    slots = maps.take(raw_slots)  # sigma's images are 1-based
    if count > 1:  # each row's start in the flattened occupancy; the first's is 0
        slots += np.arange(0, count * (length + 1), length + 1)[:, None]
    occupancy.reshape(-1)[slots] = True
    occupancy = occupancy[:, 1:]  # column 0 is dropped
    if np.count_nonzero(occupancy) != count * params.n:
        raise InvalidArgumentError("occupancy does not have exactly n pulses per block")
    return occupancy


def sift_block(
    symbols: Sequence[int], report: DetectionReport, d: int
) -> tuple[list[int], list[int]]:
    """Align the sender's symbols of one block with the receiver's reported
    symbols for the qudits that arrived, ordered by qudit index. A
    reported symbol outside {1..d} is rejected."""
    entries = sorted(report.entries)
    indices = [i for i, _ in entries]
    if len(set(indices)) != len(indices):
        raise ProtocolError("duplicate qudit index in detection report")
    if entries and (entries[0][0] < 0 or entries[-1][0] >= len(symbols)):
        raise ProtocolError("reported qudit index outside the block")
    if any(not 1 <= j <= d for _, j in entries):
        raise ProtocolError(f"reported symbol outside {{1..{d}}}")
    alice_sifted = [int(symbols[i]) for i, _ in entries]
    bob_sifted = [int(j) for _, j in entries]
    return alice_sifted, bob_sifted
