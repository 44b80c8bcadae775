"""Qudit block encoding, click decoding, and key sifting.

A block carries ``n`` qudits of dimension ``d`` in ``d*n`` time slots.
Slot indices, qudit symbols, and permutation images follow the 1-based
convention ``t = sigma(d*i + q_i)`` with ``q_i in {1..d}`` used
throughout the analysis; only internal array storage is 0-based.
Each block's permutation ranks random keys from an injected byte source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, ProtocolError

__all__ = [
    "ProtocolParams",
    "KeyBlock",
    "Permutation",
    "PulseFrame",
    "DetectionReport",
    "ByteSource",
    "SeededByteSource",
    "make_permutation",
    "encode_block",
    "decode_click",
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
    """Block geometry: ``d`` slots per qudit, ``n`` qudits per block,
    ``tau`` seconds per slot.  The fields are frozen, so ``slot_count``
    is computed once per instance."""

    d: int
    n: int
    tau: float

    def __post_init__(self):
        if self.d < 2:
            raise InvalidArgumentError(f"d={self.d} must be >= 2")
        if self.n < 1:
            raise InvalidArgumentError(f"n={self.n} must be >= 1")
        if not self.tau > 0.0:
            raise InvalidArgumentError(f"tau={self.tau} must be positive")

    @cached_property
    def slot_count(self) -> int:
        return self.d * self.n


@dataclass
class KeyBlock:
    """Raw qudit symbols, each in {1..d}."""

    symbols: np.ndarray

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1:
            raise InvalidArgumentError("symbols must be a flat sequence")

    def validate(self, params: ProtocolParams) -> None:
        _check_symbols(self.symbols, params)

    @classmethod
    def random(cls, params: ProtocolParams, rng: np.random.Generator, count: int | None = None):
        """A block of symbols drawn uniformly from {1..d}.  With ``count``,
        the symbols of ``count`` blocks from one draw, as the rows of a
        ``(count, n)`` array: row k equals the k-th of ``count`` successive
        draws without ``count``, and ``rng`` is left in the same state."""
        if count is None:
            return cls(rng.integers(1, params.d + 1, size=params.n))
        return rng.integers(1, params.d + 1, size=(count, params.n))


def _check_symbols(symbols: np.ndarray, params: ProtocolParams) -> None:
    """Check one block's symbols, or a batch's with one block per row."""
    if symbols.shape[-1] != params.n:
        raise InvalidArgumentError(f"block length {symbols.shape[-1]} != n={params.n}")
    if symbols.size and (
        np.minimum.reduce(symbols, axis=None) < 1 or np.maximum.reduce(symbols, axis=None) > params.d
    ):
        raise InvalidArgumentError("symbols outside {1..d}")


def _scatter_inverse(map_: np.ndarray) -> np.ndarray:
    """``inv[t-1] = u`` for every ``map_[u-1] = t``; slots no value maps
    to stay 0.  ``map_`` must lie in {1..len(map_)}.  The inverse is int32,
    half the bytes of int64, unless ``len(map_)`` reaches 2**31."""
    length = len(map_)
    dtype = np.int32 if length < 2**31 else np.int64
    inv = np.zeros(length + 1, dtype=dtype)
    inv[map_] = np.arange(1, length + 1, dtype=dtype)  # 1-based; slot 0 is dropped
    return inv[1:]


@dataclass
class Permutation:
    """Bijection on {1..L} stored as the image sequence ``map_``, i.e.
    ``sigma(u) = map_[u-1]``.

    The constructor validates ``map_``, as a receiver must do with a
    reveal off the wire: a range check first, then one scatter that
    builds the inverse and shows every slot is hit, which for L values
    in range makes ``map_`` a bijection.  :func:`make_permutation` builds
    its result from a ranking without these checks, and its inverse is
    built on the first :meth:`invert` or :attr:`inverse_map`."""

    map_: np.ndarray

    def __post_init__(self):
        map_ = self.map_ = np.asarray(self.map_, dtype=np.int64)
        L = len(map_)
        if L == 0:
            raise InvalidArgumentError("empty permutation")
        if np.minimum.reduce(map_) < 1 or np.maximum.reduce(map_) > L:
            raise InvalidArgumentError("permutation values outside {1..L}")
        inv = _scatter_inverse(map_)
        if np.count_nonzero(inv) != L:
            raise InvalidArgumentError("permutation is not a bijection")
        self._inverse_map = inv

    @classmethod
    def _from_ranking(cls, map_: np.ndarray) -> "Permutation":
        """Wrap an image sequence that is a bijection by construction,
        such as ``argsort(...) + 1``, without validating it."""
        perm = object.__new__(cls)
        perm.map_ = map_
        perm._inverse_map = None
        return perm

    @property
    def inverse_map(self) -> np.ndarray:
        """Image sequence of ``sigma^{-1}``, built on first use."""
        if self._inverse_map is None:
            self._inverse_map = _scatter_inverse(self.map_)
        return self._inverse_map

    def __len__(self) -> int:
        return len(self.map_)

    def apply(self, u: int) -> int:
        if not 1 <= u <= len(self.map_):
            raise InvalidArgumentError(f"slot {u} outside {{1..{len(self.map_)}}}")
        return int(self.map_[u - 1])

    def invert(self, t: int) -> int:
        if not 1 <= t <= len(self.map_):
            raise InvalidArgumentError(f"slot {t} outside {{1..{len(self.map_)}}}")
        return int(self.inverse_map[t - 1])

    @classmethod
    def identity(cls, length: int) -> "Permutation":
        return cls(np.arange(1, length + 1))


@dataclass
class PulseFrame:
    """Occupied/empty slot train for one block plus the mean photon
    number of each occupied pulse."""

    occupancy: np.ndarray
    mu: float

    def __post_init__(self):
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        if self.mu < 0.0:
            raise InvalidArgumentError(f"mu={self.mu} must be non-negative")


@dataclass
class DetectionReport:
    """Receiver's claim of which qudits arrived and as which symbols, as
    ``(qudit index, symbol)`` pairs.  :func:`sift_block` rejects a report
    that names a qudit twice."""

    entries: tuple


def make_permutation(length: int, source: ByteSource, count: int | None = None):
    """Uniformly random permutation of {1..length}: rank one random key
    per position (Knuth, TAOCP vol. 2, §3.4.2).  With ``count``, that
    many permutations, as the rows of a ``(count, length)`` int64 array
    of image sequences.

    The keys are little-endian u64, an ``8*length``-byte chunk per
    permutation, so a seed gives the same permutation on every host.
    Distinct keys are exchangeable, so their ranking is exactly uniform;
    a chunk with a tie (probability at most ``length**2 / 2**65``) is
    skipped and the next one is used.

    A batch of ``count`` takes its chunks from one call for
    ``8*length*count`` bytes and ranks them with one sort along the rows.
    Row k takes the k-th chunk with no tie, exactly as the k-th of
    ``count`` successive single calls would: each tied chunk is skipped,
    and one more chunk per skipped one is drawn at the end.  So from a
    source whose bytes do not depend on how they are split into calls,
    such as :class:`SeededByteSource` for multiples of 8, a batch returns
    the same permutations as successive single calls and consumes the
    same bytes.

    The ranking sorts plain integers: each key's low
    ``length.bit_length()`` bits are replaced by its 1-based position,
    and when the remaining high parts are distinct they order the keys
    as the full keys do, so the sorted low bits are the ``argsort`` of
    the keys, plus one.  A chunk whose high parts collide (probability
    at most ``length**3 / 2**64``) is ranked by ``argsort`` of its full
    keys.  Both rankings are that of the keys, so the width of the low
    part changes no result.
    Either ranking is a bijection by construction, so the result is not
    re-checked and its inverse is not built until it is used: the sender
    only applies the permutation.
    """
    if length < 1:
        raise InvalidArgumentError(f"length={length} must be >= 1")
    rows = 1 if count is None else count
    if rows < 1:
        raise InvalidArgumentError(f"count={count} must be >= 1")
    low_bits = length.bit_length()
    shift, low_mask = np.uint64(low_bits), np.uint64((1 << low_bits) - 1)
    parts, ranked = [], 0
    while ranked < rows:
        wanted = rows - ranked
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
    maps = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return Permutation._from_ranking(maps[0]) if count is None else maps


def encode_block(params: ProtocolParams, block, sigma, mu: float):
    """Place one pulse per qudit at slot ``sigma(d*i + q_i)``.

    ``block`` and ``sigma`` are a :class:`KeyBlock` and a
    :class:`Permutation`, and the result is one :class:`PulseFrame`.  Or
    they are a batch, one block per row: an ``(m, n)`` symbol array and
    an ``(m, d*n)`` array of image sequences, such as
    :func:`make_permutation` draws with ``count``; the result is a list
    of m frames, placed by one scatter.  A batch's rows must be
    bijections on {1..d*n}; only the pulse count is checked again.
    """
    single = isinstance(block, KeyBlock)
    symbols, maps = (block.symbols[None], sigma.map_[None]) if single else (block, sigma)
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
    frames = [PulseFrame(occupancy=row, mu=mu) for row in occupancy]
    return frames[0] if single else frames


def decode_click(params: ProtocolParams, sigma: Permutation, t: int) -> tuple[int, int]:
    """Map a click at slot ``t`` back to ``(qudit index, symbol)`` via
    ``sigma^{-1}(t) = i*d + j``."""
    if len(sigma) != params.slot_count:
        raise InvalidArgumentError(
            f"permutation length {len(sigma)} != d*n={params.slot_count}"
        )
    u = sigma.invert(t)
    i = (u - 1) // params.d
    j = u - i * params.d
    return i, j


def sift_block(
    alice: KeyBlock, report: DetectionReport, d: int
) -> tuple[list[int], list[int]]:
    """Align the sender's symbols with the receiver's reported symbols
    for the qudits that arrived, ordered by qudit index. A reported
    symbol outside {1..d} is rejected."""
    entries = sorted(report.entries)
    indices = [i for i, _ in entries]
    if len(set(indices)) != len(indices):
        raise ProtocolError("duplicate qudit index in detection report")
    if entries and (entries[0][0] < 0 or entries[-1][0] >= len(alice.symbols)):
        raise ProtocolError("reported qudit index outside the block")
    if any(not 1 <= j <= d for _, j in entries):
        raise ProtocolError(f"reported symbol outside {{1..{d}}}")
    alice_sifted = [int(alice.symbols[i]) for i, _ in entries]
    bob_sifted = [int(j) for _, j in entries]
    return alice_sifted, bob_sifted
