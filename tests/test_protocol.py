import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from hdcow.channel import ClickStream, decode_frame
from hdcow.errors import InvalidArgumentError, ProtocolError
from hdcow.protocol import (
    DetectionReport,
    Permutation,
    ProtocolParams,
    SeededByteSource,
    encode_block,
    make_permutation,
    sift_block,
)


class TestMakePermutation:
    def test_length_one_is_identity(self):
        assert make_permutation(1, SeededByteSource(0)).tolist() == [[1]]

    def test_deterministic_for_fixed_seed(self):
        a = make_permutation(4, SeededByteSource(42))
        b = make_permutation(4, SeededByteSource(42))
        assert a.shape == (1, 4) and np.array_equal(a, b)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_permutation(0, SeededByteSource(0))

    def test_output_is_bijection(self):
        (perm,) = make_permutation(250, SeededByteSource(3))
        assert sorted(perm) == list(range(1, 251))

    def test_equidistribution_chi_square(self):
        # every value equally likely at every position, p > 0.001
        length, samples = 6, 100_000
        source = SeededByteSource(2024)
        counts = np.zeros((length, length), dtype=np.int64)
        for _ in range(samples):
            (perm,) = make_permutation(length, source)
            counts[np.arange(length), perm - 1] += 1
        expected = samples / length
        for pos in range(length):
            chi2 = float(((counts[pos] - expected) ** 2 / expected).sum())
            p_value = stats.chi2.sf(chi2, df=length - 1)
            assert p_value > 0.001, f"position {pos}: chi2={chi2}, p={p_value}"

    def test_joint_distribution_chi_square(self):
        # all 24 orderings of length 4 equally likely, p > 0.001; a random
        # cyclic shift would pass the per-position test above, not this one
        length, samples = 4, 48_000
        source = SeededByteSource(7)
        index = {p: k for k, p in enumerate(itertools.permutations(range(1, length + 1)))}
        counts = np.zeros(len(index), dtype=np.int64)
        for _ in range(samples):
            counts[index[tuple(make_permutation(length, source)[0].tolist())]] += 1
        expected = samples / len(index)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        p_value = stats.chi2.sf(chi2, df=len(index) - 1)
        assert p_value > 0.001, f"chi2={chi2}, p={p_value}"


class TestSeededByteSource:
    def test_matches_generator_bytes_for_whole_words(self):
        source, reference = SeededByteSource(2024), np.random.default_rng(2024)
        for count in (8, 512 * 8, 16, 32768 * 8, 8):
            assert source(count) == reference.bytes(count)

    def test_stream_is_pinned(self):
        # the first two raw PCG64 words of seed 2024, little-endian
        assert SeededByteSource(2024)(16).hex() == "e8cad43d564803add9d0a317a4e2dd36"

    def test_returns_read_only_view_of_exact_length(self):
        # no copy into bytes: a read-only view of the drawn words
        source = SeededByteSource(2024)
        for count in (0, 3, 8, 4096):
            out = source(count)
            assert isinstance(out, memoryview)
            assert out.readonly and out.format == "B" and len(out) == count

    def test_partial_word_drops_its_tail(self):
        # 4 bytes take one whole word; the next call starts on a fresh
        # word, where Generator.bytes would go on with the buffered half
        words = np.random.PCG64(2024).random_raw(3).astype("<u8").tobytes()
        source = SeededByteSource(2024)
        assert source(0) == b""  # takes no word
        assert source(4) == words[:4]
        assert source(8) == words[8:16]
        assert source(3) == words[16:19]
        generator = np.random.default_rng(2024)
        assert generator.bytes(4) == words[:4]
        assert generator.bytes(8) == words[4:12]


class ScriptedSource:
    """Byte source returning fixed draws of little-endian u64 keys in
    order and recording how many bytes each call asked for."""

    def __init__(self, *draws):
        self._draws = [np.array(keys, dtype="<u8").tobytes() for keys in draws]
        self.requests = []

    def __call__(self, count):
        self.requests.append(count)
        return self._draws.pop(0)


class TestKeyRanking:
    def test_tie_free_draw_calls_source_once(self):
        source = ScriptedSource([30, 10, 2**64 - 1, 0, 20])
        perm = make_permutation(5, source)
        assert source.requests == [40]
        assert perm.tolist() == [[4, 2, 5, 1, 3]]

    def test_draw_with_a_tie_is_redrawn_whole(self):
        second = [7, 2**63, 3, 99]
        source = ScriptedSource([5, 1, 5, 2], second)
        (perm,) = make_permutation(4, source)
        assert source.requests == [32, 32]
        assert list(perm) == list(np.argsort(second) + 1) == [3, 1, 4, 2]

    def test_colliding_high_parts_are_ranked_by_full_keys(self):
        # length 2 packs the position into bit 0, so 5 and 4 agree above it
        source = ScriptedSource([5, 4])
        assert make_permutation(2, source).tolist() == [[2, 1]]
        assert source.requests == [16]

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    def test_ranking_is_argsort_of_keys(self, length, seed):
        keys = np.frombuffer(SeededByteSource(seed)(8 * length), dtype="<u8")
        (perm,) = make_permutation(length, SeededByteSource(seed))
        assert np.array_equal(perm, np.argsort(keys) + 1)

    def test_keys_are_little_endian(self):
        # 01 00 .. 00 is 1 read little-endian and 2**56 read big-endian
        data = b"\x01" + bytes(7) + bytes(7) + b"\x02"
        assert make_permutation(2, lambda count: data).tolist() == [[1, 2]]

    def test_short_read_rejected(self):
        with pytest.raises(InvalidArgumentError, match="returned 15 bytes"):
            make_permutation(2, lambda count: bytes(15))


def _chunks(*draws):
    """Little-endian u64 keys of several draws, as one draw."""
    return [key for keys in draws for key in keys]


class TestBatchedDraws:
    # Tie-free chunks of 4 keys whose high parts (above the 3 low bits)
    # are distinct, so each is ranked by the packed sort.
    PLAIN = ([56, 48, 40, 64], [800, 16, 2**63, 4000], [30, 10, 2**64 - 1, 0],
             [72, 2**64 - 9, 320, 1600], [8, 24, 16, 32])

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(2, 64),
        n=st.integers(1, 1100),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=3, n=7, count=33, seed=0)
    @example(d=64, n=1099, count=40, seed=1)
    def test_batched_keys_equal_successive_draws(self, d, n, count, seed):
        # A session draws a batch's keys at once.  That this is the
        # stream of one block at a time rests on numpy's bounded-integer
        # sampling, so it is pinned here at every numpy version tested.
        batch_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = batch_rng.integers(1, d + 1, size=(count, n))
        singles = [single_rng.integers(1, d + 1, size=n) for _ in range(count)]
        assert batch.shape == (count, n)
        assert np.array_equal(batch, singles)
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        length=st.integers(1, 600),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_successive_calls(self, length, count, seed):
        batch = make_permutation(length, SeededByteSource(seed), count)
        source = SeededByteSource(seed)
        singles = [make_permutation(length, source)[0] for _ in range(count)]
        assert batch.shape == (count, length) and batch.dtype == np.int64
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize(
        "special, skipped",
        [
            ([5, 1, 5, 2], True),  # a full-key tie: the chunk is skipped
            ([9, 8, 100, 2**63], False),  # 9 and 8 agree above the low 3 bits
        ],
    )
    def test_tie_inside_a_batch_matches_single_draws(self, k, special, skipped):
        chunks = list(self.PLAIN)
        chunks[k] = special
        count = k + 2
        used = count + skipped  # chunks the draws consume
        first, rest = _chunks(*chunks[:count]), chunks[count:used]
        batch_source = ScriptedSource(first, *rest)
        batch = make_permutation(4, batch_source, count)
        single_source = ScriptedSource(*chunks[:used])
        singles = [make_permutation(4, single_source)[0] for _ in range(count)]
        assert np.array_equal(batch, singles)
        assert batch_source.requests == [32 * count] + [32] * skipped
        assert sum(batch_source.requests) == sum(single_source.requests) == 32 * used
        if not skipped:
            assert list(batch[k]) == [2, 1, 3, 4]  # argsort of the full keys

    def test_count_below_one_rejected(self):
        with pytest.raises(InvalidArgumentError, match="count=0"):
            make_permutation(4, SeededByteSource(0), 0)


def rank_buffers(rows, length):
    """A sender's two ranking arrays, filled with values no ranking holds."""
    return np.full((rows, length), 2**64 - 1, np.uint64), np.full((rows, length), -7, np.int64)


class TestRankBuffers:
    """A sender ranks one train after another in the same two arrays; each
    call must return what fresh arrays give, whatever the last one left."""

    @pytest.mark.parametrize(
        "counts", [[1], [3], [2], [3, 1, 3, 2]], ids=["one row", "full", "short", "reused"]
    )
    def test_rows_equal_fresh_calls(self, counts):
        length, buffers = 37, rank_buffers(3, 37)
        source, fresh_source = SeededByteSource(5), SeededByteSource(5)
        for count in counts:
            got = make_permutation(length, source, count, buffers=buffers)
            want = make_permutation(length, fresh_source, count)
            assert got.shape == (count, length) and got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.shares_memory(got, buffers[1])

    @pytest.mark.parametrize(
        "special, skipped",
        [
            ([5, 1, 5, 2], True),  # a full-key tie: the chunk is skipped
            ([9, 8, 100, 2**63], False),  # 9 and 8 agree above the low 3 bits
        ],
        ids=["tie", "high-part collision"],
    )
    def test_tie_and_collision_paths_equal_fresh_calls(self, special, skipped):
        plain = TestBatchedDraws.PLAIN
        chunks = [plain[0], special, *plain[1:3]]
        buffers = rank_buffers(3, 4)
        make_permutation(4, ScriptedSource(_chunks(*plain[2:])), 3, buffers=buffers)
        draws = (_chunks(*chunks[:3]), *chunks[3:])
        source, fresh_source = ScriptedSource(*draws), ScriptedSource(*draws)
        got = make_permutation(4, source, 3, buffers=buffers)
        assert np.array_equal(got, make_permutation(4, fresh_source, 3))
        assert source.requests == fresh_source.requests == [96] + [32] * skipped


class TestPermutationBuffers:
    def test_reused_buffers_equal_fresh_checks(self):
        maps = make_permutation(6, SeededByteSource(2), 4)
        buffers = np.full(3 * 6, -7, np.int64), np.full(3 * 6 + 1, -7, np.int32)
        for rows in (maps[:3], maps[3:], maps[1:3], maps[0]):
            got, want = Permutation(rows, buffers=buffers), Permutation(rows)
            assert np.array_equal(got.map_, want.map_) and got.map_.shape == rows.shape
            assert np.array_equal(got.inverse_map, want.inverse_map)
            assert np.shares_memory(got.inverse_map, buffers[1])

    def test_reused_buffers_refuse_a_bad_second_check(self):
        buffers = np.empty(8, np.int64), np.empty(9, np.int32)
        Permutation(np.array([[2, 1, 4, 3], [1, 2, 3, 4]]), buffers=buffers)
        with pytest.raises(InvalidArgumentError, match="not a bijection"):
            Permutation(np.array([[2, 1, 4, 3], [1, 2, 2, 4]]), buffers=buffers)
        with pytest.raises(InvalidArgumentError, match=r"outside \{1\.\.L\}"):
            Permutation(np.array([2, 1, 4, 5]), buffers=buffers)


class TestPermutation:
    # lengths at the edges of the narrower dtypes; the inverse is int32
    # below 2**31 slots
    @pytest.mark.parametrize("length", [1, 255, 256, 65535, 65536, 65537])
    def test_inverse_at_scatter_dtype_boundaries(self, length):
        (map_,) = make_permutation(length, SeededByteSource(11))
        perm = Permutation(map_)
        assert np.array_equal(perm.inverse_map, np.argsort(map_) + 1)
        assert np.array_equal(map_[perm.inverse_map - 1], np.arange(1, length + 1))
        assert perm.inverse_map.dtype == np.int32

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidArgumentError):
            Permutation(np.array([1, 1, 3]))
        with pytest.raises(InvalidArgumentError):
            Permutation(np.array([0, 1, 2]))

    @pytest.mark.parametrize("map_", [[1, 2, 4], [-1, 1, 2], [2, 3, 2**40]])
    def test_rejects_values_outside_range(self, map_):
        with pytest.raises(InvalidArgumentError, match=r"outside \{1\.\.L\}"):
            Permutation(np.array(map_))

    def test_compares_by_identity(self):
        # Its arrays may be views of buffers that the next train reuses,
        # so equal values say nothing lasting; comparing them raised.
        perm, same_values = Permutation(np.array([2, 1, 3])), Permutation(np.array([2, 1, 3]))
        assert perm == perm
        assert perm != same_values


def identity_maps(length):
    return np.arange(1, length + 1)[None]


class TestEncodeBlock:
    """A train is the sorted 0-based slots of its pulses, frame k's from
    k*d*n on."""

    def test_identity_permutation_d2(self):
        params = ProtocolParams(d=2, n=2)
        pulses = encode_block(params, np.array([[1, 2]]), identity_maps(4))
        assert pulses.dtype == np.int64
        assert pulses.tolist() == [0, 3]

    def test_identity_permutation_single_qudit(self):
        params = ProtocolParams(d=4, n=1)
        assert encode_block(params, np.array([[3]]), identity_maps(4)).tolist() == [2]

    def test_nontrivial_permutation(self):
        # raw slots {1, 4} map through sigma=[3,4,1,2] to {3, 2}
        params = ProtocolParams(d=2, n=2)
        pulses = encode_block(params, np.array([[1, 2]]), np.array([[3, 4, 1, 2]]))
        assert pulses.tolist() == [1, 2]

    def test_batch_matches_per_qudit_placement(self):
        params = ProtocolParams(d=3, n=5)
        symbols = np.random.default_rng(4).integers(1, 4, size=(6, 5))
        maps = make_permutation(15, SeededByteSource(4), 6)
        pulses = encode_block(params, symbols, maps)
        expected = [
            15 * k + images[3 * i + q - 1] - 1
            for k, (row, images) in enumerate(zip(symbols, maps))
            for i, q in enumerate(row)
        ]
        assert pulses.dtype == np.int64 and pulses.tolist() == sorted(expected)

    @pytest.mark.parametrize("image", [-1, 0, 5])
    def test_image_outside_the_frame_rejected_in_any_row(self, image):
        # Row 0's first qudit takes the bad image; row 1 is the identity.
        # An image of -1 used to land on row 1's last slot, so the pulse
        # count still held and row 1 was sent with three pulses.
        params = ProtocolParams(d=2, n=2)
        maps = np.array([[image, 2, 3, 4], [1, 2, 3, 4]])
        with pytest.raises(InvalidArgumentError, match=r"outside \{1\.\.4\}"):
            encode_block(params, np.array([[1, 1], [1, 1]]), maps)

    def test_two_pulses_in_one_slot_rejected(self):
        # both of row 0's qudits take image 1; row 1 is the identity
        params = ProtocolParams(d=2, n=2)
        maps = np.array([[1, 2, 1, 4], [1, 2, 3, 4]])
        with pytest.raises(InvalidArgumentError, match="two pulses in one slot"):
            encode_block(params, np.array([[1, 1], [1, 1]]), maps)

    def test_batch_shape_mismatch_rejected(self):
        params = ProtocolParams(d=2, n=2)
        symbols = np.array([[1, 2], [2, 1]])
        with pytest.raises(InvalidArgumentError, match="shape"):
            encode_block(params, symbols, np.array([[1, 2, 3, 4]]))
        with pytest.raises(InvalidArgumentError, match="symbols outside"):
            encode_block(params, symbols + 1, np.array([[1, 2, 3, 4]] * 2))

    def test_length_mismatch_rejected(self):
        params = ProtocolParams(d=2, n=2)
        with pytest.raises(InvalidArgumentError, match="shape"):
            encode_block(params, np.array([[1, 2]]), identity_maps(6))
        with pytest.raises(InvalidArgumentError, match="block length 3"):
            encode_block(params, np.array([[1, 2, 1]]), identity_maps(4))


def sifted(symbols, entries, d):
    """``sift_block`` on a report of ``entries``, as two lists of ints."""
    alice, bob = sift_block(symbols, DetectionReport(entries), d)
    assert alice.dtype == bob.dtype == np.int64
    return alice.tolist(), bob.tolist()


def sift_reference(symbols, entries, d):
    """The sift of a report given as (qudit, symbol) pairs, one pair at a
    time: sorted by qudit, each qudit once and in the block, each symbol
    in {1..d}."""
    entries = sorted(entries)
    indices = [i for i, _ in entries]
    if len(set(indices)) != len(indices):
        raise ProtocolError("duplicate qudit index in detection report")
    if entries and (entries[0][0] < 0 or entries[-1][0] >= len(symbols)):
        raise ProtocolError("reported qudit index outside the block")
    if any(not 1 <= j <= d for _, j in entries):
        raise ProtocolError(f"reported symbol outside {{1..{d}}}")
    return [int(symbols[i]) for i, _ in entries], [j for _, j in entries]


class TestSiftBlock:
    def test_empty_report(self):
        assert sifted([1, 2], (), d=2) == ([], [])
        assert sifted([1, 2], np.empty((0, 2), dtype=np.int64), d=2) == ([], [])

    def test_noiseless_agreement(self):
        assert sifted([1, 2, 3], ((0, 1), (2, 3)), d=3) == ([1, 3], [1, 3])

    def test_constructed_mismatch(self):
        assert sifted([1, 2], ((1, 1),), d=2) == ([2], [1])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            sift_block([1, 2], DetectionReport(((0, 1), (0, 2))), d=2)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ProtocolError):
            sift_block([1, 2], DetectionReport(((5, 1),)), d=2)

    def test_out_of_range_symbol_rejected(self):
        for entry in ((0, 0), (1, 99)):
            with pytest.raises(ProtocolError, match="symbol"):
                sift_block([1, 2], DetectionReport((entry,)), d=2)
        assert sifted([1, 2], ((1, 2),), d=2) == ([2], [2])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arrays_match_the_pairwise_reference(self, data):
        # reports in any order, some naming a qudit twice, a qudit outside
        # the block or a symbol outside {1..d}
        d = data.draw(st.integers(2, 8), label="d")
        symbols = data.draw(st.lists(st.integers(1, d), min_size=1, max_size=16), label="symbols")
        qudit = st.integers(-2, len(symbols) + 1)
        entries = data.draw(
            st.lists(st.tuples(qudit, st.integers(0, d + 1)), max_size=20), label="entries"
        )
        array = np.array(entries, dtype=np.int64).reshape(-1, 2)
        try:
            want = sift_reference(symbols, entries, d)
        except ProtocolError as refused:
            with pytest.raises(ProtocolError, match=f"^{re.escape(str(refused))}$"):
                sift_block(np.array(symbols), DetectionReport(array), d)
        else:
            assert sifted(np.array(symbols), array, d) == want


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip_property(data):
    d = data.draw(st.integers(2, 32), label="d")
    n = data.draw(st.integers(1, 64), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    params = ProtocolParams(d=d, n=n)
    (symbols,) = np.random.default_rng(seed).integers(1, d + 1, size=(1, n))
    maps = make_permutation(d * n, SeededByteSource(seed))
    pulses = encode_block(params, symbols[None], maps)
    sigma = Permutation(maps[0])

    assert len(pulses) == n and (np.diff(pulses) > 0).all()
    # every pulse clicks, once: each qudit decodes to its own symbol
    clicks = ClickStream(pulses, np.zeros(0, dtype=np.int64))
    entries = decode_frame(params, sigma, clicks).entries
    assert entries.dtype == np.int64
    assert entries.tolist() == [[i, int(q)] for i, q in enumerate(symbols)]
