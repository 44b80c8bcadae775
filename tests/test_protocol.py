import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hdcow.errors import InvalidArgumentError, ProtocolError
from hdcow.protocol import (
    DetectionReport,
    KeyBlock,
    Permutation,
    ProtocolParams,
    SeededByteSource,
    decode_click,
    encode_block,
    make_permutation,
    sift_block,
)


class TestMakePermutation:
    def test_length_one_is_identity(self):
        perm = make_permutation(1, SeededByteSource(0))
        assert list(perm.map_) == [1]

    def test_deterministic_for_fixed_seed(self):
        a = make_permutation(4, SeededByteSource(42))
        b = make_permutation(4, SeededByteSource(42))
        assert list(a.map_) == list(b.map_)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_permutation(0, SeededByteSource(0))

    def test_output_is_bijection(self):
        perm = make_permutation(250, SeededByteSource(3))
        assert sorted(perm.map_) == list(range(1, 251))

    def test_equidistribution_chi_square(self):
        # every value equally likely at every position, p > 0.001
        length, samples = 6, 100_000
        source = SeededByteSource(2024)
        counts = np.zeros((length, length), dtype=np.int64)
        for _ in range(samples):
            perm = make_permutation(length, source)
            counts[np.arange(length), perm.map_ - 1] += 1
        expected = samples / length
        for pos in range(length):
            chi2 = float(((counts[pos] - expected) ** 2 / expected).sum())
            p_value = stats.chi2.sf(chi2, df=length - 1)
            assert p_value > 0.001, f"position {pos}: chi2={chi2}, p={p_value}"


class ScriptedSource:
    """Byte source returning fixed chunks of 4-byte words in order and
    recording how many bytes each call asked for."""

    def __init__(self, *chunks):
        self._chunks = [struct.pack(f"!{len(c)}I", *c) for c in chunks]
        self.requests = []

    def __call__(self, count):
        self.requests.append(count)
        return self._chunks.pop(0)


class TestRejectionSampling:
    # For length 6 the swap bounds are 6, 5, 4, 3, 2 in draw order.  A
    # word is rejected from 2**32 - 2**32 % bound up, which for bounds
    # 6, 5 and 3 includes 0xFFFFFFFF; bounds 4 and 2 reject nothing.
    WORDS = [0x12345678, 0x9ABCDEF0, 0x0BADF00D, 0x13579BDF, 0x2468ACE0]

    def test_rejected_words_are_redrawn(self):
        w = self.WORDS
        top = 0xFFFFFFFF
        source = ScriptedSource([top, top, w[2], top, w[4]], [w[0], w[1], w[3]])
        perm = make_permutation(6, source)
        assert source.requests == [20, 12]
        assert sorted(perm.map_) == list(range(1, 7))
        assert list(perm.map_) == list(make_permutation(6, ScriptedSource(w)).map_)

    def test_rejection_bound_is_exact(self):
        w = self.WORDS
        limit = 2**32 - 2**32 % 6  # a multiple of 6
        # the first redraw is rejected again; limit - 1 is accepted, and
        # is the same draw below 6 as the word 5
        source = ScriptedSource([limit, *w[1:]], [0xFFFFFFFF], [limit - 1])
        perm = make_permutation(6, source)
        assert source.requests == [20, 4, 4]
        reference = make_permutation(6, ScriptedSource([5, *w[1:]]))
        assert list(perm.map_) == list(reference.map_)


class TestPermutation:
    def test_round_trip_is_identity(self):
        perm = make_permutation(48, SeededByteSource(9))
        for u in range(1, 49):
            assert perm.invert(perm.apply(u)) == u

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidArgumentError):
            Permutation(np.array([1, 1, 3]))
        with pytest.raises(InvalidArgumentError):
            Permutation(np.array([0, 1, 2]))


class TestEncodeBlock:
    def test_identity_permutation_d2(self):
        params = ProtocolParams(d=2, n=2, tau=2e-9)
        frame = encode_block(
            params, KeyBlock([1, 2]), Permutation.identity(4), mu=0.1
        )
        assert list(frame.occupancy.astype(int)) == [1, 0, 0, 1]

    def test_identity_permutation_single_qudit(self):
        params = ProtocolParams(d=4, n=1, tau=2e-9)
        frame = encode_block(
            params, KeyBlock([3]), Permutation.identity(4), mu=0.1
        )
        assert list(frame.occupancy.astype(int)) == [0, 0, 1, 0]

    def test_nontrivial_permutation(self):
        # raw slots {1, 4} map through sigma=[3,4,1,2] to {3, 2}
        params = ProtocolParams(d=2, n=2, tau=2e-9)
        frame = encode_block(
            params, KeyBlock([1, 2]), Permutation(np.array([3, 4, 1, 2])), mu=0.1
        )
        assert list(frame.occupancy.astype(int)) == [0, 1, 1, 0]

    def test_length_mismatch_rejected(self):
        params = ProtocolParams(d=2, n=2, tau=2e-9)
        with pytest.raises(InvalidArgumentError):
            encode_block(params, KeyBlock([1, 2]), Permutation.identity(6), mu=0.1)
        with pytest.raises(InvalidArgumentError):
            encode_block(params, KeyBlock([1, 2, 1]), Permutation.identity(4), mu=0.1)


class TestDecodeClick:
    @pytest.mark.parametrize(
        "d,n,t,expected",
        [(2, 2, 4, (1, 2)), (4, 1, 3, (0, 3))],
    )
    def test_identity_examples(self, d, n, t, expected):
        params = ProtocolParams(d=d, n=n, tau=2e-9)
        assert decode_click(params, Permutation.identity(d * n), t) == expected

    def test_nontrivial_permutation(self):
        params = ProtocolParams(d=2, n=2, tau=2e-9)
        sigma = Permutation(np.array([3, 4, 1, 2]))
        assert decode_click(params, sigma, 2) == (1, 2)

    def test_out_of_range_rejected(self):
        params = ProtocolParams(d=2, n=2, tau=2e-9)
        with pytest.raises(InvalidArgumentError):
            decode_click(params, Permutation.identity(4), 5)


class TestSiftBlock:
    def test_empty_report(self):
        assert sift_block(KeyBlock([1, 2]), DetectionReport(()), d=2) == ([], [])

    def test_noiseless_agreement(self):
        alice, bob = sift_block(
            KeyBlock([1, 2, 3]), DetectionReport(((0, 1), (2, 3))), d=3
        )
        assert (alice, bob) == ([1, 3], [1, 3])

    def test_constructed_mismatch(self):
        alice, bob = sift_block(KeyBlock([1, 2]), DetectionReport(((1, 1),)), d=2)
        assert (alice, bob) == ([2], [1])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            sift_block(KeyBlock([1, 2]), DetectionReport(((0, 1), (0, 2))), d=2)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ProtocolError):
            sift_block(KeyBlock([1, 2]), DetectionReport(((5, 1),)), d=2)

    def test_out_of_range_symbol_rejected(self):
        for entry in ((0, 0), (1, 99)):
            with pytest.raises(ProtocolError, match="symbol"):
                sift_block(KeyBlock([1, 2]), DetectionReport((entry,)), d=2)
        accepted = sift_block(KeyBlock([1, 2]), DetectionReport(((1, 2),)), d=2)
        assert accepted == ([2], [2])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_encode_decode_round_trip_property(data):
    d = data.draw(st.integers(2, 32), label="d")
    n = data.draw(st.integers(1, 64), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    params = ProtocolParams(d=d, n=n, tau=2e-9)
    rng = np.random.default_rng(seed)
    block = KeyBlock.random(params, rng)
    sigma = make_permutation(d * n, SeededByteSource(seed))
    frame = encode_block(params, block, sigma, mu=0.1)

    assert int(frame.occupancy.sum()) == n
    decoded = {
        decode_click(params, sigma, t + 1)
        for t in np.nonzero(frame.occupancy)[0]
    }
    assert decoded == {(i, int(q)) for i, q in enumerate(block.symbols)}
