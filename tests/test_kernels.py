import numpy as np

from hdcow.kernels import BACKEND, dead_time_filter


def test_backend_reports_name():
    assert BACKEND == "python"


def test_empty_input():
    kept, last = dead_time_filter(np.array([], dtype=np.int64), 100)
    assert len(kept) == 0
    assert last < 0


def test_zero_dead_time_keeps_everything():
    cand = np.array([1, 2, 3, 10], dtype=np.int64)
    kept, last = dead_time_filter(cand, 0)
    assert list(kept) == [1, 2, 3, 10]
    assert last == 10


def test_blocks_within_window():
    cand = np.array([1, 2, 100, 101, 102, 250], dtype=np.int64)
    kept, last = dead_time_filter(cand, 100)
    # 1 kept; 2..101 blocked; 102 kept; 103..202 blocked; 250 kept
    assert list(kept) == [1, 102, 250]
    assert last == 250


def test_gap_equal_to_window_is_blocked():
    cand = np.array([10, 110, 111], dtype=np.int64)
    kept, _ = dead_time_filter(cand, 100)
    assert list(kept) == [10, 111]


def test_carry_across_batches():
    first = np.array([50], dtype=np.int64)
    kept1, last1 = dead_time_filter(first, 100)
    second = np.array([120, 151, 400], dtype=np.int64)
    kept2, _ = dead_time_filter(second, 100, last1)
    assert list(kept1) == [50]
    assert list(kept2) == [151, 400]


def test_min_gap_invariant_random():
    rng = np.random.default_rng(17)
    cand = np.unique(rng.integers(0, 1_000_000, size=200_000)).astype(np.int64)
    kept, _ = dead_time_filter(cand, 1999)
    gaps = np.diff(kept)
    assert (gaps > 1999).all()

