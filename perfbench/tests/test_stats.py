import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from stats import tail  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))          # 1..100, shuffled order ignored
    values.reverse()
    value, pct, n = tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, n = tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert abs(pct - 100.0 / 11) < 1e-12


def test_tail_rank_follows_sample_count():
    for n in (11, 37, 250):
        value, pct, _ = tail(range(n))
        assert value == n - 11
        assert pct == 100.0 * (n - 10) / n


def test_tail_without_ten_beyond_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
