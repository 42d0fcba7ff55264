"""Request-weighted percentiles, the ten-beyond rule, quartiles and the digest."""

import numpy as np
import pytest

from bench.measure import (
    Digest,
    quartiles,
    rss_mb,
    samples_beyond,
    units_beyond,
    weighted_percentile,
)


@pytest.mark.parametrize("q", [0, 10, 50, 75, 90, 99, 100])
def test_weighted_percentile_equals_the_expanded_sample(q):
    rng = np.random.default_rng(5)
    values = rng.exponential(1.0, size=57)
    weights = rng.integers(1, 40, size=57)
    expanded = np.repeat(values, weights)
    expected = np.percentile(expanded, q, method="inverted_cdf")
    assert weighted_percentile(values, weights, q) == expected


def test_a_heavy_window_moves_the_request_weighted_median():
    # Ten light windows of one request each and one slow window of eleven:
    # most requests waited on the slow window.
    values = [1.0] * 10 + [9.0]
    weights = [1] * 10 + [11]
    assert weighted_percentile(values, weights, 50) == 9.0
    assert weighted_percentile(values, [1] * 11, 50) == 1.0


def test_weighted_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_percentile([], [], 50)
    with pytest.raises(ValueError):
        weighted_percentile([1.0], [0], 50)
    with pytest.raises(ValueError):
        weighted_percentile([1.0, 2.0], [1], 50)
    with pytest.raises(ValueError):
        weighted_percentile([1.0], [1], 101)


def test_ten_samples_beyond_the_reported_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(20, 50) == 10
    values = np.arange(100.0)
    assert units_beyond(values, np.ones(100), 90) == 10
    assert units_beyond(values[:99], np.ones(99), 90) == 9
    assert units_beyond([], [], 90) == 0


def test_heavy_windows_count_once_beyond_a_weighted_percentile():
    # 96 light windows of one request and 4 flash windows of 10 requests:
    # the request-weighted p90 sits inside the flash windows, so only the
    # flash windows above it count, however many requests they hold.
    values = list(np.linspace(1.0, 2.0, 96)) + [10.0, 11.0, 12.0, 13.0]
    weights = [1] * 96 + [10] * 4
    assert weighted_percentile(values, weights, 90) == 12.0
    assert units_beyond(values, weights, 90) == 1


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 3.2]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_digest_is_order_sensitive_and_repeatable():
    def digest(items):
        d = Digest()
        for item in items:
            d.add(item)
        return d.hexdigest()

    assert digest([("a", 1.5), ("b", None)]) == digest([("a", 1.5), ("b", None)])
    assert digest([("a", 1.5), ("b", None)]) != digest([("b", None), ("a", 1.5)])


def test_rss_counts_this_process():
    assert rss_mb() > 1.0
