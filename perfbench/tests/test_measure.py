"""The reporting rules: tail percentiles, quartiles and spread, and the
failed share."""

import statistics

import pytest

from measure import MIN_TAIL, failed_share, quartiles, spread, tail_percentile


def test_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, q = tail_percentile(values, 0.90)
    assert (value, q) == (90, 0.90)
    assert sum(v > value for v in values) == MIN_TAIL


def test_percentile_is_lowered_when_the_tail_is_thin():
    values = list(range(1, 161))
    value, q = tail_percentile(values, 0.99)
    assert q == pytest.approx(150 / 160)
    assert sum(v > value for v in values) == MIN_TAIL
    # With a thousand samples the requested percentile stands.
    assert tail_percentile(list(range(1, 1001)), 0.99) == (990, 0.99)


def test_percentile_falls_back_to_the_median_rank():
    assert tail_percentile([5.0, 1.0, 3.0], 0.9) == (3.0, 0.5)


def test_a_reference_count_fixes_the_percentile():
    # The same q whether a run reached fewer or more samples than the
    # reference: speed moves the value, never the percentile.
    for n in (200, 300, 600):
        value, q = tail_percentile(list(range(1, n + 1)), 0.99, 300)
        assert q == pytest.approx(290 / 300)
        assert value == pytest.approx(n * 290 / 300, abs=1)
    assert tail_percentile(list(range(1, 1001)), 0.99, 1000) == (990, 0.99)


@pytest.mark.parametrize("values, q, ref", [([], 0.5, None),
                                            ([1.0], 0.0, None),
                                            ([1.0], 1.0, None),
                                            ([1.0], 0.5, 0)])
def test_percentile_rejects_bad_input(values, q, ref):
    with pytest.raises(ValueError):
        tail_percentile(values, q, ref)


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_the_iqr_over_the_median():
    values = [10, 10, 11, 12, 9, 10, 10, 13, 8, 10]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10)
    assert spread([2.0] * 5) == 0.0
    with pytest.raises(ValueError):
        spread([0.0, 0.0, 0.0])


def test_failed_share():
    assert failed_share(200, 0) == 0.0
    assert failed_share(200, 5) == 0.025
    for attempted, failed in [(0, 0), (10, 11), (10, -1)]:
        with pytest.raises(ValueError):
            failed_share(attempted, failed)
