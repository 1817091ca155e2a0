import pytest

import stats


@pytest.mark.parametrize("count, expected", [
    (39, None),      # p75 would leave 9 samples beyond it
    (40, 75.0),
    (100, 90.0),     # p95 would leave only 5
    (199, 90.0),     # p95 leaves 9
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_p95_needs_two_hundred_samples():
    assert stats.samples_beyond(199, 95.0) == 9
    assert stats.samples_beyond(200, 95.0) == 10


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 75) == 40.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile([], 95) == 0.0


def test_iqr_share_matches_statistics_quantiles():
    import statistics

    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.9, 9.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert stats.iqr_share([5.0]) == 0.0


def test_summarize_keeps_every_pass_beside_the_median():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary["value"] == 2.0
    assert summary["per_pass"] == [3.0, 1.0, 2.0]
    assert summary["iqr_share"] > 0
