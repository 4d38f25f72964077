"""Unit tests for the statistics substrate, cross-checked against scipy."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy import special as scipy_special

from repro.exceptions import DistributionError
from repro.stats.chisquare import pearson_chi2_test
from repro.stats.distribution import DiscreteDistribution
from repro.stats.histogram import Histogram, latency_summary, percentile
from repro.stats.special import chi2_sf, regularized_gamma_p, regularized_gamma_q


class TestSpecialFunctions:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 4.5, 10.0, 50.0])
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 3.0, 10.0, 40.0, 120.0])
    def test_gamma_p_matches_scipy(self, a, x):
        assert regularized_gamma_p(a, x) == pytest.approx(
            float(scipy_special.gammainc(a, x)), abs=1e-10
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 4.5, 10.0])
    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 8.0, 30.0])
    def test_gamma_q_matches_scipy(self, a, x):
        assert regularized_gamma_q(a, x) == pytest.approx(
            float(scipy_special.gammaincc(a, x)), abs=1e-10
        )

    def test_p_plus_q_is_one(self):
        for a in (0.7, 3.0, 12.0):
            for x in (0.4, 2.0, 9.0):
                assert regularized_gamma_p(a, x) + regularized_gamma_q(
                    a, x
                ) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_p(1.0, -1.0)

    @pytest.mark.parametrize("dof", [1, 2, 5, 9, 20])
    @pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 9.0, 25.0, 60.0])
    def test_chi2_sf_matches_scipy(self, dof, x):
        assert chi2_sf(x, dof) == pytest.approx(
            float(scipy_stats.chi2.sf(x, dof)), abs=1e-10
        )

    def test_chi2_sf_invalid(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 3)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestDiscreteDistribution:
    def test_from_pairs_merges_duplicates(self):
        dist = DiscreteDistribution.from_pairs([(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)])
        assert dist.support_size == 2
        assert dist.prob_of(1.0) == pytest.approx(0.5)

    def test_from_samples(self):
        dist = DiscreteDistribution.from_samples([1, 1, 1, 3])
        assert dist.prob_of(1.0) == pytest.approx(0.75)
        assert dist.prob_of(3.0) == pytest.approx(0.25)

    def test_impulse(self):
        dist = DiscreteDistribution.impulse(4.0)
        assert dist.is_impulse
        assert dist.mean() == 4.0
        assert dist.variance() == 0.0
        assert dist.entropy() == 0.0

    def test_moments(self):
        dist = DiscreteDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert dist.mean() == pytest.approx(1.0)
        assert dist.variance() == pytest.approx(1.0)
        assert dist.entropy() == pytest.approx(math.log(2))

    def test_cdf_sf(self):
        dist = DiscreteDistribution.from_pairs([(1.0, 0.25), (2.0, 0.5), (4.0, 0.25)])
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == pytest.approx(0.25)
        assert dist.cdf(3.0) == pytest.approx(0.75)
        assert dist.sf(2.0) == pytest.approx(0.25)
        assert dist.sf(4.0) == 0.0

    def test_map_merges(self):
        dist = DiscreteDistribution.from_pairs([(1.0, 0.5), (-1.0, 0.5)])
        squared = dist.map(lambda v: v * v)
        assert squared.is_impulse
        assert squared.mean() == 1.0

    def test_sample_matches_distribution(self):
        dist = DiscreteDistribution.from_pairs([(0.0, 0.2), (1.0, 0.8)])
        rng = np.random.default_rng(3)
        draws = dist.sample(rng, 20_000)
        assert float(draws.mean()) == pytest.approx(0.8, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_pairs([])
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_samples([])

    def test_negative_weight_rejected(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_pairs([(1.0, -0.5)])

    def test_values_read_only(self):
        dist = DiscreteDistribution.impulse(1.0)
        with pytest.raises(ValueError):
            dist.values[0] = 2.0

    def test_allclose(self):
        a = DiscreteDistribution.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        b = DiscreteDistribution.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        c = DiscreteDistribution.from_pairs([(1.0, 0.4), (2.0, 0.6)])
        assert a.allclose(b)
        assert not a.allclose(c)


class TestHistogram:
    def test_binning(self):
        hist = Histogram([0.0, 1.0, 2.0])
        hist.add_all([0.1, 0.5, 1.5])
        assert list(hist.counts) == [2, 1]
        assert hist.total == 3

    def test_clamping_out_of_range(self):
        hist = Histogram([0.0, 1.0])
        hist.add(-5.0)
        hist.add(5.0)
        assert hist.total == 2
        assert hist.counts[0] == 2

    def test_bin_means(self):
        hist = Histogram([0.0, 10.0])
        hist.add_all([2.0, 4.0])
        assert hist.bin_mean(0) == pytest.approx(3.0)

    def test_empty_bin_mean_is_center(self):
        hist = Histogram([0.0, 10.0])
        assert hist.bin_mean(0) == pytest.approx(5.0)

    def test_to_distribution(self):
        hist = Histogram([0.0, 1.0, 2.0])
        hist.add_all([0.25, 0.75, 1.5, 1.5])
        dist = hist.to_distribution()
        assert dist.prob_of(0.5) == pytest.approx(0.5)
        assert dist.prob_of(1.5) == pytest.approx(0.5)

    def test_to_distribution_empty_raises(self):
        with pytest.raises(DistributionError):
            Histogram([0.0, 1.0]).to_distribution()

    def test_merge(self):
        a = Histogram([0.0, 1.0, 2.0])
        a.add(0.5)
        b = Histogram([0.0, 1.0, 2.0])
        b.add(1.5)
        merged = a.merged_with(b)
        assert merged.total == 2
        assert list(merged.counts) == [1, 1]

    def test_merge_mismatched_edges(self):
        with pytest.raises(DistributionError):
            Histogram([0.0, 1.0]).merged_with(Histogram([0.0, 2.0]))

    def test_invalid_edges(self):
        with pytest.raises(DistributionError):
            Histogram([1.0])
        with pytest.raises(DistributionError):
            Histogram([1.0, 1.0])


class TestPercentile:
    @pytest.mark.parametrize(
        "series, pct, expected",
        [
            ([7.0], 50.0, 7.0),
            ([7.0], 99.0, 7.0),
            ([30.0, 50.0], 50.0, 30.0),
            ([30.0, 50.0], 95.0, 50.0),
            ([1.0, 2.0, 3.0, 4.0], 50.0, 2.0),
            ([1.0, 2.0, 3.0, 4.0], 90.0, 4.0),
            ([float(i) for i in range(1, 101)], 95.0, 95.0),
            ([float(i) for i in range(1, 101)], 99.0, 99.0),
            ([float(i) for i in range(1, 101)], 0.0, 1.0),
        ],
    )
    def test_nearest_rank(self, series, pct, expected):
        assert percentile(series, pct) == expected

    def test_latency_summary(self):
        assert latency_summary([]) == {"samples": 0}
        assert latency_summary([3.00049, 1.0, 2.0]) == {
            "samples": 3,
            "p50_ms": 2.0,
            "p95_ms": 3.0,
            "p99_ms": 3.0,
            "max_ms": 3.0,
        }


class TestPearsonChi2:
    def test_matches_scipy_chisquare(self):
        observed = np.array([18.0, 22.0, 30.0, 30.0])
        proportions = np.array([0.25, 0.25, 0.25, 0.25])
        result = pearson_chi2_test(observed, proportions)
        expected = scipy_stats.chisquare(observed)
        assert result.statistic == pytest.approx(expected.statistic)
        assert result.p_value == pytest.approx(expected.pvalue, abs=1e-10)

    def test_matches_scipy_uneven_reference(self):
        observed = np.array([50.0, 30.0, 20.0])
        proportions = np.array([0.5, 0.3, 0.2])
        result = pearson_chi2_test(observed, proportions)
        expected = scipy_stats.chisquare(
            observed, f_exp=observed.sum() * proportions
        )
        assert result.statistic == pytest.approx(expected.statistic)
        assert result.p_value == pytest.approx(expected.pvalue, abs=1e-10)

    def test_identical_distribution_accepts(self):
        observed = np.array([100.0, 200.0, 300.0])
        proportions = observed / observed.sum()
        result = pearson_chi2_test(observed, proportions)
        assert result.p_value == pytest.approx(1.0)
        assert result.accepted()

    def test_grossly_different_rejects(self):
        observed = np.array([100.0, 0.0, 0.0])
        proportions = np.array([1 / 3, 1 / 3, 1 / 3])
        result = pearson_chi2_test(observed, proportions)
        assert result.p_value < 0.001
        assert not result.accepted()

    def test_zero_sample_degenerate(self):
        result = pearson_chi2_test(
            np.zeros(3), np.array([0.5, 0.3, 0.2])
        )
        assert result.p_value == 1.0

    def test_small_expected_bins_merged(self):
        # One bin has expected count 0.1 << 1; must be merged, not
        # explode the statistic.
        observed = np.array([99.0, 1.0])
        proportions = np.array([0.999, 0.001])
        result = pearson_chi2_test(observed, proportions)
        assert math.isfinite(result.statistic)

    def test_impossible_observation(self):
        # Mass observed in a zero-probability bin: strong rejection.
        observed = np.array([50.0, 50.0])
        proportions = np.array([1.0, 0.0])
        result = pearson_chi2_test(observed, proportions)
        assert result.p_value < 1e-6

    def test_empty_reference_degenerate(self):
        # A reference with no mass at all: nothing to test against.
        result = pearson_chi2_test(np.array([5.0, 5.0]), np.zeros(2))
        assert result.p_value == 1.0
        assert result.dof == 1
        assert result.accepted()

    def test_all_reference_mass_in_one_bin(self):
        # One live reference bin and the sample sits in it: after the
        # zero-proportion bins are dropped a single bin remains, which
        # can never disagree with itself — degenerate acceptance.
        observed = np.array([0.0, 40.0, 0.0])
        proportions = np.array([0.0, 1.0, 0.0])
        result = pearson_chi2_test(observed, proportions)
        assert result.statistic == 0.0
        assert result.dof == 1
        assert result.p_value == 1.0

    def test_merge_chain_collapses_to_single_bin(self):
        # Every expected count sits below the floor, so the validity
        # merge cascades until one bin holds everything: degenerate
        # p = 1, never a division blow-up or a spurious rejection.
        observed = np.array([1.0, 0.0, 1.0, 0.0])
        proportions = np.array([0.25, 0.25, 0.25, 0.25])
        result = pearson_chi2_test(
            observed, proportions, min_expected=5.0
        )
        assert result.statistic == 0.0
        assert result.dof == 1
        assert result.p_value == 1.0
        assert result.accepted(0.05)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_chi2_test(np.ones(3), np.ones(4))

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            pearson_chi2_test(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
