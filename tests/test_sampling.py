import numpy as np
import pytest
from basis_reference import row_index

from bosonsim.bosonic import OutputDistribution, output_distribution
from bosonsim.errors import ValidationError
from bosonsim.sampling import chi_square_gof, sample
from bosonsim.transforms import random_haar_unitary

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def make_distribution(probs, d=None):
    """Hand-built distribution over dummy single-mode labels."""
    probs = np.asarray(probs, dtype=float)
    d = d or len(probs)
    states = np.eye(len(probs), d, dtype=np.uint8)
    states.flags.writeable = False
    return OutputDistribution(
        input_state=tuple(states[0].tolist()),
        states=states,
        amplitudes=np.sqrt(np.abs(probs)).astype(complex),
        probabilities=probs,
    )


def test_point_mass_all_samples_land_on_it():
    dist = output_distribution(np.eye(3), (1, 0, 1))
    counts = sample(dist, count=1000, seed=1)
    idx = row_index(dist.states, (1, 0, 1))
    assert counts[idx] == 1000
    assert counts.sum() == 1000


def test_beamsplitter_frequencies():
    dist = output_distribution(BEAMSPLITTER, (1, 1))
    counts = sample(dist, count=100_000, seed=5)
    # binomial standard error is about 0.0016 at p = 0.5
    assert abs(counts[0] / 100_000 - 0.5) < 0.01
    assert counts[1] == 0
    assert abs(counts[2] / 100_000 - 0.5) < 0.01


def test_same_seed_same_counts():
    dist = output_distribution(random_haar_unitary(4, seed=8), (1, 1, 0, 0))
    a = sample(dist, count=5000, seed=123)
    b = sample(dist, count=5000, seed=123)
    assert np.array_equal(a, b)
    c = sample(dist, count=5000, seed=124)
    assert not np.array_equal(a, c)


def test_counts_always_sum_to_count():
    dist = output_distribution(random_haar_unitary(3, seed=9), (2, 0, 0))
    for seed in range(5):
        assert sample(dist, count=777, seed=seed).sum() == 777


def test_unnormalized_distribution_rejected():
    bad = make_distribution([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValidationError):
        sample(bad, count=10, seed=0)


def test_nan_distribution_rejected():
    # a NaN sum fails every comparison, so the check must not pass it silently
    bad = make_distribution([float("nan"), 0.25])
    with pytest.raises(ValidationError):
        sample(bad, count=10, seed=0)


def test_negative_count_rejected():
    dist = make_distribution([0.5, 0.5])
    with pytest.raises(ValueError):
        sample(dist, count=-1, seed=0)


def test_gof_accepts_own_samples():
    dist = output_distribution(random_haar_unitary(4, seed=30), (1, 1, 0, 0))
    counts = sample(dist, count=100_000, seed=0)
    result = chi_square_gof(counts, dist)
    assert result.p_value > 0.001
    assert result.statistic >= 0.0


def test_gof_calibration_over_seeds():
    dist = output_distribution(random_haar_unitary(4, seed=31), (1, 1, 0, 0))
    passes = sum(
        chi_square_gof(sample(dist, count=20_000, seed=s), dist).p_value > 0.001
        for s in range(20)
    )
    assert passes >= 19


def test_gof_rejects_permuted_distribution():
    dist = output_distribution(random_haar_unitary(4, seed=32), (1, 1, 0, 0))
    perm = np.random.default_rng(1).permutation(len(dist))
    wrong = OutputDistribution(
        input_state=dist.input_state,
        states=dist.states,
        amplitudes=dist.amplitudes[perm],
        probabilities=dist.probabilities[perm],
    )
    counts = sample(wrong, count=100_000, seed=0)
    assert chi_square_gof(counts, dist).p_value < 1e-6


def test_gof_pools_small_bins():
    # 10_000 * 0.0002 = 2 expected counts per tiny bin: all three get pooled
    dist = make_distribution([0.5994, 0.4, 0.0002, 0.0002, 0.0002])
    counts = sample(dist, count=10_000, seed=2)
    result = chi_square_gof(counts, dist)
    assert result.bins == 3
    assert result.degrees_of_freedom == 2


def test_gof_single_bin_is_degenerate():
    # a point mass (or an empty run) pools into one bin: nothing to reject
    dist = make_distribution([1.0, 0.0])
    for count in (0, 100):
        result = chi_square_gof(sample(dist, count=count, seed=3), dist)
        assert (result.statistic, result.p_value) == (0.0, 1.0)
        assert (result.degrees_of_freedom, result.bins) == (0, 1)


def test_gof_bin_count_mismatch():
    dist = make_distribution([0.5, 0.5])
    other = make_distribution([0.25, 0.25, 0.25, 0.25])
    counts = sample(dist, count=100, seed=4)
    with pytest.raises(ValueError):
        chi_square_gof(counts, other)


def inverse_cdf_counts(dist, count, seed):
    """Reference binning: look each draw up in the CDF; the last bin takes any draw past it."""
    cdf = np.cumsum(dist.probabilities)
    draws = np.random.default_rng(seed).random(count)
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), len(dist) - 1)
    return np.bincount(indices, minlength=len(dist))


class ShortDistribution(OutputDistribution):
    """Its CDF ends at 0.9, but it reports a normalized sum, so sample() accepts it."""

    def normalization(self) -> float:
        return 1.0


SHORT = ShortDistribution(**vars(make_distribution([0.2, 0.0, 0.4, 0.3])))
SCALED = np.array([0.0, 0.3, 0.0, 0.0, 0.45, 0.0, 0.25, 0.0])


@pytest.mark.parametrize(
    "dist",
    [
        output_distribution(random_haar_unitary(6, seed=40), (1, 1, 1, 0, 0, 0)),
        output_distribution(random_haar_unitary(4, seed=41), (0, 0, 0, 0)),  # one outcome
        make_distribution([1.0]),
        make_distribution(SCALED),  # zero-probability bins, first and last among them
        make_distribution(SCALED * (1 - 5e-10)),  # CDF ends just below 1
        make_distribution(SCALED * (1 + 5e-10)),  # CDF ends just above 1
        make_distribution([0.5, 0.6, -0.1]),  # the CDF overshoots to 1.1, then ends at 1.0
        make_distribution(np.full(1000, 1e-3)),  # a long cumulative sum, off 1 by rounding
        SHORT,  # draws past the CDF's end land in the last bin
    ],
)
def test_sorted_binning_matches_inverse_cdf_lookup(dist):
    for seed in range(40):
        for count in (0, 1, 997):
            counts = sample(dist, count=count, seed=seed)
            assert np.array_equal(counts, inverse_cdf_counts(dist, count, seed))
