"""Exact sampling from computed output distributions, with a self-test.

The distribution is already known in full (that exhaustive computation is
the expensive part), so sampling is inverse-CDF over the canonical outcome
order with one seeded generator per run -- same seed, same counts, bit for
bit.  The counts come from the sorted draws, one binary search into them per
CDF entry, and equal exactly those of looking each draw up in the CDF.
``chi_square_gof`` is the statistical check that a run is consistent with the
distribution it was supposedly drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .bosonic import OutputDistribution
from .errors import ValidationError

#: a distribution must be normalized this well before sampling from it
NORMALIZATION_TOL = 1e-9

#: minimum expected count per retained chi-square bin
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    degrees_of_freedom: int
    bins: int


def sample(dist: OutputDistribution, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. outcomes by inverse-CDF over canonical order.

    Returns the observed frequencies; counts[i] belongs to basis index i.
    """
    if count < 0:
        raise ValueError("sample count must be nonnegative")
    total = dist.normalization()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # written so that a NaN sum fails
        raise ValidationError(
            f"distribution is not normalized: sum = {total!r} (tol {NORMALIZATION_TOL})"
        )
    cdf = np.cumsum(dist.probabilities)
    draws = np.random.default_rng(seed).random(count)
    draws.sort()
    # the cdf never decreases, so a draw lands in bins 0..j exactly when it is
    # below cdf[j]; the last bin takes the rest, draws at or above cdf[-1] too
    below = np.searchsorted(draws, cdf[:-1], side="left")
    return np.diff(below, prepend=0, append=count)


def chi_square_gof(counts: np.ndarray, dist: OutputDistribution) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against a distribution.

    Bins with expected count below MIN_EXPECTED are pooled into one; if the
    pooled bin is itself still too small it is merged into the smallest
    retained bin.  Degrees of freedom = bins - 1.  A single bin left after
    pooling gives the degenerate result: statistic 0, p-value 1, no degrees
    of freedom.
    """
    if len(counts) != len(dist):
        raise ValueError(f"{len(counts)} counts for a distribution of {len(dist)} outcomes")
    observed = np.asarray(counts, dtype=float)
    expected = dist.probabilities * observed.sum()

    keep = expected >= MIN_EXPECTED
    exp_bins = list(expected[keep])
    obs_bins = list(observed[keep])
    small_exp = float(expected[~keep].sum())
    small_obs = float(observed[~keep].sum())
    if (~keep).any():
        if small_exp >= MIN_EXPECTED or not exp_bins:
            exp_bins.append(small_exp)
            obs_bins.append(small_obs)
        else:
            i = int(np.argmin(exp_bins))
            exp_bins[i] += small_exp
            obs_bins[i] += small_obs

    bins = len(exp_bins)
    if bins == 1:  # a point mass (or an empty run): nothing to test against
        return ChiSquareResult(statistic=0.0, p_value=1.0, degrees_of_freedom=0, bins=1)
    exp_arr = np.asarray(exp_bins)
    obs_arr = np.asarray(obs_bins)
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = bins - 1
    p_value = float(chdtrc(dof, statistic))
    return ChiSquareResult(
        statistic=statistic, p_value=p_value, degrees_of_freedom=dof, bins=bins
    )
