import math

import mpmath
import numpy as np
import pytest

from bosonsim.bosonic import transition_amplitude
from bosonsim.fermionic import fermion_amplitude
from bosonsim.permanents import (
    NAIVE_SIZE_LIMIT,
    PERMANENT_SIZE_LIMIT,
    _glynn,
    permanent_glynn,
    permanent_naive,
)
from bosonsim.transforms import random_haar_unitary


def rel_err(a, b):
    # comparison stays meaningful near zero
    return abs(a - b) / max(1.0, abs(b))


def det_cofactor(a):
    """Independent determinant oracle: Laplace expansion along the first row."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_cofactor(minor)
    return total


def ryser_mp(a, dps=30):
    """High-precision oracle: Ryser's subset formula, Gray-coded, in ``dps``-digit mpmath.

    A different formula from the production Glynn kernel; at 30 digits its own
    roundoff is far below double precision at the sizes tested here.
    """
    n = a.shape[0]
    with mpmath.workdps(dps):
        cols = [[mpmath.mpc(complex(a[i, j])) for i in range(n)] for j in range(n)]
        row_sums = [mpmath.mpc(0)] * n
        total = mpmath.mpc(0)
        gray = 0
        for k in range(1, 1 << n):
            bit = k & -k
            col = cols[bit.bit_length() - 1]
            gray ^= bit
            if gray & bit:
                row_sums = [s + c for s, c in zip(row_sums, col)]
            else:
                row_sums = [s - c for s, c in zip(row_sums, col)]
            # |S| changes parity with every Gray step, so the sign follows k
            term = mpmath.fprod(row_sums)
            total = total - term if k & 1 else total + term
        return complex(-total if n & 1 else total)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# naive kernel (the oracle)
# ---------------------------------------------------------------------------

def test_naive_single_entry():
    assert permanent_naive([[3.5 + 1j]]) == 3.5 + 1j


def test_naive_identity():
    assert permanent_naive(np.eye(4)) == 1


def test_naive_2x2_formula():
    a, b, c, d = 1.5 + 2j, -0.5j, 3.0, 2.0 - 1j
    assert np.isclose(permanent_naive([[a, b], [c, d]]), a * d + b * c)


def test_naive_all_ones():
    assert np.isclose(permanent_naive(np.ones((3, 3))), 6)


def test_naive_frozen_value():
    # fixed matrix, value computed once with this oracle and frozen
    m = np.array(
        [
            [-1.130564 - 0.409921j, -1.315808 + 0.687998j, -0.021806 - 0.328538j, 1.895591 - 1.38961j],
            [-0.379283 + 2.417205j, -2.719279 - 2.747442j, -0.409987 + 0.40117j, -0.534774 + 0.687802j],
            [0.419569 + 0.770406j, 0.157864 - 0.277471j, 0.028668 - 1.865511j, 0.138522 + 0.386359j],
            [-1.069836 - 0.030765j, -0.10624 + 0.210267j, 1.156163 + 0.158169j, -0.916927 - 1.090486j],
        ]
    )
    frozen = 3.77518236431816 - 23.30374023888491j
    assert rel_err(permanent_naive(m), frozen) < 1e-12
    assert rel_err(permanent_glynn(m), frozen) < 1e-10


def test_naive_size_guard():
    with pytest.raises(ValueError):
        permanent_naive(np.eye(NAIVE_SIZE_LIMIT + 1))


def test_non_square_rejected():
    for kernel in (permanent_naive, permanent_glynn):
        with pytest.raises(ValueError):
            kernel(np.ones((2, 3)))


def test_nan_rejected():
    m = np.eye(3, dtype=complex)
    m[1, 1] = np.nan
    with pytest.raises(ValueError):
        permanent_glynn(m)


def test_empty_matrix_permanent_is_one():
    empty = np.zeros((0, 0), dtype=complex)
    assert permanent_naive(empty) == 1
    assert permanent_glynn(empty) == 1


# ---------------------------------------------------------------------------
# Glynn production kernel and the mpmath Ryser oracle
# ---------------------------------------------------------------------------

def test_ryser_identity():
    assert ryser_mp(np.eye(6)) == 1
    assert np.isclose(permanent_glynn(np.eye(6)), 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_ryser_all_ones_counts_permutations(n):
    assert ryser_mp(np.ones((n, n))) == math.factorial(n)
    assert rel_err(permanent_glynn(np.ones((n, n))), math.factorial(n)) < 1e-10


def test_ryser_matches_naive_random_6x6():
    rng = np.random.default_rng(66)
    m = random_complex(rng, 6)
    assert rel_err(ryser_mp(m), permanent_naive(m)) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_kernels_agree_up_to_8(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        m = random_complex(rng, n)
        assert rel_err(permanent_glynn(m), permanent_naive(m)) < 1e-10


@pytest.mark.parametrize("n", range(10, 14))
def test_glynn_matches_mpmath_ryser(n):
    # Haar submatrices as in transition amplitudes: all rows distinct, and
    # rows repeated in pairs as for a bunched output state
    u = random_haar_unitary(2 * n, seed=n)
    plain = u[:n, :n]
    bunched = u[np.repeat(np.arange((n + 1) // 2), 2)[:n], :n]
    for m in (plain, bunched):
        oracle = ryser_mp(m)
        assert abs(permanent_glynn(m) - oracle) / abs(oracle) < 1e-12


def glynn_walk_doubling_per_step(stack):
    """The Gray-code walk as first written: each step doubles its row afresh."""
    n = stack.shape[-1]
    if n == 0:
        return np.ones(stack.shape[:-2], dtype=np.complex128)
    col_sums = stack.sum(axis=-2).astype(np.complex128)
    total = col_sums.prod(axis=-1)
    sign = 1
    gray = 0
    for k in range(1, 1 << (n - 1)):
        bit = k & -k
        i = bit.bit_length()
        gray ^= bit
        if gray & bit:
            col_sums -= 2.0 * stack[..., i, :]
        else:
            col_sums += 2.0 * stack[..., i, :]
        sign = -sign
        total += sign * col_sums.prod(axis=-1)
    return total / 2 ** (n - 1)


@pytest.mark.parametrize("n", range(13))
def test_glynn_doubled_rows_are_bit_identical(n):
    # doubling a float is exact, so doubling every row before the walk
    # must leave every permanent of a stack the same to the last bit
    rng = np.random.default_rng(2000 + n)
    stack = np.stack([random_complex(rng, n) for _ in range(7)])
    assert np.array_equal(_glynn(stack), glynn_walk_doubling_per_step(stack))


def test_glynn_doubled_rows_are_bit_identical_at_15():
    m = random_haar_unitary(15, seed=15)
    assert np.array_equal(_glynn(m), glynn_walk_doubling_per_step(m))


def test_glynn_size_guard():
    with pytest.raises(ValueError):
        permanent_glynn(np.eye(PERMANENT_SIZE_LIMIT + 1))


# ---------------------------------------------------------------------------
# permanent invariants
# ---------------------------------------------------------------------------

def test_permutation_invariance():
    rng = np.random.default_rng(17)
    for n in (3, 5, 8):
        m = random_complex(rng, n)
        reference = permanent_glynn(m)
        row_perm = rng.permutation(n)
        col_perm = rng.permutation(n)
        assert rel_err(permanent_glynn(m[row_perm, :]), reference) < 1e-10
        assert rel_err(permanent_glynn(m[:, col_perm]), reference) < 1e-10


def test_zero_row_gives_zero():
    rng = np.random.default_rng(18)
    m = random_complex(rng, 5)
    m[2, :] = 0
    assert abs(permanent_glynn(m)) < 1e-10
    assert abs(permanent_naive(m)) < 1e-10


def test_diagonal_permanent_is_product():
    diag = np.array([2.0, -1.5, 0.5 + 1j, 3j])
    m = np.diag(diag)
    assert np.isclose(permanent_glynn(m), diag.prod())
    assert np.isclose(full_occupancy_det(m), diag.prod())


def test_transpose_invariance():
    rng = np.random.default_rng(19)
    m = random_complex(rng, 6)
    assert rel_err(permanent_glynn(m.T), permanent_glynn(m)) < 1e-10


# ---------------------------------------------------------------------------
# determinant: the fermion amplitude at full occupancy is det(U)
# ---------------------------------------------------------------------------

def full_occupancy_det(m):
    ones = (1,) * m.shape[0]
    return fermion_amplitude(m, ones, ones)


def test_determinant_identity():
    for n in (1, 3, 7):
        assert np.isclose(full_occupancy_det(np.eye(n)), 1)


def test_determinant_2x2_formula():
    a, b, c, d = 2.0, 1j, -3.0, 0.5 - 1j
    assert np.isclose(full_occupancy_det(np.array([[a, b], [c, d]])), a * d - b * c)


def test_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(55)
    for n in range(1, 7):
        m = random_complex(rng, n)
        assert rel_err(full_occupancy_det(m), det_cofactor(m)) < 1e-10


def test_determinant_singular_is_zero():
    rng = np.random.default_rng(56)
    m = random_complex(rng, 5)
    m[3, :] = 2.0 * m[1, :]  # linearly dependent rows
    assert abs(full_occupancy_det(m)) < 1e-10


def test_determinant_sign_under_row_swap():
    rng = np.random.default_rng(57)
    m = random_complex(rng, 4)
    swapped = m.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    assert np.isclose(full_occupancy_det(swapped), -full_occupancy_det(m))


# ---------------------------------------------------------------------------
# the repetition rule: row k of U appears r_out[k] times, column j r_in[j] times
# ---------------------------------------------------------------------------

def test_expand_identity_multiplicities():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.isclose(transition_amplitude(m, (1, 1), (1, 1)), permanent_naive(m))


def test_expand_repeated_row():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    sub = np.array([[1, 2], [1, 2]], dtype=complex)
    amplitude = transition_amplitude(m, (1, 1), (2, 0))
    assert np.isclose(amplitude, permanent_naive(sub) / math.sqrt(2))


def test_expand_3x3_mixed():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    sub = np.array([[m[0, 1], m[0, 1]], [m[2, 1], m[2, 1]]])
    amplitude = transition_amplitude(m, (0, 2, 0), (1, 0, 1))
    assert np.isclose(amplitude, permanent_naive(sub) / math.sqrt(2))


def test_expand_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        transition_amplitude(np.eye(2), (1, 1), (1, 1, 0))


def test_expand_rejects_unequal_totals():
    with pytest.raises(ValueError):
        transition_amplitude(np.eye(2), (1, 2), (2, 0))


def test_expand_rejects_negative_multiplicity():
    with pytest.raises(ValueError):
        transition_amplitude(np.eye(2), (1, 1), (-1, 3))
