"""Exact permanent kernels, and the block routine that feeds them submatrices.

The permanent of an n x n matrix A is

    per(A) = sum_sigma prod_j A[j, sigma(j)]

with sigma running over all n! permutations -- the determinant without the
alternating signs, and unlike the determinant there is no known polynomial
algorithm for it.  Two kernels are provided:

* ``permanent_naive``   -- direct enumeration of the n! permutations; slow,
  but so simple it serves as the oracle for everything else.
* ``permanent_glynn``   -- Glynn's formula with Gray-code updates over the
  2^(n-1) sign vectors, O(2^(n-1) * n); the production kernel.  Its walk,
  ``_glynn``, takes a ``(..., n, n)`` stack as well as one matrix.

``submatrix_kernel`` evaluates the submatrices of every amplitude, one
outcome or a whole distribution's, for the one amplitude builder in
``bosonic``.  From the outcomes' occupation rows it builds the submatrix rows
of ``OUTCOME_BLOCK`` = 512 outcomes at a time and makes one kernel call per
block, ``_glynn`` for bosons and ``numpy.linalg.det`` for fermions.  Blocks
bound the stack and the row indices (for all C(22,11) outcomes at once, the
stack takes 1.4 GB and the ``intp`` repeat counts 124 MB), and blocks of 512
keep peak RSS where one outcome at a time kept it: freeing a stack of several
MB raises glibc's mmap threshold, and later allocations then stay in RSS.

All accumulation is in double precision.  On Haar submatrices, with distinct
and with pairwise-repeated rows (3 of each per size), the measured relative
error of ``permanent_glynn`` is at most 3e-13 for n = 10-14 against a 30-digit
mpmath evaluation of Ryser's formula, and 1.4e-12 at n = 16 and 3.6e-12 at
n = 18 against a term-by-term Glynn sum with no running sums.  A Gray-code
Ryser kernel on the same matrices was off by up to 7.8e-12 at n = 14 and
1.5e-10 at n = 18, which is why Glynn is the one production kernel.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

#: size guard for the factorial-cost oracle kernel
NAIVE_SIZE_LIMIT = 10
#: size guard for the 2^n-cost production kernel, and so for boson particle number
PERMANENT_SIZE_LIMIT = 30
#: outcomes whose submatrices ``submatrix_kernel`` stacks per kernel call
OUTCOME_BLOCK = 512


def as_square_matrix(matrix, dtype=np.complex128) -> np.ndarray:
    """Coerce to a square ``dtype`` array with finite entries (the one matrix validator)."""
    a = np.asarray(matrix, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {a.ndim}-D input")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def check_permanent_size(n: int) -> None:
    """Refuse a permanent of more than ``PERMANENT_SIZE_LIMIT`` rows (bosons: particles)."""
    if n > PERMANENT_SIZE_LIMIT:
        raise ValueError(f"n = {n} exceeds the permanent size guard n <= {PERMANENT_SIZE_LIMIT}")


def permanent_naive(matrix) -> complex:
    """Permanent by direct enumeration of all n! permutations.

    Deliberately unoptimized: this is the reference implementation against
    which the fast kernels are checked.  Guarded at n <= 10.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if n > NAIVE_SIZE_LIMIT:
        raise ValueError(f"permanent_naive is guarded at n <= {NAIVE_SIZE_LIMIT}, got n = {n}")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rows = range(n)
    for sigma in permutations(range(n)):
        term = 1.0 + 0.0j
        for i in rows:
            term *= a[i, sigma[i]]
        total += term
    return complex(total)


def _glynn(stack: np.ndarray) -> np.ndarray:
    """Glynn's Gray-code walk over a ``(..., n, n)`` stack: one permanent per matrix."""
    n = stack.shape[-1]
    if n == 0:
        return np.ones(stack.shape[:-2], dtype=np.complex128)
    col_sums = stack.sum(axis=-2).astype(np.complex128)
    doubled = 2.0 * stack  # doubling is exact, so doing it once changes no result
    total = col_sums.prod(axis=-1)
    sign = 1
    gray = 0
    for k in range(1, 1 << (n - 1)):
        bit = k & -k
        i = bit.bit_length()  # flip delta_i for row i (delta_0 stays +1)
        gray ^= bit
        if gray & bit:
            col_sums -= doubled[..., i, :]
        else:
            col_sums += doubled[..., i, :]
        sign = -sign
        total += sign * col_sums.prod(axis=-1)
    return total / 2 ** (n - 1)


def permanent_glynn(matrix) -> complex:
    """Permanent via Glynn's formula, Gray-coded over sign vectors.

    per(A) = 2^(1-n) * sum over delta in {+-1}^n with delta_0 = +1 of
             (prod_i delta_i) * prod_j sum_i delta_i * A[i, j]

    Guarded at n <= PERMANENT_SIZE_LIMIT (30).
    """
    a = as_square_matrix(matrix)
    check_permanent_size(a.shape[0])
    return complex(_glynn(a))


def submatrix_kernel(kernel, cols: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """``kernel`` of each outcome's submatrix: row j of ``cols`` repeated outcomes[k, j] times."""
    d, n = cols.shape
    modes = np.tile(np.arange(d), OUTCOME_BLOCK)
    values = np.empty(len(outcomes), dtype=np.complex128)
    for lo in range(0, len(outcomes), OUTCOME_BLOCK):
        block = outcomes[lo : lo + OUTCOME_BLOCK]
        rows = np.repeat(modes[: block.size], block.ravel()).reshape(len(block), n)
        values[lo : lo + len(block)] = kernel(cols[rows])
    return values
