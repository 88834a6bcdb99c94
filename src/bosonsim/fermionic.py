"""Number-conserving fermionic linear networks: the efficiently simulable twin.

Fermions in d modes occupy each mode at most once, so an n-particle state
is a 0/1 vector with n ones, and a basis is a (K, d) ``uint8`` array of them.
Under the same d x d unitary that drives the bosonic case, the transition
amplitude is the *determinant* of the n x n submatrix of U picked out by the
occupied output rows and occupied input columns (both ascending) --
polynomial cost where the boson needs a permanent.  The boson amplitude
builder makes these amplitudes too, with the determinant as its kernel; its
Gamma factor is 1 since every occupation is 0 or 1.

Ascending mode order fixes the Jordan-Wigner signs consistently; swapping
two rows of the submatrix flips the amplitude sign but never a probability.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .bosonic import (
    OutputDistribution,
    _amplitude_matrix,
    _check_mode_count,
    _check_transition,
    _distribution,
    mean_photon_numbers,
)
from .fock import DEFAULT_BASIS_CAP, validate_occupation


def validate_fermion_state(state: Sequence[int]) -> tuple[int, ...]:
    occ = validate_occupation(state)
    if any(x > 1 for x in occ):
        raise ValueError(f"fermion occupations must be 0 or 1, got {occ}")
    return occ


def fermion_basis_size(d: int, n: int) -> int:
    """Number of n-fermion states in d modes: C(d, n)."""
    if d < 1:
        raise ValueError("need at least one mode")
    if n < 0 or n > d:
        raise ValueError(f"cannot place {n} fermions in {d} modes")
    return math.comb(d, n)


def enumerate_fermion_basis(d: int, n: int, cap: int = DEFAULT_BASIS_CAP) -> np.ndarray:
    """All 0/1 occupation vectors with n ones: a read-only (K, d) ``uint8`` array.

    Canonical order matches the bosonic one (lexicographically decreasing
    occupation vectors), which is ascending lexicographic order on the
    occupied-mode combinations.
    """
    size = fermion_basis_size(d, n)
    if size > cap:
        raise ValueError(f"basis size C({d},{n}) = {size} exceeds cap {cap}")
    # the occupied modes of each state, in the narrowest dtype that holds a mode index
    modes = chain.from_iterable(combinations(range(d), n))
    modes = np.fromiter(modes, np.min_scalar_type(d - 1), size * n).reshape(size, n)
    basis = np.zeros((size, d), dtype=np.uint8)
    np.put_along_axis(basis, modes, 1, axis=1)
    basis.flags.writeable = False
    return basis


def fermion_amplitude(unitary, input_state, output_state) -> complex:
    """Amplitude <out|U|in>: determinant of the occupied-mode submatrix."""
    inp = validate_fermion_state(input_state)
    out = validate_fermion_state(output_state)
    u = _check_transition(unitary, inp, out)
    return complex(_amplitude_matrix(u, np.array([out]), np.array([inp]), np.linalg.det)[0, 0])


def fermion_distribution(
    unitary, input_state, cap: int = DEFAULT_BASIS_CAP
) -> OutputDistribution:
    """Probabilities |det|^2 over all C(d, n) fermionic outcomes."""
    inp = validate_fermion_state(input_state)
    u = _check_mode_count(unitary, inp)
    states = enumerate_fermion_basis(u.shape[0], sum(inp), cap)
    return _distribution(u, inp, states, np.linalg.det)


def fermion_mode_probabilities(unitary, input_state) -> np.ndarray:
    """All d single-mode marginals p_k = sum_j |U[k, j]|^2 x_j; they sum to n.

    The bosonic mean photon number restricted to 0/1 occupations.
    """
    return mean_photon_numbers(unitary, validate_fermion_state(input_state))
