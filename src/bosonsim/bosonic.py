"""Many-boson evolution through a linear network.

The amplitude to go from Fock state |r_in> to |r_out> under a d-mode
unitary U is

    per(U[out, in]) / sqrt(Gamma_out * Gamma_in)

where U[out, in] repeats row k of U r_out[k] times and column j r_in[j]
times, and Gamma is the product of occupation factorials.  Collecting the
amplitudes over the whole n-particle basis yields the symmetric-power
matrix of U -- a unitary of dimension C(d+n-1, n) whose construction costs
one permanent per entry.

One private builder, ``_amplitude_matrix``, makes every amplitude, boson or
fermion: one outcome or a whole basis, from one input or many, each a (K, d)
occupation array as the basis is.  It hands the outcome rows to
``permanents.submatrix_kernel``, which evaluates their submatrices in stacked
blocks of outcomes, and divides by sqrt(Gamma_in * Gamma_out), an exact
integer rounded once, so ``transition_amplitude``, ``output_distribution``
and ``symmetric_power_matrix`` agree to the last bit.  One private routine,
``_distribution``, makes the boson and the fermion distribution alike; the
two differ only in their occupation check, their basis and their kernel.

``mean_photon_numbers`` is the contrasting observable: per-mode expected
occupations after the network, computable in O(d^2) with no permanent at
all.  Equality of that fast route with the first moment of the
permanent-based distribution is the central cross-check in the test suite.

Functions here assume the matrix is unitary (see
``transforms.validate_unitary``); only shape compatibility, finite entries
and the particle number (at most ``PERMANENT_SIZE_LIMIT``) are checked.
Amplitudes are reported in the gauge where the vacuum is left invariant,
so an overall phase e^{i*phi} on U shows up as e^{i*n*phi} on amplitudes
and cancels from every probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DEFAULT_BASIS_CAP, enumerate_basis, validate_occupation
from .permanents import _glynn, as_square_matrix, check_permanent_size, submatrix_kernel


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Amplitudes and probabilities over a canonically ordered basis.

    ``states`` is the basis as enumerated, a read-only (K, d) array.  Two
    distributions compare equal, and hash alike, only when they are one object.
    ``probabilities`` holds |amplitude|^2, never negative, so normalization
    checks see the real sum.  Rendering it as JSON or CSV is the CLI's job.
    """

    input_state: tuple[int, ...]
    states: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def normalization(self) -> float:
        return float(self.probabilities.sum())


def _check_mode_count(unitary, state: tuple[int, ...]) -> np.ndarray:
    u = as_square_matrix(unitary)
    if len(state) != u.shape[0]:
        raise ValueError(f"state has {len(state)} modes but the network has {u.shape[0]}")
    return u


def _check_transition(unitary, inp: tuple[int, ...], out: tuple[int, ...]) -> np.ndarray:
    """Validated matrix for a transition between two states of one network."""
    u = _check_mode_count(unitary, inp)
    _check_mode_count(u, out)
    if sum(inp) != sum(out):
        raise ValueError(
            f"particle number mismatch: input carries {sum(inp)}, output {sum(out)}"
        )
    return u


def _amplitude_matrix(u: np.ndarray, outcomes, inputs, kernel) -> np.ndarray:
    """Amplitudes <out|U|in>, one row per outcome and one column per input state.

    ``outcomes`` and ``inputs`` are (K, d) and (J, d) occupation arrays.
    ``kernel`` is ``_glynn`` for bosons and ``numpy.linalg.det`` for fermions.
    Outcome k's submatrix repeats row j of U outcomes[k, j] times, in ascending
    mode order, over the input's repeated columns; ``submatrix_kernel`` builds
    those rows and evaluates the submatrices of all outcomes in blocks.  Each
    amplitude is divided by sqrt(Gamma_in * Gamma_out), the exact product of
    factorials rounded once.
    """
    (k, d), n = outcomes.shape, int(inputs[0].sum())
    factorial = [math.factorial(r) for r in range(n + 1)]
    bunched = np.flatnonzero((outcomes > 1).any(axis=1))
    gamma_out = [math.prod(map(factorial.__getitem__, occ)) for occ in outcomes[bunched].tolist()]
    amplitudes = np.empty((k, len(inputs)), dtype=np.complex128)
    for j, inp in enumerate(inputs.tolist()):
        column = submatrix_kernel(kernel, u[:, np.repeat(np.arange(d), inp)], outcomes)
        gamma_in = math.prod(map(factorial.__getitem__, inp))
        norm = np.full(k, math.sqrt(gamma_in))  # Gamma_out = 1 where no mode is bunched
        exact = (gamma_in * g for g in gamma_out)
        norm[bunched] = np.sqrt(np.fromiter(exact, float, count=len(gamma_out)))
        # part by part, bit for bit as Python's complex / float (numpy's complex division is not)
        amplitudes[:, j].real = column.real / norm
        amplitudes[:, j].imag = column.imag / norm
    return amplitudes


def _distribution(u: np.ndarray, inp: tuple[int, ...], states, kernel) -> OutputDistribution:
    """The distribution over ``states`` from ``inp``; ``kernel`` picks the statistics."""
    amplitudes = _amplitude_matrix(u, states, np.array([inp]), kernel)[:, 0]
    return OutputDistribution(inp, states, amplitudes, np.abs(amplitudes) ** 2)


def transition_amplitude(unitary, input_state, output_state) -> complex:
    """Single transition amplitude <out|U|in> between Fock states."""
    inp = validate_occupation(input_state)
    out = validate_occupation(output_state)
    u = _check_transition(unitary, inp, out)
    check_permanent_size(sum(inp))
    return complex(_amplitude_matrix(u, np.array([out]), np.array([inp]), _glynn)[0, 0])


def output_distribution(
    unitary, input_state, cap: int = DEFAULT_BASIS_CAP
) -> OutputDistribution:
    """Probabilities |amplitude|^2 for every n-particle output state."""
    inp = validate_occupation(input_state)
    u = _check_mode_count(unitary, inp)
    check_permanent_size(sum(inp))
    states = enumerate_basis(u.shape[0], sum(inp), cap)
    return _distribution(u, inp, states, _glynn)


def symmetric_power_matrix(unitary, n: int, cap: int = DEFAULT_BASIS_CAP) -> np.ndarray:
    """The C(d+n-1,n)-dimensional matrix of n-particle amplitudes.

    Entry (i, j) is the amplitude from basis state j to basis state i in
    canonical order; for n = 1 this is U itself.  Built from a unitary it
    is again unitary, and it composes: the matrix of U @ V equals the
    matrix of U times the matrix of V.  Column j is exactly the amplitude
    vector of ``output_distribution(unitary, basis[j])``.
    """
    if n < 0:
        raise ValueError("particle number must be nonnegative")
    check_permanent_size(n)
    u = as_square_matrix(unitary)
    states = enumerate_basis(u.shape[0], n, cap)
    return _amplitude_matrix(u, states, states, _glynn)


def mean_photon_numbers(unitary, input_state) -> np.ndarray:
    """Expected photon count per output mode, <N'_k> = sum_j |U_kj|^2 r_j.

    O(d^2) -- no permanent involved; the total equals the particle number.
    """
    inp = validate_occupation(input_state)
    u = _check_mode_count(unitary, inp)
    return (np.abs(u) ** 2) @ np.asarray(inp, dtype=float)
