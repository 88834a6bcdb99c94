"""Many-boson evolution through a linear network.

The amplitude to go from Fock state |r_in> to |r_out> under a d-mode
unitary U is

    per(U[out, in]) / sqrt(Gamma_out * Gamma_in)

where U[out, in] repeats row k of U r_out[k] times and column j r_in[j]
times, and Gamma is the product of occupation factorials.  Collecting the
amplitudes over the whole n-particle basis yields the symmetric-power
matrix of U -- a unitary of dimension C(d+n-1, n) whose construction costs
one permanent per entry, evaluated in stacked blocks of outcomes.

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
from itertools import chain, combinations_with_replacement

import numpy as np

from .fock import (
    DEFAULT_BASIS_CAP,
    FockBasis,
    enumerate_basis,
    normalization_gamma,
    validate_occupation,
)
from .formatting import format_float
from .permanents import (
    _glynn,
    as_square_matrix,
    check_permanent_size,
    expand_submatrix,
    permanent_glynn,
    submatrix_kernel,
)


@dataclass(frozen=True)
class TransitionAmplitude:
    value: complex
    input_state: tuple[int, ...]
    output_state: tuple[int, ...]

    @property
    def probability(self) -> float:
        return abs(self.value) ** 2


@dataclass(frozen=True)
class OutputDistribution:
    """Amplitudes and probabilities over a canonically ordered basis.

    ``probabilities`` holds the raw |amplitude|^2 values; clamping of
    floating-point dust happens only at presentation time
    (``clamped_probabilities``) so normalization checks see the real sum.
    """

    input_state: tuple[int, ...]
    states: tuple[tuple[int, ...], ...]
    amplitudes: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def normalization(self) -> float:
        return float(self.probabilities.sum())

    def clamped_probabilities(self) -> np.ndarray:
        return np.clip(self.probabilities, 0.0, None)


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


def transition_amplitude(unitary, input_state, output_state) -> TransitionAmplitude:
    """Single transition amplitude <out|U|in> between Fock states."""
    inp = validate_occupation(input_state)
    out = validate_occupation(output_state)
    u = _check_transition(unitary, inp, out)
    check_permanent_size(sum(inp))
    per = permanent_glynn(expand_submatrix(u, out, inp))
    norm = math.sqrt(normalization_gamma(out) * normalization_gamma(inp))
    return TransitionAmplitude(value=per / norm, input_state=inp, output_state=out)


def _amplitudes(u: np.ndarray, basis: FockBasis, inp: tuple[int, ...]) -> np.ndarray:
    """Amplitudes from ``inp`` to each state of ``basis``, one Glynn walk per block."""
    d, n, k = basis.d, basis.n, len(basis)
    # ascending mode sequences: the canonical order of basis.states
    sequences = chain.from_iterable(combinations_with_replacement(range(d), n))
    rows = np.fromiter(sequences, dtype=np.intp, count=k * n).reshape(k, n)
    amplitudes = submatrix_kernel(_glynn, u[:, np.repeat(np.arange(d), inp)], rows)
    gamma_out = np.fromiter(map(normalization_gamma, basis.states), dtype=float, count=k)
    norm = math.sqrt(normalization_gamma(inp)) * np.sqrt(gamma_out)
    # part by part, bit for bit as Python's complex / float (numpy's complex division is not)
    amplitudes.real /= norm
    amplitudes.imag /= norm
    return amplitudes


def output_distribution(
    unitary, input_state, cap: int = DEFAULT_BASIS_CAP
) -> OutputDistribution:
    """Probabilities |amplitude|^2 for every n-particle output state."""
    inp = validate_occupation(input_state)
    u = _check_mode_count(unitary, inp)
    check_permanent_size(sum(inp))
    basis = enumerate_basis(u.shape[0], sum(inp), cap)
    amplitudes = _amplitudes(u, basis, inp)
    return OutputDistribution(
        input_state=inp,
        states=basis.states,
        amplitudes=amplitudes,
        probabilities=np.abs(amplitudes) ** 2,
    )


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
    basis = enumerate_basis(u.shape[0], n, cap)
    return np.column_stack([_amplitudes(u, basis, s) for s in basis.states])


def mean_photon_numbers(unitary, input_state) -> np.ndarray:
    """Expected photon count per output mode, <N'_k> = sum_j |U_kj|^2 r_j.

    O(d^2) -- no permanent involved; the total equals the particle number.
    """
    inp = validate_occupation(input_state)
    u = _check_mode_count(unitary, inp)
    return (np.abs(u) ** 2) @ np.asarray(inp, dtype=float)


def distribution_to_jsonable(dist: OutputDistribution) -> dict:
    """Distribution payload: input state, then one record per outcome."""
    probs = dist.clamped_probabilities()
    return {
        "input": [int(r) for r in dist.input_state],
        "outcomes": [
            {
                "state": [int(r) for r in state],
                "probability": float(probs[i]),
                "amplitude": [float(dist.amplitudes[i].real), float(dist.amplitudes[i].imag)],
            }
            for i, state in enumerate(dist.states)
        ],
    }


def distribution_to_csv(dist: OutputDistribution) -> str:
    """CSV rendering, one `state;probability` row per outcome."""
    probs = dist.clamped_probabilities()
    lines = ["state;probability"]
    for i, state in enumerate(dist.states):
        lines.append(",".join(str(r) for r in state) + ";" + format_float(float(probs[i])))
    return "\n".join(lines) + "\n"
