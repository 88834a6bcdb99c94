import itertools
import math
import time

import numpy as np
import pytest
from basis_reference import enumerate_fermion_basis_reference

from bosonsim.fermionic import (
    enumerate_fermion_basis,
    fermion_amplitude,
    fermion_basis_size,
    fermion_distribution,
    fermion_mode_probabilities,
)
from bosonsim import permanents
from bosonsim.bosonic import output_distribution, transition_amplitude
from bosonsim.transforms import random_haar_unitary

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_basis_enumeration():
    states = list(map(tuple, enumerate_fermion_basis(4, 2).tolist()))
    assert len(states) == math.comb(4, 2)
    assert states[0] == (1, 1, 0, 0)
    assert states[-1] == (0, 0, 1, 1)
    assert all(sum(s) == 2 and set(s) <= {0, 1} for s in states)
    # canonical order: lexicographically decreasing occupation vectors
    assert all(a > b for a, b in zip(states, states[1:]))


@pytest.mark.parametrize(
    "d, n", [(d, n) for d in range(1, 9) for n in range(d + 1)] + [(16, 8)]
)
def test_basis_matches_tuple_reference(d, n):
    basis = enumerate_fermion_basis(d, n)
    assert basis.dtype == np.uint8 and basis.shape == (math.comb(d, n), d)
    assert np.array_equal(basis, np.array(enumerate_fermion_basis_reference(d, n)))
    assert len(np.unique(basis, axis=0)) == len(basis)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 1 - basis[0, 0]


def test_basis_size_and_errors():
    assert fermion_basis_size(5, 0) == 1
    assert fermion_basis_size(5, 5) == 1
    with pytest.raises(ValueError):
        fermion_basis_size(3, 4)
    with pytest.raises(ValueError):
        enumerate_fermion_basis(20, 10, cap=100)


def test_identity_network():
    for state in enumerate_fermion_basis(3, 2).tolist():
        for other in enumerate_fermion_basis(3, 2).tolist():
            amp = fermion_amplitude(np.eye(3), state, other)
            assert np.isclose(amp, 1.0 if state == other else 0.0)


def test_pauli_blocking_on_beamsplitter():
    amp = fermion_amplitude(BEAMSPLITTER, (1, 1), (1, 1))
    assert abs(amp - (-1.0)) < 1e-12
    assert abs(abs(amp) ** 2 - 1.0) < 1e-12


def test_full_occupancy_amplitude_is_determinant():
    u = random_haar_unitary(4, seed=14)
    ones = (1, 1, 1, 1)
    det = np.linalg.det(u)
    assert np.isclose(fermion_amplitude(u, ones, ones), det)
    dist = fermion_distribution(u, ones)
    assert dist.states.tolist() == [list(ones)]
    assert np.isclose(dist.amplitudes[0], det)


def test_vacuum_distribution_is_one_outcome():
    dist = fermion_distribution(random_haar_unitary(4, seed=18), (0, 0, 0, 0))
    assert dist.states.tolist() == [[0, 0, 0, 0]]
    assert dist.amplitudes.tolist() == [1]


@pytest.mark.parametrize("block", [1, 7, 512])
def test_distribution_blocks_match_per_outcome_amplitudes(monkeypatch, block):
    # 715 outcomes: several blocks of 512, a ragged last block of 7, and singletons
    monkeypatch.setattr(permanents, "OUTCOME_BLOCK", block)
    u = random_haar_unitary(13, seed=23)
    inp = (1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)
    dist = fermion_distribution(u, inp)
    assert len(dist) == math.comb(13, 4)
    reference = [fermion_amplitude(u, inp, out) for out in dist.states]
    assert np.array_equal(dist.amplitudes, reference)


def test_bose_fermi_dichotomy():
    # two identical particles meet on a 50:50 beamsplitter: bosons never
    # exit separately, fermions always do
    boson_p = output_distribution(BEAMSPLITTER, (1, 1)).probabilities[1]
    fermi_p = abs(fermion_amplitude(BEAMSPLITTER, (1, 1), (1, 1))) ** 2
    assert boson_p < 1e-12
    assert abs(fermi_p - 1.0) < 1e-12


def test_beamsplitter_distribution_is_point_mass():
    dist = fermion_distribution(BEAMSPLITTER, (1, 1))
    assert dist.states.tolist() == [[1, 1]]
    assert abs(dist.probabilities[0] - 1.0) < 1e-12


def test_random_distribution_normalized():
    u = random_haar_unitary(5, seed=15)
    dist = fermion_distribution(u, (1, 1, 0, 0, 0))
    assert len(dist) == math.comb(5, 2)
    assert abs(dist.normalization() - 1.0) < 1e-9


def test_antisymmetry_under_row_swap():
    # relabelling the two occupied output modes swaps two submatrix rows
    u = random_haar_unitary(4, seed=16)
    inp, out = (1, 1, 0, 0), (0, 1, 1, 0)
    rows = np.flatnonzero(out)
    relabelled = u.copy()
    relabelled[rows] = relabelled[rows[::-1]]
    reference = fermion_amplitude(u, inp, out)
    swapped = fermion_amplitude(relabelled, inp, out)
    assert np.isclose(swapped, -reference)
    assert np.isclose(abs(swapped) ** 2, abs(reference) ** 2)


def test_amplitude_matrix_is_unitary():
    # exterior-power representation
    u = random_haar_unitary(4, seed=17)
    states = enumerate_fermion_basis(4, 2)
    m = np.array(
        [[fermion_amplitude(u, s_in, s_out) for s_in in states] for s_out in states]
    )
    assert np.abs(m.conj().T @ m - np.eye(len(states))).max() <= 1e-9


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def antisymmetric_power_oracle(u, n):
    """Determinant-free oracle: n-fold tensor power of U restricted to the
    antisymmetric subspace via the explicit Slater isometry."""
    d = u.shape[0]
    states = enumerate_fermion_basis(d, n)
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u)
    iso = np.zeros((d**n, len(states)), dtype=complex)
    for col, occ in enumerate(states):
        modes = np.flatnonzero(occ).tolist()
        for sigma in itertools.permutations(range(n)):
            idx = 0
            for pos in sigma:
                idx = idx * d + modes[pos]
            iso[idx, col] = perm_sign(list(sigma)) / math.sqrt(math.factorial(n))
    return iso.conj().T @ big @ iso


@pytest.mark.parametrize("d,n,seed", [(3, 2, 1), (4, 2, 2), (4, 3, 3)])
def test_amplitudes_match_antisymmetric_power_oracle(d, n, seed):
    u = random_haar_unitary(d, seed=seed)
    states = enumerate_fermion_basis(d, n)
    direct = np.array(
        [[fermion_amplitude(u, s_in, s_out) for s_in in states] for s_out in states]
    )
    assert np.abs(direct - antisymmetric_power_oracle(u, n)).max() < 1e-12


def test_mode_probability_identity():
    inp = (1, 0, 1, 0)
    for k in range(4):
        assert np.isclose(fermion_mode_probabilities(np.eye(4), inp)[k], inp[k])


def test_mode_probability_beamsplitter():
    assert abs(fermion_mode_probabilities(BEAMSPLITTER, (1, 0))[0] - 0.5) < 1e-12


def test_mode_probability_matches_brute_force():
    u = random_haar_unitary(4, seed=18)
    inp = (1, 0, 1, 0)
    dist = fermion_distribution(u, inp)
    for k in range(4):
        brute = sum(p * s[k] for s, p in zip(dist.states, dist.probabilities))
        assert abs(fermion_mode_probabilities(u, inp)[k] - brute) < 1e-9


def test_mode_probabilities_sum_to_particle_number():
    u = random_haar_unitary(6, seed=19)
    inp = (1, 1, 1, 0, 0, 0)
    probs = fermion_mode_probabilities(u, inp)
    assert abs(probs.sum() - 3.0) < 1e-9


def test_per_outcome_cost_contrast():
    # same 10x10 submatrix job: the fermion (determinant) amplitude must beat
    # the 2^n-step boson (permanent) amplitude comfortably
    n = 10
    u = random_haar_unitary(n, seed=110)
    ones = (1,) * n
    reps = 5

    start = time.perf_counter()
    for _ in range(reps):
        transition_amplitude(u, ones, ones)
    permanent_time = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(reps):
        fermion_amplitude(u, ones, ones)
    determinant_time = time.perf_counter() - start

    assert permanent_time > 2.0 * determinant_time, (permanent_time, determinant_time)


def test_rejects_multiply_occupied_modes():
    with pytest.raises(ValueError):
        fermion_amplitude(np.eye(2), (2, 0), (1, 1))


def test_rejects_particle_mismatch():
    with pytest.raises(ValueError):
        fermion_amplitude(np.eye(3), (1, 1, 0), (1, 0, 0))
