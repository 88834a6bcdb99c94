import math
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from basis_reference import enumerate_basis_reference, occupations, row_index

from bosonsim.bosonic import mean_photon_numbers, output_distribution, transition_amplitude
from bosonsim.fermionic import enumerate_fermion_basis, fermion_distribution
from bosonsim.fock import (
    basis_size,
    enumerate_basis,
    format_state,
    normalization_gamma,
    occupation_to_sequence,
    parse_state,
    sequence_to_occupation,
)
from bosonsim.transforms import random_haar_unitary


def test_basis_d2_n2_exact():
    basis = enumerate_basis(2, 2)
    assert basis.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert len(basis) == 3


def test_basis_d3_n2_size():
    assert len(enumerate_basis(3, 2)) == 6


def test_basis_single_particle_matches_mode_basis():
    basis = enumerate_basis(4, 1)
    assert basis.tolist() == np.eye(4, dtype=int).tolist()


def test_basis_vacuum():
    basis = enumerate_basis(3, 0)
    assert basis.tolist() == [[0, 0, 0]]


def test_basis_sizes_match_binomial():
    for d in range(1, 9):
        for n in range(0, 7):
            basis = enumerate_basis(d, n)
            assert len(basis) == math.comb(d + n - 1, n)
            assert len(np.unique(basis, axis=0)) == len(basis)  # duplicate-free


def test_canonical_order_endpoints_and_monotonicity():
    for d, n in ((3, 3), (4, 2), (5, 4)):
        basis = list(map(tuple, enumerate_basis(d, n).tolist()))
        assert basis[0] == (n,) + (0,) * (d - 1)
        assert basis[-1] == (0,) * (d - 1) + (n,)
        # lexicographically decreasing occupations == ascending mode sequences
        for a, b in zip(basis, basis[1:]):
            assert a > b
            assert occupation_to_sequence(a) < occupation_to_sequence(b)


def test_basis_matches_sequence_counting():
    # the basis as first built: count the modes of each ascending mode sequence
    for d, n in [(d, n) for d in range(1, 7) for n in range(7)] + [(12, 6)]:
        counted = occupations(d, combinations_with_replacement(range(d), n))
        assert enumerate_basis(d, n).tolist() == list(map(list, counted))


@pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 7) for n in range(7)] + [(12, 6)])
def test_basis_matches_tuple_reference(d, n):
    basis = enumerate_basis(d, n)
    assert basis.dtype == np.uint8 and basis.shape == (math.comb(d + n - 1, n), d)
    assert np.array_equal(basis, np.array(enumerate_basis_reference(d, n)))
    assert len(np.unique(basis, axis=0)) == len(basis)
    with pytest.raises(ValueError, match="read-only"):
        basis[-1] = basis[0]


@pytest.mark.parametrize("d, n, dtype", [(2, 30000, np.uint16), (1, 10**15, np.uint64)])
def test_basis_dtype_holds_n(d, n, dtype):
    basis = enumerate_basis(d, n)
    assert basis.dtype == dtype
    assert basis.tolist() == list(map(list, enumerate_basis_reference(d, n)))


@pytest.mark.parametrize(
    "build, d, n, bound_mb",
    [(enumerate_fermion_basis, 22, 11, 40), (enumerate_basis, 12, 8, 4)],
    ids=["fermion-d22-n11", "boson-d12-n8"],
)
def test_basis_build_peak_memory(build, d, n, bound_mb):
    # the array is K*d bytes (15.5 MB and 0.9 MB); a tuple basis of Python ints held
    # 159 MB and 11 MB, and int64 mode indices would take the fermion one to 83 MB
    tracemalloc.start()
    try:
        basis = build(d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6, f"peak {peak / 1e6:.1f} MB"
    assert basis.shape[1] == d and basis.dtype == np.uint8


def test_fermion_distribution_peak_memory():
    # 184 756 outcomes: the basis (3.7 MB), amplitudes and probabilities (4.4 MB) and
    # one outcome block's temporaries read 12.6 MB; building every outcome's submatrix
    # rows at once, with the repeat counts cast to intp, read 38.8 MB
    u = random_haar_unitary(20, seed=20)
    inp = (1,) * 10 + (0,) * 10
    tracemalloc.start()
    try:
        dist = fermion_distribution(u, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"peak {peak / 1e6:.1f} MB"
    assert len(dist) == math.comb(20, 10)


def test_basis_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_basis(20, 10, cap=1000)


def test_zero_modes_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        basis_size(0, 1)


def test_sequence_to_occupation_examples():
    assert sequence_to_occupation((1, 1, 3), 3) == (2, 0, 1)
    assert sequence_to_occupation(tuple(range(1, 5)), 4) == (1, 1, 1, 1)
    assert sequence_to_occupation((2, 2), 2) == (0, 2)


def test_sequence_out_of_range():
    with pytest.raises(ValueError):
        sequence_to_occupation((0, 1), 2)
    with pytest.raises(ValueError):
        sequence_to_occupation((1, 3), 2)


def test_sequence_must_be_nondecreasing():
    with pytest.raises(ValueError):
        sequence_to_occupation((2, 1), 3)


def test_occupation_to_sequence_examples():
    assert occupation_to_sequence((2, 0, 1)) == (1, 1, 3)
    assert occupation_to_sequence((1, 1, 1, 1)) == (1, 2, 3, 4)
    assert occupation_to_sequence((0, 2)) == (2, 2)


def test_indexings_are_mutually_inverse():
    # exhaustive over all states with d <= 5, n <= 5
    for d in range(1, 6):
        for n in range(0, 6):
            for occ in enumerate_basis(d, n).tolist():
                seq = occupation_to_sequence(occ)
                assert sequence_to_occupation(seq, d) == tuple(occ)
                assert len(seq) == n
                assert all(x <= y for x, y in zip(seq, seq[1:]))


def test_gamma_examples():
    assert normalization_gamma((1, 1, 1, 1)) == 1
    assert normalization_gamma((2, 0, 1)) == 2
    assert normalization_gamma((3, 2)) == 12


def test_gamma_is_exact_for_large_occupations():
    assert normalization_gamma((25, 5)) == math.factorial(25) * math.factorial(5)


def test_gamma_one_iff_collision_free():
    for d in range(1, 5):
        for n in range(0, 5):
            for occ in enumerate_basis(d, n):
                gamma = normalization_gamma(occ)
                assert gamma >= 1
                assert (gamma == 1) == all(r <= 1 for r in occ)


def test_multinomial_identity():
    # sum over basis states of n! / Gamma equals d^n
    for d in range(1, 6):
        for n in range(0, 6):
            total = sum(
                math.factorial(n) // normalization_gamma(occ)
                for occ in enumerate_basis(d, n)
            )
            assert total == d**n


def test_gamma_rejects_negative():
    with pytest.raises(ValueError):
        normalization_gamma((1, -1))


@pytest.mark.parametrize("occ", [(2.7, 0), (0.5, 1.5), (1, 0.9999)])
@pytest.mark.parametrize(
    "entry_point",
    [
        lambda occ: output_distribution(np.eye(2), occ),
        lambda occ: transition_amplitude(np.eye(2), occ, (1, 1)),
        lambda occ: mean_photon_numbers(np.eye(2), occ),
        lambda occ: fermion_distribution(np.eye(2), occ),
        normalization_gamma,
        format_state,
    ],
    ids=[
        "output_distribution",
        "transition_amplitude",
        "mean_photon_numbers",
        "fermion_distribution",
        "normalization_gamma",
        "format_state",
    ],
)
def test_non_integer_occupations_rejected(entry_point, occ):
    # int() would truncate them: (2.7, 0) silently became (2, 0)
    with pytest.raises(ValueError, match="integers"):
        entry_point(occ)


def test_integral_floats_and_numpy_integers_accepted():
    assert normalization_gamma(np.array([2.0, 1.0])) == 2
    assert format_state(np.array([1, 0, 2], dtype=np.int64)) == "|1,0,2⟩"
    dist = output_distribution(np.eye(2), np.array([1.0, 1.0]))
    assert dist.input_state == (1, 1)
    assert all(type(r) is int for r in dist.input_state)


def test_index_of_first_state():
    basis = enumerate_basis(2, 2)
    assert row_index(basis, (2, 0)) == 0


def test_index_roundtrip():
    basis = enumerate_basis(3, 3)
    for i in range(len(basis)):
        assert row_index(basis, basis[i]) == i


def test_index_of_last_state():
    # derived by enumeration under the canonical order
    for d, n in ((3, 2), (4, 3), (5, 2)):
        basis = enumerate_basis(d, n)
        last = (0,) * (d - 1) + (n,)
        assert row_index(basis, last) == math.comb(d + n - 1, n) - 1


def test_index_of_rejects_foreign_states():
    basis = enumerate_basis(3, 2)
    with pytest.raises(ValueError):
        row_index(basis, (1, 1, 1))  # wrong particle number
    with pytest.raises(ValueError):
        row_index(basis, (2, 0))  # wrong dimension


def test_basis_is_iterable_and_immutable():
    basis = enumerate_basis(2, 1)
    assert [tuple(row) for row in basis] == [(1, 0), (0, 1)]
    assert isinstance(basis, np.ndarray) and basis.shape == (2, 2)
    with pytest.raises(ValueError, match="read-only"):
        basis[0] = (0, 1)
    with pytest.raises(ValueError, match="read-only"):
        basis[1, 1] = 0


def test_format_state():
    assert format_state((2, 0, 1)) == "|2,0,1⟩"


def test_parse_state_forms():
    assert parse_state("2,0,1") == (2, 0, 1)
    assert parse_state("|2,0,1⟩") == (2, 0, 1)
    assert parse_state("|2,0,1>") == (2, 0, 1)
    assert parse_state(" | 1, 1 > ") == (1, 1)


def test_parse_format_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        occ = tuple(int(x) for x in rng.integers(0, 4, size=rng.integers(1, 6)))
        assert parse_state(format_state(occ)) == occ


def test_parse_state_rejects_junk():
    for bad in ("", "a,b", "1;2", "|⟩", "1,-2"):
        with pytest.raises(ValueError):
            parse_state(bad)
