import itertools
import json
import math

import numpy as np
import pytest
from basis_reference import gamma, mode_sequence, row_index

from bosonsim import bosonic, cli, permanents
from bosonsim.bosonic import (
    mean_photon_numbers,
    output_distribution,
    symmetric_power_matrix,
    transition_amplitude,
)
from bosonsim.fock import enumerate_basis
from bosonsim.permanents import permanent_glynn, permanent_naive
from bosonsim.transforms import matrix_to_jsonable, random_haar_unitary

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def first_moment(dist):
    """Brute-force per-mode mean over all outcomes: sum_s p(s) * s_k."""
    total = np.zeros(len(dist.input_state))
    for state, p in zip(dist.states, dist.probabilities):
        total += p * np.array(state, dtype=float)
    return total


# ---------------------------------------------------------------------------
# transition amplitudes
# ---------------------------------------------------------------------------

def test_identity_network_is_diagonal():
    for state in enumerate_basis(3, 2).tolist():
        for other in enumerate_basis(3, 2).tolist():
            amp = transition_amplitude(np.eye(3), state, other)
            expected = 1.0 if state == other else 0.0
            assert np.isclose(amp, expected)


def test_hong_ou_mandel_cancellation():
    amp = transition_amplitude(BEAMSPLITTER, (1, 1), (1, 1))
    assert isinstance(amp, complex)
    assert abs(amp) < 1e-12


def test_beamsplitter_bunching_amplitude():
    amp = transition_amplitude(BEAMSPLITTER, (1, 1), (2, 0))
    assert abs(amp - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(amp) ** 2 - 0.5) < 1e-12


def test_full_occupancy_amplitude_is_permanent():
    # input = output = (1,...,1) with n = d: amplitude is per(U) exactly
    u = random_haar_unitary(4, seed=3)
    ones = (1, 1, 1, 1)
    amp = transition_amplitude(u, ones, ones)
    assert np.isclose(amp, permanent_naive(u))


def test_vacuum_amplitude_is_one():
    u = random_haar_unitary(3, seed=4)
    amp = transition_amplitude(u, (0, 0, 0), (0, 0, 0))
    assert amp == 1.0


def test_amplitude_magnitude_bounded():
    rng = np.random.default_rng(12)
    u = random_haar_unitary(4, seed=12)
    basis = enumerate_basis(4, 3)
    for _ in range(20):
        s = basis[rng.integers(len(basis))]
        t = basis[rng.integers(len(basis))]
        assert abs(transition_amplitude(u, s, t)) <= 1 + 1e-9


def test_amplitude_rejects_particle_mismatch():
    with pytest.raises(ValueError):
        transition_amplitude(np.eye(2), (1, 1), (1, 0))


def test_amplitude_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        transition_amplitude(np.eye(3), (1, 1), (1, 1))


@pytest.mark.parametrize(
    "entry_point, args",
    [
        (output_distribution, ((10**15,),)),
        (symmetric_power_matrix, (10**15,)),
        (transition_amplitude, ((10**20,), (10**20,))),
    ],
    ids=["output_distribution", "symmetric_power_matrix", "transition_amplitude"],
)
def test_particle_guard_precedes_allocation(entry_point, args):
    # unguarded, these end in MemoryError or OverflowError while the basis or
    # the submatrix is built
    with pytest.raises(ValueError, match="guard"):
        entry_point(np.eye(1), *args)


# ---------------------------------------------------------------------------
# output distributions
# ---------------------------------------------------------------------------

def test_identity_distribution_is_point_mass():
    dist = output_distribution(np.eye(3), (0, 2, 1))
    idx = row_index(dist.states, (0, 2, 1))
    assert np.isclose(dist.probabilities[idx], 1.0)
    assert np.isclose(dist.normalization(), 1.0)


def test_beamsplitter_distribution_values():
    dist = output_distribution(BEAMSPLITTER, (1, 1))
    assert dist.states.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert abs(dist.probabilities[0] - 0.5) < 1e-12
    assert dist.probabilities[1] < 1e-12
    assert abs(dist.probabilities[2] - 0.5) < 1e-12


def test_vacuum_distribution_is_one_outcome():
    dist = output_distribution(random_haar_unitary(4, seed=22), (0, 0, 0, 0))
    assert dist.states.tolist() == [[0, 0, 0, 0]]
    assert dist.amplitudes.tolist() == [1]


def test_distributions_compare_and_hash_by_identity():
    # generated over the array fields, == raised ValueError and hash raised TypeError
    dist = output_distribution(BEAMSPLITTER, (1, 1))
    twin = output_distribution(BEAMSPLITTER, (1, 1))
    assert dist == dist and not dist != dist
    assert dist != twin and not dist == twin
    assert hash(dist) == object.__hash__(dist) and hash(twin) == object.__hash__(twin)
    assert dist in {dist} and twin not in {dist}
    assert {dist: 1}[dist] == 1


@pytest.mark.parametrize("block", [1, 7, 512])
def test_distribution_blocks_match_per_outcome_permanents(monkeypatch, block):
    # 792 outcomes: a full block of 512 and a ragged one, 7-blocks, singletons
    monkeypatch.setattr(permanents, "OUTCOME_BLOCK", block)
    u = random_haar_unitary(8, seed=24)
    inp = (2, 1, 1, 1, 0, 0, 0, 0)
    dist = output_distribution(u, inp)
    assert len(dist) == 792
    # outcome by outcome, dividing in Python by sqrt(Gamma_in * Gamma_out) rounded once
    modes = np.arange(8)
    cols = u[:, np.repeat(modes, inp)]
    reference = [
        permanent_glynn(cols[np.repeat(modes, out)])
        / math.sqrt(gamma(inp) * gamma(out))
        for out in dist.states
    ]
    assert np.array_equal(dist.amplitudes, reference)


def test_distribution_matches_transition_amplitudes_exactly():
    # one builder: the full distribution and the one-outcome route agree to the bit
    u = random_haar_unitary(4, seed=5)
    inp = (2, 1, 0, 0)
    dist = output_distribution(u, inp)
    for out, amplitude in zip(dist.states, dist.amplitudes):
        assert np.array_equal(amplitude, transition_amplitude(u, inp, out))


@pytest.mark.parametrize("d", [2, 3])
def test_normalization_is_exact_past_2_53(d):
    # Gamma_in * Gamma_out reaches 30!^2; a float64 factorial table rounds it differently
    def ones(stack):
        return np.ones(len(stack), dtype=np.complex128)

    for n in range(20, 31):
        states = enumerate_basis(d, n)
        inp = states[len(states) // 3]  # bunched
        amplitudes = bosonic._amplitude_matrix(np.eye(d), states, inp[None], ones)[:, 0]
        expected = [1 / math.sqrt(float(gamma(inp) * gamma(s))) for s in states]
        assert np.array_equal(amplitudes.real, expected)


def test_random_distribution_normalized():
    u = random_haar_unitary(4, seed=21)
    dist = output_distribution(u, (1, 1, 0, 0))
    assert abs(dist.normalization() - 1.0) < 1e-9


def test_normalization_over_small_grid():
    for d in range(2, 6):
        for n in range(1, 5):
            u = random_haar_unitary(d, seed=10 * d + n)
            inp = enumerate_basis(d, n)[0]
            dist = output_distribution(u, inp)
            assert abs(dist.normalization() - 1.0) < 1e-9


def test_distribution_cap():
    with pytest.raises(ValueError):
        output_distribution(np.eye(4), (2, 1, 0, 0), cap=5)


# ---------------------------------------------------------------------------
# symmetric power representation
# ---------------------------------------------------------------------------

def test_symmetric_power_n1_is_u_itself():
    u = random_haar_unitary(4, seed=31)
    assert np.array_equal(symmetric_power_matrix(u, 1), u)


@pytest.mark.parametrize("d, n", [(1, 3), (2, 0), (2, 3), (3, 2), (4, 1), (4, 3)])
def test_symmetric_power_columns_are_output_distributions(d, n):
    # both are built by the same per-outcome routine, so agreement is exact
    u = random_haar_unitary(d, seed=100 * d + n)
    p = symmetric_power_matrix(u, n)
    for j, state in enumerate(enumerate_basis(d, n)):
        assert np.array_equal(p[:, j], output_distribution(u, state).amplitudes)


def test_symmetric_power_identity():
    for d, n in ((2, 3), (3, 2)):
        dim = math.comb(d + n - 1, n)
        assert np.allclose(symmetric_power_matrix(np.eye(d), n), np.eye(dim), atol=1e-12)


def test_symmetric_power_is_unitary():
    u = random_haar_unitary(3, seed=32)
    p = symmetric_power_matrix(u, 2)
    dim = p.shape[0]
    assert dim == math.comb(4, 2)
    assert np.abs(p.conj().T @ p - np.eye(dim)).max() <= 1e-9


def test_symmetric_power_homomorphism():
    u = random_haar_unitary(3, seed=33)
    v = random_haar_unitary(3, seed=34)
    pu = symmetric_power_matrix(u, 2)
    pv = symmetric_power_matrix(v, 2)
    puv = symmetric_power_matrix(u @ v, 2)
    assert np.abs(puv - pu @ pv).max() <= 1e-9


def test_symmetric_power_respects_adjoint():
    u = random_haar_unitary(3, seed=35)
    p_dag = symmetric_power_matrix(u.conj().T, 2)
    assert np.abs(p_dag - symmetric_power_matrix(u, 2).conj().T).max() <= 1e-9


def test_symmetric_power_consistent_with_amplitudes():
    # one builder makes both, so every entry agrees to the bit
    u = random_haar_unitary(3, seed=37)
    basis = enumerate_basis(3, 3)
    p = symmetric_power_matrix(u, 3)
    for j, in_state in enumerate(basis):
        for i, out_state in enumerate(basis):
            assert np.array_equal(p[i, j], transition_amplitude(u, in_state, out_state))


def test_beamsplitter_symmetric_square_frozen():
    # two photons on the 50:50 beamsplitter, all nine amplitudes
    p = symmetric_power_matrix(BEAMSPLITTER, 2)
    s = 1 / math.sqrt(2)
    expected = np.array([[0.5, s, 0.5], [s, 0.0, -s], [0.5, -s, 0.5]], dtype=complex)
    assert np.abs(p - expected).max() < 1e-12


def tensor_power_oracle(u, n):
    """Permanent-free oracle: n-fold tensor power of U restricted to the
    symmetric subspace via the explicit symmetrization isometry."""
    d = u.shape[0]
    basis = enumerate_basis(d, n)
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u)
    iso = np.zeros((d**n, len(basis)), dtype=complex)
    for col, occ in enumerate(basis):
        coef = math.sqrt(gamma(occ) / math.factorial(n))
        for perm in set(itertools.permutations(mode_sequence(occ))):
            idx = 0
            for j in perm:
                idx = idx * d + j
            iso[idx, col] = coef
    return iso.conj().T @ big @ iso


@pytest.mark.parametrize("d,n,seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4), (4, 2, 5)])
def test_symmetric_power_matches_tensor_power_oracle(d, n, seed):
    u = random_haar_unitary(d, seed=seed)
    fast = symmetric_power_matrix(u, n)
    assert np.abs(fast - tensor_power_oracle(u, n)).max() < 1e-12


# ---------------------------------------------------------------------------
# mean photon numbers (the poly-time route)
# ---------------------------------------------------------------------------

def test_identity_preserves_occupations():
    assert np.allclose(mean_photon_numbers(np.eye(3), (2, 0, 1)), [2, 0, 1])


def test_beamsplitter_splits_two_photons():
    assert np.allclose(mean_photon_numbers(BEAMSPLITTER, (2, 0)), [1.0, 1.0])


def test_mean_photon_matches_brute_force_moment():
    u = random_haar_unitary(4, seed=41)
    inp = (1, 1, 0, 0)
    fast = mean_photon_numbers(u, inp)
    slow = first_moment(output_distribution(u, inp))
    assert np.abs(fast - slow).max() < 1e-9


def test_mean_photon_conserves_total():
    u = random_haar_unitary(5, seed=42)
    inp = (2, 1, 1, 0, 0)
    assert abs(mean_photon_numbers(u, inp).sum() - 4.0) < 1e-9


def test_mean_photon_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        mean_photon_numbers(np.eye(3), (1, 1))


# ---------------------------------------------------------------------------
# phase gauge
# ---------------------------------------------------------------------------

def test_global_phase_scales_amplitudes_by_exp_in_phi():
    u = random_haar_unitary(3, seed=51)
    phi = 0.37
    n = 2
    base = transition_amplitude(u, (1, 1, 0), (0, 1, 1))
    shifted = transition_amplitude(np.exp(1j * phi) * u, (1, 1, 0), (0, 1, 1))
    assert abs(shifted - np.exp(1j * n * phi) * base) < 1e-10


def test_global_phase_leaves_observables_unchanged():
    u = random_haar_unitary(4, seed=52)
    phased = np.exp(0.9j) * u
    inp = (1, 0, 2, 0)
    dist = output_distribution(u, inp)
    dist_phased = output_distribution(phased, inp)
    assert np.abs(dist.probabilities - dist_phased.probabilities).max() < 1e-10
    assert np.abs(
        mean_photon_numbers(u, inp) - mean_photon_numbers(phased, inp)
    ).max() < 1e-10



# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_distribution_csv_shape(tmp_path, capsys):
    dist = output_distribution(BEAMSPLITTER, (1, 1))
    path = tmp_path / "beamsplitter.json"
    path.write_text(json.dumps(matrix_to_jsonable(BEAMSPLITTER)))
    assert cli.main(["distribution", str(path), "--in", "1,1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "state;probability"
    assert len(lines) == len(dist) + 1 == 4
    state, prob = lines[1].split(";")
    assert state == "2,0"
    assert abs(float(prob) - 0.5) < 1e-12
    assert [float(line.split(";")[1]) for line in lines[1:]] == dist.probabilities.tolist()
