"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is seeded; no test depends on ambient entropy.
"""

import math
import time

import numpy as np

from bosonsim.bosonic import (
    OutputDistribution,
    mean_photon_numbers,
    output_distribution,
    symmetric_power_matrix,
    transition_amplitude,
)
from bosonsim.fermionic import (
    fermion_amplitude,
    fermion_distribution,
    fermion_mode_probabilities,
)
from bosonsim.permanents import permanent_glynn, permanent_naive
from bosonsim.sampling import chi_square_gof, sample
from bosonsim.transforms import (
    check_orthogonal,
    check_symplectic,
    random_haar_unitary,
    realify,
)

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def report(number, ok, label):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def first_moment(dist):
    total = np.zeros(len(dist.input_state))
    for state, p in zip(dist.states, dist.probabilities):
        total += p * np.array(state, dtype=float)
    return total


def test_criterion_1_permanent_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = 1 + i % 8
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, rel_err(permanent_glynn(m), permanent_naive(m)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, f"glynn vs naive on 200 matrices, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hong_ou_mandel_dichotomy():
    p_1_1 = abs(transition_amplitude(BEAMSPLITTER, (1, 1), (1, 1))) ** 2
    p_2_0 = abs(transition_amplitude(BEAMSPLITTER, (1, 1), (2, 0))) ** 2
    p_0_2 = abs(transition_amplitude(BEAMSPLITTER, (1, 1), (0, 2))) ** 2
    p_fermi = abs(fermion_amplitude(BEAMSPLITTER, (1, 1), (1, 1))) ** 2
    ok = (
        p_1_1 <= 1e-12
        and abs(p_2_0 - 0.5) < 1e-12
        and abs(p_0_2 - 0.5) < 1e-12
        and abs(p_fermi - 1.0) < 1e-12
    )
    report(2, ok, f"boson p(1,1)={p_1_1:.2e}, p(2,0)={p_2_0}, fermion p(1,1)={p_fermi}")


def test_criterion_3_representation_unitarity_and_homomorphism():
    cases = [(d, n) for d in range(2, 5) for n in range(1, 5)] + [(4, 4), (4, 4), (3, 4), (4, 3), (2, 4), (3, 3), (4, 4), (2, 2)]
    assert len(cases) == 20
    start = time.perf_counter()
    worst_unitarity = 0.0
    worst_homomorphism = 0.0
    for i, (d, n) in enumerate(cases):
        u = random_haar_unitary(d, seed=300 + i)
        v = random_haar_unitary(d, seed=600 + i)
        pu = symmetric_power_matrix(u, n)
        pv = symmetric_power_matrix(v, n)
        puv = symmetric_power_matrix(u @ v, n)
        dim = pu.shape[0]
        worst_unitarity = max(
            worst_unitarity, np.abs(pu.conj().T @ pu - np.eye(dim)).max()
        )
        worst_homomorphism = max(worst_homomorphism, np.abs(puv - pu @ pv).max())
    elapsed = time.perf_counter() - start
    ok = worst_unitarity <= 1e-9 and worst_homomorphism <= 1e-9 and elapsed < 60.0
    report(
        3,
        ok,
        f"20 Haar unitaries d<=4 n<=4: unitarity dev {worst_unitarity:.2e}, "
        f"homomorphism dev {worst_homomorphism:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_distribution_normalization():
    worst_boson = 0.0
    for i, (d, n) in enumerate((d, n) for d in range(2, 6) for n in range(1, 5)):
        u = random_haar_unitary(d, seed=400 + i)
        occ = [0] * d
        for p in range(n):
            occ[p % d] += 1
        dist = output_distribution(u, tuple(occ))
        worst_boson = max(worst_boson, abs(dist.normalization() - 1.0))
    worst_fermi = 0.0
    fermi_cases = [(d, n) for d in range(2, 7) for n in range(1, 4) if n <= d]
    for i, (d, n) in enumerate(fermi_cases):
        u = random_haar_unitary(d, seed=450 + i)
        inp = tuple(1 if k < n else 0 for k in range(d))
        dist = fermion_distribution(u, inp)
        worst_fermi = max(worst_fermi, abs(dist.normalization() - 1.0))
    ok = worst_boson < 1e-9 and worst_fermi < 1e-9
    report(4, ok, f"normalization dev: bosonic {worst_boson:.2e}, fermionic {worst_fermi:.2e}")


def test_criterion_5_two_route_consistency():
    rng = np.random.default_rng(505)
    worst_boson = worst_boson_total = 0.0
    for i in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        u = random_haar_unitary(d, seed=500 + i)
        occ = np.zeros(d, dtype=int)
        for _ in range(n):
            occ[rng.integers(d)] += 1
        inp = tuple(int(x) for x in occ)
        fast = mean_photon_numbers(u, inp)
        slow = first_moment(output_distribution(u, inp))
        worst_boson = max(worst_boson, np.abs(fast - slow).max())
        worst_boson_total = max(worst_boson_total, abs(fast.sum() - n))
    worst_fermi = worst_fermi_total = 0.0
    for i in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(d, 4)))
        u = random_haar_unitary(d, seed=550 + i)
        modes = rng.choice(d, size=n, replace=False)
        inp = tuple(1 if k in modes else 0 for k in range(d))
        dist = fermion_distribution(u, inp)
        slow = first_moment(dist)
        fast = fermion_mode_probabilities(u, inp)
        worst_fermi = max(worst_fermi, np.abs(fast - slow).max())
        worst_fermi_total = max(worst_fermi_total, abs(fast.sum() - n))
    ok = max(worst_boson, worst_fermi, worst_boson_total, worst_fermi_total) < 1e-9
    report(
        5,
        ok,
        f"poly-time vs brute-force moments on 50+50 cases: bosonic dev {worst_boson:.2e}, "
        f"fermionic dev {worst_fermi:.2e}",
    )


def test_criterion_6_symplectic_embedding():
    worst_s = worst_o = 0.0
    all_pass = True
    for i in range(50):
        d = 2 + i % 5  # d in 2..6
        u = random_haar_unitary(d, seed=700 + i)
        r = realify(u)
        ok_s, dev_s = check_symplectic(r, tol=1e-9)
        ok_o, dev_o = check_orthogonal(r, tol=1e-9)
        all_pass = all_pass and ok_s and ok_o
        worst_s = max(worst_s, dev_s)
        worst_o = max(worst_o, dev_o)
    squeeze = np.diag([2.0, 0.5])
    squeeze_ok = check_symplectic(squeeze, tol=1e-9)[0] and not check_orthogonal(squeeze, tol=1e-9)[0]
    ok = all_pass and squeeze_ok
    report(
        6,
        ok,
        f"50 realified unitaries d<=6: symplectic dev {worst_s:.2e}, orthogonal dev "
        f"{worst_o:.2e}; squeeze passes symplectic only: {squeeze_ok}",
    )


def test_criterion_7_phase_gauge_invariance():
    u = random_haar_unitary(4, seed=800)
    phased = np.exp(1.234j) * u
    inp = (1, 1, 0, 0)
    dp = np.abs(
        output_distribution(u, inp).probabilities
        - output_distribution(phased, inp).probabilities
    ).max()
    dm = np.abs(mean_photon_numbers(u, inp) - mean_photon_numbers(phased, inp)).max()
    finp = (1, 0, 1, 0)
    df = np.abs(
        fermion_distribution(u, finp).probabilities
        - fermion_distribution(phased, finp).probabilities
    ).max()
    dfm = np.abs(
        fermion_mode_probabilities(u, finp) - fermion_mode_probabilities(phased, finp)
    ).max()
    worst = max(dp, dm, df, dfm)
    ok = worst < 1e-10
    report(7, ok, f"e^(i*phi)*U leaves probabilities/expectations unchanged: dev {worst:.2e}")


def test_criterion_8_sampler_calibration():
    u = random_haar_unitary(4, seed=2024)
    dist = output_distribution(u, (1, 1, 0, 0))
    passes = 0
    for seed in range(100):
        counts = sample(dist, count=100_000, seed=seed)
        if chi_square_gof(counts, dist).p_value > 0.001:
            passes += 1
    perm = np.random.default_rng(1).permutation(len(dist))
    wrong = OutputDistribution(
        input_state=dist.input_state,
        states=dist.states,
        amplitudes=dist.amplitudes[perm],
        probabilities=dist.probabilities[perm],
    )
    wrong_counts = sample(wrong, count=100_000, seed=0)
    wrong_p = chi_square_gof(wrong_counts, dist).p_value
    ok = passes >= 99 and wrong_p < 1e-6
    report(8, ok, f"chi-square: {passes}/100 seeds pass at p>0.001; permuted control p={wrong_p:.2e}")


def test_criterion_9_desk_scale_performance():
    u8 = random_haar_unitary(8, seed=900)
    start = time.perf_counter()
    dist_b = output_distribution(u8, (1, 1, 1, 1, 0, 0, 0, 0))
    boson_time = time.perf_counter() - start

    u16 = random_haar_unitary(16, seed=901)
    start = time.perf_counter()
    dist_f = fermion_distribution(u16, (1,) * 8 + (0,) * 8)
    fermi_time = time.perf_counter() - start

    sizes_ok = len(dist_b) == 330 and len(dist_f) == math.comb(16, 8)
    ok = sizes_ok and boson_time < 5.0 and fermi_time < 5.0
    report(
        9,
        ok,
        f"d=8 n=4 bosonic ({len(dist_b)} outcomes) in {boson_time:.2f}s; "
        f"d=16 n=8 fermionic ({len(dist_f)} outcomes) in {fermi_time:.2f}s",
    )
