"""Workload inputs, CLI ops and the independent checks of their outputs.

Inputs come from plain numpy and the benchmark seed, never from bosonsim
itself, so a change to ``bosonsim.transforms`` cannot change what is
measured.  Every check uses the benchmark's own reference kernels
(a direct-sum Glynn permanent and ``numpy.linalg.det``) and runs outside
the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

EPS = np.finfo(float).eps
#: relative tolerance on permanents and amplitudes, widened where the
#: permanent's own conditioning n * eps * per(|A|) is larger (n = 18-19)
REL_TOL = 1e-10
#: normalization and first-moment tolerance
SUM_TOL = 1e-9


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, R's diagonal phases fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    """Matrix JSON as the CLI reads it: {"d": d, "matrix": [[[re, im], ...], ...]}."""
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    path.write_text(json.dumps({"d": int(matrix.shape[0]), "matrix": rows}))


def permanent_ref(a: np.ndarray, chunk: int = 1 << 14) -> np.ndarray:
    """Glynn's formula over a stack (..., n, n), each sign vector summed directly.

    No running (Gray-code) sums, so roundoff does not accumulate across the
    2^(n-1) terms; at n = 19 it agrees with an 80-bit evaluation to ~1e-14.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[-1]
    total = np.zeros(a.shape[:-2], dtype=np.complex128)
    if n == 0:
        return total + 1.0
    for lo in range(0, 1 << (n - 1), chunk):
        k = np.arange(lo, min(lo + chunk, 1 << (n - 1)))
        bits = (k[:, None] >> np.arange(n - 1)) & 1
        delta = np.concatenate([np.ones((len(k), 1)), 1.0 - 2.0 * bits], axis=1)
        total = total + ((delta @ a).prod(axis=-1) * delta.prod(axis=1)).sum(axis=-1)
    return total / 2.0 ** (n - 1)


def permanent_tolerance(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Allowed absolute error: REL_TOL * |per(A)|, or n * eps * per(|A|) if larger."""
    n = a.shape[-1]
    return np.maximum(REL_TOL * np.abs(ref), n * EPS * permanent_ref(np.abs(a)).real)


def multiplicity_steps(cols) -> int:
    """Steps of a Ryser sum over column multiplicity vectors: prod(c + 1) - 1."""
    return math.prod(c + 1 for c in cols if c) - 1


def gamma(states: np.ndarray) -> np.ndarray:
    """Product of occupation factorials, row by row."""
    fact = np.array([math.factorial(k) for k in range(int(states.max(initial=0)) + 1)], float)
    return fact[states].prod(axis=-1)


@dataclass
class Op:
    """One CLI invocation and the counts it should produce."""

    name: str
    argv: list[str]
    check: Callable[[str], tuple[list[str], float]]  # -> failures, deviation
    particles: int = 0
    perm_calls: int = 0  # per-outcome permanent kernel calls today
    det_calls: int = 0
    basis_states: int = 0
    perm_cols: tuple = ()  # column multiplicities of each permanent
    draws: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    grid: dict = field(default_factory=dict)


def _state_arg(state) -> str:
    return ",".join(str(int(r)) for r in state)


def _expected_distribution(u, inp, fermion):
    """Canonical states, reference amplitudes and their tolerances."""
    d, n = u.shape[0], int(sum(inp))
    cols = np.repeat(np.arange(d), inp)
    if fermion:
        seqs = np.array(list(itertools.combinations(range(d), n)), dtype=int)
        subs = u[:, cols][seqs]
        amps = np.linalg.det(subs)
        tol = REL_TOL * np.abs(amps) + n * EPS
    else:
        seqs = np.array(list(itertools.combinations_with_replacement(range(d), n)), dtype=int)
        subs = u[:, cols][seqs]
        amps = permanent_ref(subs)
        tol = permanent_tolerance(subs, amps)
    states = np.zeros((len(seqs), d), dtype=int)
    np.add.at(states, (np.arange(len(seqs))[:, None], seqs), 1)
    norm = np.sqrt(gamma(states) * gamma(np.asarray([inp]))[0])
    return states, amps / norm, tol / norm


def _check_outcomes(states, probs, want_states, want_amps, want_tol, moments, amps=None):
    """Failures, and the largest deviation from the reference relative to its scale."""
    errors = []
    if states.shape != want_states.shape or not (states == want_states).all():
        return [f"outcome states differ from the canonical basis ({len(states)} outcomes)"], 0.0
    ref_p = np.abs(want_amps) ** 2
    if amps is None:
        deviation = np.abs(probs - ref_p).max() / ref_p.max()
    else:
        deviation = np.abs(amps - want_amps).max() / np.abs(want_amps).max()
        bad = np.abs(amps - want_amps) > want_tol
        if bad.any():
            errors.append(f"{int(bad.sum())} amplitudes differ from the reference")
    bad = np.abs(probs - ref_p) > 2 * want_tol * np.abs(want_amps) + want_tol**2 + 1e-300
    if bad.any():
        errors.append(f"{int(bad.sum())} probabilities differ from the reference")
    if abs(probs.sum() - 1.0) > SUM_TOL:
        errors.append(f"distribution sums to {probs.sum()!r}")
    dev = np.abs(probs @ states - moments).max()
    if dev > SUM_TOL:
        errors.append(f"first moments deviate by {dev:.3e} from |U|^2 r")
    return errors, float(deviation)


def _distribution_check(u, inp, expected, fmt):
    want_states, want_amps, want_tol = expected
    moments = (np.abs(u) ** 2) @ np.asarray(inp, float)

    def check(stdout: str) -> tuple[list[str], float]:
        if fmt == "csv":
            lines = stdout.splitlines()
            if not lines or lines[0] != "state;probability":
                return ["missing CSV header"], 0.0
            rows = [line.split(";") for line in lines[1:]]
            states = np.array([[int(r) for r in s.split(",")] for s, _ in rows], dtype=int)
            probs = np.array([float(p) for _, p in rows])
            return _check_outcomes(states, probs, want_states, want_amps, want_tol, moments)
        doc = json.loads(stdout)
        if doc["input"] != list(inp):
            return ["input state echoed wrongly"], 0.0
        out = doc["outcomes"]
        states = np.array([o["state"] for o in out], dtype=int)
        probs = np.array([o["probability"] for o in out], float)
        amps = np.array([complex(*o["amplitude"]) for o in out])
        return _check_outcomes(states, probs, want_states, want_amps, want_tol, moments, amps)

    return check


def _sample_check(expected_dist, count):
    want_states, want_amps, _ = expected_dist
    expected = np.abs(want_amps) ** 2 * count

    def check(stdout: str) -> tuple[list[str], float]:
        doc = json.loads(stdout)
        rows = doc["counts"]
        states = np.array([r["state"] for r in rows], dtype=int)
        if states.shape != want_states.shape or not (states == want_states).all():
            return ["sample bins differ from the canonical basis"], 0.0
        errors = []
        observed = sum(r["observed"] for r in rows)
        if observed != count or doc["count"] != count:
            errors.append(f"counts sum to {observed}, not {count}")
        got = np.array([r["expected"] for r in rows], float)
        if np.abs(got - expected).max() > SUM_TOL * count:
            errors.append("expected counts differ from p * count")
        # the draws themselves against the reference p: no bin more than
        # 6 sigma (+6 for near-empty bins) off, and Pearson's statistic over
        # the bins expecting >= 5 within 6 sigma of its degrees of freedom
        seen = np.array([r["observed"] for r in rows], float)
        if (np.abs(seen - expected) > 6 * np.sqrt(expected) + 6).any():
            errors.append("observed counts stray from p * count")
        big = expected >= 5
        dof = big.sum() - 1
        pearson = (((seen - expected)[big]) ** 2 / expected[big]).sum()
        if abs(pearson - dof) > 6 * math.sqrt(2 * dof):
            errors.append(f"observed counts fail chi-square against p ({pearson:.0f}, dof {dof})")
        chi = doc["chi_square"]
        if not math.isfinite(chi["statistic"]) or chi["degrees_of_freedom"] != chi["bins"] - 1:
            errors.append("malformed chi-square report")
        return errors, 0.0

    return check


def _value_after(stdout: str, key: str) -> complex:
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return complex(line[len(key) + 3 :])
    raise ValueError(f"no {key!r} line")


def _permanent_check(m):
    ref = complex(permanent_ref(m))
    tol = float(permanent_tolerance(m, np.asarray(ref)))

    def check(stdout: str) -> tuple[list[str], float]:
        got = _value_after(stdout, "permanent")
        errors = []
        if abs(got - ref) > tol:
            errors.append(f"permanent {got} differs from reference {ref} by more than {tol:.2e}")
        return errors, abs(got - ref) / abs(ref)

    return check


def _amplitude_check(u, inp, out):
    d = u.shape[0]
    sub = u[np.ix_(np.repeat(np.arange(d), out), np.repeat(np.arange(d), inp))]
    norm = math.sqrt(gamma(np.asarray([inp]))[0] * gamma(np.asarray([out]))[0])
    ref = complex(permanent_ref(sub)) / norm
    tol = float(permanent_tolerance(sub, np.asarray(ref * norm))) / norm

    def check(stdout: str) -> tuple[list[str], float]:
        amp = _value_after(stdout, "amplitude")
        prob = _value_after(stdout, "probability").real
        errors = []
        if abs(amp - ref) > tol:
            errors.append(f"amplitude {amp} differs from reference {ref} by more than {tol:.2e}")
        if abs(prob - abs(amp) ** 2) > 1e-12 * abs(amp) ** 2:
            errors.append("probability is not |amplitude|^2")
        return errors, abs(amp - ref) / abs(ref)

    return check


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from the seed and write them to workdir."""
    rng = np.random.default_rng(seed)
    if name == "boson_dist":
        d, inp = 12, (1,) * 6 + (0,) * 6
        u = haar_unitary(d, rng)
        path = workdir / "u12.json"
        write_matrix(path, u)
        count, sample_seed = 1_000_000, int(rng.integers(2**31))
        n, size = sum(inp), math.comb(d + 5, 6)
        expected = _expected_distribution(u, inp, fermion=False)
        common = dict(particles=n, perm_calls=size, basis_states=size, perm_cols=(1,) * n)
        ops = [
            Op("distribution", ["distribution", str(path), "--in", _state_arg(inp)],
               _distribution_check(u, inp, expected, "json"), **common),
            Op("sample", ["sample", str(path), "--in", _state_arg(inp), "--count", str(count),
                          "--seed", str(sample_seed)],
               _sample_check(expected, count), draws=count, **common),
        ]
        grid = {"d": d, "n": n, "basis_size": size, "gray_steps_per_call": 2**n - 1,
                "multiplicity_steps_per_call": multiplicity_steps((1,) * n)}
    elif name == "fermion_dist":
        d, inp = 16, (1,) * 8 + (0,) * 8
        u = haar_unitary(d, rng)
        path = workdir / "u16.json"
        write_matrix(path, u)
        n, size = sum(inp), math.comb(d, 8)
        common = dict(particles=n, det_calls=size, basis_states=size)
        base = ["distribution", str(path), "--in", _state_arg(inp), "--fermion"]
        expected = _expected_distribution(u, inp, fermion=True)
        ops = [
            Op("distribution", base, _distribution_check(u, inp, expected, "json"), **common),
            Op("distribution_csv", base + ["--format", "csv"],
               _distribution_check(u, inp, expected, "csv"), **common),
        ]
        grid = {"d": d, "n": n, "basis_size": size, "gray_steps_per_call": 0,
                "multiplicity_steps_per_call": 0}
    elif name == "big_perm":
        m = haar_unitary(19, rng)
        mpath = workdir / "m19.json"
        write_matrix(mpath, m)
        d, inp, out = 9, (2,) * 9, (3, 1) + (2,) * 7
        u = haar_unitary(d, rng)
        upath = workdir / "u9.json"
        write_matrix(upath, u)
        ops = [
            Op("permanent", ["permanent", str(mpath)], _permanent_check(m),
               particles=19, perm_calls=1, perm_cols=(1,) * 19),
            Op("amplitude", ["amplitude", str(upath), "--in", _state_arg(inp),
                             "--out", _state_arg(out)], _amplitude_check(u, inp, out),
               particles=18, perm_calls=1, perm_cols=inp),
        ]
        grid = {"permanent_n": 19, "amplitude_d": d, "amplitude_n": 18, "basis_size": 0,
                "gray_steps": [2**19 - 1, 2**18 - 1],
                "multiplicity_steps": [multiplicity_steps((1,) * 19), multiplicity_steps(inp)]}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops, grid)


#: big_perm (per-Gray-step cost, bunched multiplicities) runs by hand with
#: ``--workload big_perm`` or ``all``; BENCHMARK.json leaves it out so that
#: its two steadier workloads can each run longer within the run budget
WORKLOADS = ("boson_dist", "fermion_dist", "big_perm")
