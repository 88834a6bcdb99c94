import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from json_reference import render_json_reference

import bosonsim
from bosonsim import cli, permanents
from bosonsim.cli import main
from bosonsim.sampling import chi_square_gof, sample
from bosonsim.transforms import matrix_to_jsonable, random_haar_unitary

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture
def bs_file(tmp_path):
    path = tmp_path / "beamsplitter.json"
    path.write_text(json.dumps(matrix_to_jsonable(BEAMSPLITTER)))
    return str(path)


@pytest.fixture
def u4_file(tmp_path):
    path = tmp_path / "u4.json"
    path.write_text(json.dumps(matrix_to_jsonable(random_haar_unitary(4, seed=1))))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_random_unitary_check_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "random-unitary", "--d", "4", "--seed", "7")
    assert code == 0
    path = tmp_path / "u.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "ok"
    for line in lines[:3]:
        assert float(line.split(" = ")[1]) <= 1e-10


def test_random_unitary_deterministic(capsys):
    _, first, _ = run_cli(capsys, "random-unitary", "--d", "3", "--seed", "5")
    _, second, _ = run_cli(capsys, "random-unitary", "--d", "3", "--seed", "5")
    assert first == second


def test_check_reports_three_deviations(bs_file, capsys):
    code, out, _ = run_cli(capsys, "check", bs_file)
    assert code == 0
    assert out.startswith("unitarity deviation = ")
    assert "symplectic deviation = " in out
    assert "orthogonal deviation = " in out


def test_check_non_unitary_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_jsonable(np.diag([1.0, 2.0]))))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 3
    assert "unitarity deviation = 3" in out
    assert err.startswith("error:")


def test_check_nan_tolerance_exits_2(tmp_path, capsys):
    # a NaN tolerance would let every deviation pass, so it is refused up front
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_jsonable(np.diag([1.0, 2.0]))))
    code, out, err = run_cli(capsys, "check", str(path), "--tol", "nan")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_permanent_command(bs_file, capsys):
    code, out, _ = run_cli(capsys, "permanent", bs_file)
    assert code == 0
    assert out.startswith("permanent = ")
    # per([[1,1],[1,-1]]/sqrt2) = 1/2 - 1/2 = 0
    assert "permanent = 0+0j" in out or "permanent = -0+0j" in out
    code, naive_out, _ = run_cli(capsys, "permanent", bs_file, "--naive")
    assert code == 0
    assert naive_out == out


def test_basis_command(capsys):
    code, out, _ = run_cli(capsys, "basis", "--d", "2", "--n", "2")
    assert code == 0
    assert out == "|2,0⟩\n|1,1⟩\n|0,2⟩\n"


def test_amplitude_hom(bs_file, capsys):
    code, out, _ = run_cli(capsys, "amplitude", bs_file, "--in", "1,1", "--out", "1,1")
    assert code == 0
    assert "probability = 0" in out


def test_amplitude_accepts_ket_notation(bs_file, capsys):
    code, out, _ = run_cli(
        capsys, "amplitude", bs_file, "--in", "|1,1⟩", "--out", "|2,0⟩"
    )
    assert code == 0
    prob = float(out.strip().split("\n")[1].split(" = ")[1])
    assert abs(prob - 0.5) < 1e-12


def test_amplitude_fermion(bs_file, capsys):
    code, out, _ = run_cli(
        capsys, "amplitude", bs_file, "--in", "1,1", "--out", "1,1", "--fermion"
    )
    assert code == 0
    lines = out.strip().split("\n")
    amp = complex(lines[0].split(" = ")[1])
    assert abs(amp - (-1.0)) < 1e-12
    prob = float(lines[1].split(" = ")[1])
    assert abs(prob - 1.0) < 1e-12


def test_distribution_json(bs_file, capsys):
    code, out, _ = run_cli(capsys, "distribution", bs_file, "--in", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == [1, 1]
    states = [tuple(o["state"]) for o in payload["outcomes"]]
    assert states == [(2, 0), (1, 1), (0, 2)]
    probs = [o["probability"] for o in payload["outcomes"]]
    assert abs(probs[0] - 0.5) < 1e-12
    assert probs[1] < 1e-12


def test_distribution_fermion_pauli_blocking(bs_file, capsys):
    code, out, _ = run_cli(capsys, "distribution", bs_file, "--in", "1,1", "--fermion")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["outcomes"]) == 1
    assert payload["outcomes"][0]["state"] == [1, 1]
    assert abs(payload["outcomes"][0]["probability"] - 1.0) < 1e-12


def test_distribution_csv(bs_file, capsys):
    code, out, _ = run_cli(
        capsys, "distribution", bs_file, "--in", "1,1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "state;probability"
    assert len(lines) == 4
    state, prob = lines[1].split(";")
    assert state == "2,0"
    assert abs(float(prob) - 0.5) < 1e-12


def test_distribution_jsonable_shape():
    dist = cli.bosonic.output_distribution(BEAMSPLITTER, (1, 1))
    payload = cli._distribution_to_jsonable(dist)
    assert payload["input"] == [1, 1]
    assert [o["state"] for o in payload["outcomes"]] == [[2, 0], [1, 1], [0, 2]]
    assert all(type(r) is int for o in payload["outcomes"] for r in o["state"])
    assert all(o["probability"] >= 0.0 for o in payload["outcomes"])
    amp = payload["outcomes"][0]["amplitude"]
    assert abs(complex(amp[0], amp[1]) - 1 / np.sqrt(2)) < 1e-12


# 792 bunched boson outcomes and 715 fermion ones: full and ragged blocks, 7-blocks, singletons
@pytest.mark.parametrize("block", [1, 7, 512])
@pytest.mark.parametrize(
    "d, seed, inp, flags",
    [
        (8, 24, (2, 1, 1, 1, 0, 0, 0, 0), ()),
        (13, 23, (1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0), ("--fermion",)),
    ],
    ids=["boson-d8-bunched", "fermion-d13-n4"],
)
def test_distribution_csv_blocks_match_row_by_row(
    tmp_path, capsys, monkeypatch, block, d, seed, inp, flags
):
    u = random_haar_unitary(d, seed=seed)
    compute = cli.fermionic.fermion_distribution if flags else cli.bosonic.output_distribution
    dist = compute(u, inp)
    reference = "state;probability\n" + "".join(
        ",".join(str(int(r)) for r in state) + ";" + format(float(p) + 0.0, ".17g") + "\n"
        for state, p in zip(dist.states, dist.probabilities)
    )
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_jsonable(u)))
    monkeypatch.setattr(permanents, "OUTCOME_BLOCK", block)
    state = ",".join(map(str, inp))
    code, out, err = run_cli(
        capsys, "distribution", str(path), "--in", state, *flags, "--format", "csv"
    )
    assert code == 0, err
    assert len(out.splitlines()) == len(dist) + 1
    assert out == reference


def test_expect_matches_distribution_first_moment(tmp_path, capsys):
    _, ujson, _ = run_cli(capsys, "random-unitary", "--d", "4", "--seed", "99")
    path = tmp_path / "u4.json"
    path.write_text(ujson)

    code, out, _ = run_cli(capsys, "expect", str(path), "--in", "1,1,0,0")
    assert code == 0
    lines = out.strip().split("\n")
    means = [float(line.split(" = ")[1]) for line in lines[:-1]]
    total = float(lines[-1].split(" = ")[1])
    assert abs(total - 2.0) < 1e-9

    code, dist_out, _ = run_cli(capsys, "distribution", str(path), "--in", "1,1,0,0")
    payload = json.loads(dist_out)
    moments = [0.0, 0.0, 0.0, 0.0]
    for outcome in payload["outcomes"]:
        for k in range(4):
            moments[k] += outcome["probability"] * outcome["state"][k]
    assert max(abs(m - e) for m, e in zip(moments, means)) < 1e-9


def test_expect_fermion(bs_file, capsys):
    code, out, _ = run_cli(capsys, "expect", bs_file, "--in", "1,0", "--fermion")
    assert code == 0
    lines = out.strip().split("\n")
    assert abs(float(lines[0].split(" = ")[1]) - 0.5) < 1e-12
    assert abs(float(lines[-1].split(" = ")[1]) - 1.0) < 1e-12


def test_sample_output_and_determinism(bs_file, capsys):
    args = ("sample", bs_file, "--in", "1,1", "--count", "10000", "--seed", "42")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(first)
    assert payload["seed"] == 42
    assert payload["count"] == 10000
    assert sum(c["observed"] for c in payload["counts"]) == 10000
    assert payload["chi_square"]["p_value"] > 0.001
    code, second, _ = run_cli(capsys, *args)
    assert first == second  # byte-stable


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "permanent", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "text",
    [
        '{"d": true, "matrix": [[[1, 0]]]}',
        '{"d": 1, "matrix": [[[1%s, 0]]]}' % ("0" * 400),
        '{"d": 1, "matrix": [[[true, false]]]}',
    ],
    ids=["boolean-d", "overflow", "boolean-entry"],
)
def test_malformed_matrix_payload_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/matrix.json")
    assert code == 2
    assert err.startswith("error:")


def test_dimension_mismatch_exits_2(bs_file, capsys):
    code, _, err = run_cli(capsys, "amplitude", bs_file, "--in", "1,1,1", "--out", "1,1,1")
    assert code == 2
    assert "modes" in err


def test_cap_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "basis", "--d", "30", "--n", "10", "--cap", "100")
    assert code == 2
    assert "cap" in err


def test_basis_of_many_photons_within_desk_budget(capsys):
    # 30 001 states, far under the cap; counting the mode of each photon of
    # each state took 47.5 s on a 2-vCPU host
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "basis", "--d", "2", "--n", "30000")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 30_001
    assert (lines[0], lines[1], lines[-1]) == ("|30000,0⟩", "|29999,1⟩", "|0,30000⟩")
    assert elapsed < 5.0, elapsed


def test_one_mode_basis_of_many_photons_exits_0(capsys):
    # the one state of a single mode, without a pool of n + 1 prefix sums
    code, out, err = run_cli(capsys, "basis", "--d", "1", "--n", "1000000000000000")
    assert code == 0, err
    assert out == "|1000000000000000⟩\n"


def test_particle_guard_exits_2(bs_file, capsys):
    code, _, err = run_cli(capsys, "amplitude", bs_file, "--in", "20,20", "--out", "20,20")
    assert code == 2
    assert "guard" in err


def test_distribution_fermion_vacuum_exits_0(u4_file, capsys):
    code, out, err = run_cli(capsys, "distribution", u4_file, "--in", "0,0,0,0", "--fermion")
    assert code == 0, err
    assert json.loads(out)["outcomes"] == [
        {"state": [0, 0, 0, 0], "probability": 1.0, "amplitude": [1.0, 0.0]}
    ]


def test_distribution_single_mode_identity_is_exactly_one(tmp_path, capsys):
    # sqrt(Gamma_in * Gamma_out) = sqrt(36) = 6 exactly, where sqrt(6) * sqrt(6) is not
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix_to_jsonable(np.eye(1))))
    code, out, err = run_cli(capsys, "distribution", str(path), "--in", "3")
    assert code == 0, err
    assert out == (
        '{"input": [3], "outcomes": [{"state": [3], "probability": 1, "amplitude": [1, 0]}]}\n'
    )


# exact bytes of `distribution` JSON: a signed zero, bunched and full-occupancy states
@pytest.mark.parametrize(
    "matrix, inp, expected",
    [
        (  # per(-I) = 1 - 0j: the -0.0 imaginary part prints as 0
            -np.eye(2),
            "1,1",
            '{"input": [1, 1], "outcomes": ['
            '{"state": [2, 0], "probability": 0, "amplitude": [0, 0]}, '
            '{"state": [1, 1], "probability": 1, "amplitude": [1, 0]}, '
            '{"state": [0, 2], "probability": 0, "amplitude": [0, 0]}]}',
        ),
        (  # bunched input and outcomes, with (3, 0) and (0, 3) fully occupied
            BEAMSPLITTER,
            "2,1",
            '{"input": [2, 1], "outcomes": ['
            '{"state": [3, 0], "probability": 0.37499999999999994, '
            '"amplitude": [0.61237243569579447, 0]}, '
            '{"state": [2, 1], "probability": 0.1249999999999999, '
            '"amplitude": [0.35355339059327362, 0]}, '
            '{"state": [1, 2], "probability": 0.1249999999999999, '
            '"amplitude": [-0.35355339059327362, 0]}, '
            '{"state": [0, 3], "probability": 0.37499999999999994, '
            '"amplitude": [-0.61237243569579447, 0]}]}',
        ),
    ],
    ids=["negative-zero", "bunched-full-occupancy"],
)
def test_distribution_json_bytes(tmp_path, capsys, matrix, inp, expected):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_jsonable(matrix)))
    code, out, err = run_cli(capsys, "distribution", str(path), "--in", inp)
    assert code == 0, err
    assert out == expected + "\n"


def test_distribution_json_bytes_hold_a_negative_zero():
    amplitudes = cli.bosonic.output_distribution(-np.eye(2), (1, 1)).amplitudes
    assert np.signbit(amplitudes.imag).any()


# each asks for more than 128 TiB, beyond any user address space, so the
# allocation fails at once whatever the kernel's overcommit mode
@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "U4", "--in", "1,1,0,0", "--count", "1000000000000000", "--seed", "1"),
        ("random-unitary", "--d", "100000000", "--seed", "1"),
        # MemoryError() has no message
        ("basis", "--d", "2", "--n", "1000000000000000", "--cap", "10000000000000000"),
    ],
)
def test_out_of_memory_exits_2(u4_file, capsys, argv):
    code, out, err = run_cli(capsys, *(u4_file if a == "U4" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.strip() != "error:"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "DEEP"),  # RecursionError in json.load
        # OverflowError in itertools
        ("basis", "--d", "2", "--n", "100000000000000000000", "--cap", "1000000000000000000000"),
        ("expect", "U4", "--in", "1" + "0" * 309 + ",0,0,0"),  # OverflowError int -> float
        ("check", "HUGE"),  # overflow in U^dag U
    ],
    ids=["deep-json", "basis-overflow", "expect-overflow", "matrix-overflow"],
)
def test_former_tracebacks_exit_2(tmp_path, u4_file, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(matrix_to_jsonable(np.full((2, 2), 1e200 + 1e200j))))
    files = {"DEEP": str(deep), "HUGE": str(huge), "U4": u4_file}
    code, out, err = run_cli(capsys, *(files.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_unitary_matrix_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(matrix_to_jsonable(np.ones((2, 2)))))
    code, _, err = run_cli(capsys, "distribution", str(path), "--in", "1,1")
    assert code == 3
    assert "not unitary" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("amplitude", "U4", "--in", "1,1,0,0", "--out", "1,1,0,0"),
        ("distribution", "U4", "--in", "1,1,0,0"),
        ("expect", "U4", "--in", "1,1,0,0"),
        ("sample", "U4", "--in", "1,1,0,0", "--count", "10", "--seed", "1"),
        ("check", "U4"),
    ],
    ids=["amplitude", "distribution", "expect", "sample", "check"],
)
def test_bad_tolerance_exits_2(u4_file, capsys, argv, tol):
    code, out, err = run_cli(capsys, *(u4_file if a == "U4" else a for a in argv), "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--d", "2", "--n", "0"),
        ("distribution", "U4", "--in", "0,0,0,0"),
        ("distribution", "U4", "--in", "0,0,0,0", "--fermion"),
        ("sample", "U4", "--in", "0,0,0,0", "--count", "10", "--seed", "1"),
    ],
    ids=["basis", "distribution", "fermion-distribution", "sample"],
)
def test_cap_below_one_exits_2(u4_file, capsys, argv, cap):
    # one-state bases: every cap below 1 is refused by the basis size check alone
    code, out, err = run_cli(capsys, *(u4_file if a == "U4" else a for a in argv), "--cap", cap)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_format_is_a_usage_error(u4_file):
    with pytest.raises(SystemExit) as exc:
        main(["distribution", u4_file, "--in", "1,1,0,0", "--format", "xml"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra", [("--in", "1,0", "--count", "100"), ("--in", "1,1", "--count", "0")]
)
def test_sample_point_mass_exits_0(tmp_path, capsys, extra):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix_to_jsonable(np.eye(2))))
    code, out, err = run_cli(capsys, "sample", str(path), *extra, "--seed", "1")
    assert code == 0, err
    assert json.loads(out)["chi_square"] == {
        "statistic": 0.0,
        "p_value": 1.0,
        "degrees_of_freedom": 0,
        "bins": 1,
    }


def sample_payload_by_dict(inp, dist, count, seed):
    """``sample``'s stdout as first written: a nested dict through the reference serializer."""
    counts = sample(dist, count=count, seed=seed)
    gof = chi_square_gof(counts, dist)
    expected = dist.probabilities * count
    payload = {
        "input": [int(r) for r in inp],
        "seed": seed,
        "count": count,
        "counts": [
            {
                "state": [int(r) for r in state],
                "observed": int(counts[i]),
                "expected": float(expected[i]),
            }
            for i, state in enumerate(dist.states)
        ],
        "chi_square": {
            "statistic": gof.statistic,
            "p_value": gof.p_value,
            "degrees_of_freedom": gof.degrees_of_freedom,
            "bins": gof.bins,
        },
    }
    return render_json_reference(payload) + "\n"


@pytest.mark.parametrize(
    "matrix, inp, count, signed_zero",
    [
        (random_haar_unitary(12, seed=3), (1,) * 6 + (0,) * 6, 1_000_000, False),
        (random_haar_unitary(8, seed=2), (2, 1, 1, 1, 0, 0, 0, 0), 5000, False),  # bunched
        (np.eye(3), (1, 0, 2), 100, False),  # point mass: the degenerate chi-square
        (np.eye(3), (1, 0, 2), 0, False),
        (BEAMSPLITTER, (1, 1), 1000, True),  # a -0.0 probability, printed as 0
    ],
)
def test_sample_payload_matches_render_json(
    tmp_path, capsys, monkeypatch, matrix, inp, count, signed_zero
):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_jsonable(matrix)))
    compute = cli.bosonic.output_distribution
    used = []

    def compute_and_keep(*args, **kwargs):
        dist = compute(*args, **kwargs)
        if signed_zero:
            zeroed = np.where(dist.probabilities < 1e-20, -0.0, dist.probabilities)
            assert np.signbit(zeroed).any()
            dist = dataclasses.replace(dist, probabilities=zeroed)
        used.append(dist)
        return dist

    monkeypatch.setattr(cli.bosonic, "output_distribution", compute_and_keep)
    state = ",".join(map(str, inp))
    code, out, err = run_cli(
        capsys, "sample", str(path), "--in", state, "--count", str(count), "--seed", "42"
    )
    assert code == 0, err
    assert out == sample_payload_by_dict(inp, used[0], count, 42)


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes about a second to import, and most commands never sample
    src = str(Path(bosonsim.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import bosonsim.cli; "
        "sys.exit('scipy.stats' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "bosonsim.cli imported scipy.stats"


# posix_spawns the CLI, sends its stdout to /dev/null and prints its exit code and
# ru_maxrss.  A child started by fork or vfork from a large process inherits that
# process's RSS high-water mark through exec, so the CLI is started from this small
# launcher rather than from the test process, and the reading is the CLI's own.
CHILD_RSS = """
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
argv = [sys.executable, "-m", "bosonsim.cli", *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_rss_mb(*argv):
    src = str(Path(bosonsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", CHILD_RSS, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    code, maxrss_kb = map(int, result.stdout.split())
    assert code == 0
    return maxrss_kb / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_fermion_json_child_memory_over_noop(tmp_path):
    # a 2-vCPU host read 53.5 MB for the no-op and 72.6 MB for the fermion JSON
    path = tmp_path / "u16.json"
    path.write_text(json.dumps(matrix_to_jsonable(random_haar_unitary(16, seed=16))))
    noop = child_rss_mb("basis", "--d", "1", "--n", "0")
    fermion = child_rss_mb("distribution", str(path), "--in", ",".join("1" * 8 + "0" * 8), "--fermion")
    assert fermion - noop <= 24.0, (noop, fermion)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_boson_distribution_child_memory_over_noop(tmp_path):
    # the boson_dist benchmark workload's first command; a 2-vCPU host read 17.8 MB over
    # the no-op with a tuple basis and 15.3 MB with the array basis
    path = tmp_path / "u12.json"
    path.write_text(json.dumps(matrix_to_jsonable(random_haar_unitary(12, seed=12))))
    noop = child_rss_mb("basis", "--d", "1", "--n", "0")
    boson = child_rss_mb("distribution", str(path), "--in", ",".join("1" * 6 + "0" * 6))
    assert boson - noop <= 20.0, (noop, boson)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_fermion_csv_child_memory_over_noop(tmp_path):
    # the fermion_dist benchmark workload's second command; over 11 interleaved runs a
    # 2-vCPU host read 6.24-6.95 MB over the no-op when the whole CSV was one string,
    # and 1.88-2.40 MB when it is written a block of outcomes at a time
    path = tmp_path / "u16.json"
    path.write_text(json.dumps(matrix_to_jsonable(random_haar_unitary(16, seed=16))))
    noop = child_rss_mb("basis", "--d", "1", "--n", "0")
    state = ",".join("1" * 8 + "0" * 8)
    fermion = child_rss_mb("distribution", str(path), "--in", state, "--fermion", "--format", "csv")
    assert fermion - noop <= 4.5, (noop, fermion)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, read",
    [
        (("distribution", "u16.json", "--in", ",".join("1" * 8 + "0" * 8), "--fermion",
          "--format", "csv"), 100),
        (("basis", "--d", "3", "--n", "2"), 0),  # all of it still buffered at exit
    ],
    ids=["fermion-csv-after-100-bytes", "small-basis-no-reader"],
)
def test_output_into_closed_pipe_exits_2_with_one_error_line(tmp_path, argv, read, unbuffered):
    # the reader leaves early; Python flushes stdout again at exit, which must not fail
    # a second time (an "Exception ignored" line and exit code 120)
    (tmp_path / "u16.json").write_text(
        json.dumps(matrix_to_jsonable(random_haar_unitary(16, seed=16)))
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(bosonsim.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "bosonsim.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env=env,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert err == "error: [Errno 32] Broken pipe\n", err
