import numpy as np
import pytest

from bosonsim.bosonic import output_distribution, symmetric_power_matrix, transition_amplitude
from bosonsim.errors import ValidationError
from bosonsim.fermionic import fermion_amplitude, fermion_distribution
from bosonsim.transforms import (
    check_orthogonal,
    check_symplectic,
    matrix_from_jsonable,
    matrix_to_jsonable,
    random_haar_unitary,
    realify,
    symplectic_form,
    unitarity_deviation,
    validate_unitary,
)

BEAMSPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_validate_accepts_identity():
    u = validate_unitary(np.eye(3), tol=1e-10)
    assert u.dtype == np.complex128


def test_validate_accepts_beamsplitter():
    validate_unitary(BEAMSPLITTER, tol=1e-10)


def test_validate_rejects_scaled_column():
    with pytest.raises(ValidationError):
        validate_unitary(np.diag([1.0, 2.0]))


def test_validate_rejects_nan_deviation():
    # U^dag U overflows to inf and inf * 0 = nan; a NaN deviation must not pass
    huge = np.full((2, 2), 1e200 + 1e200j)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(unitarity_deviation(huge))
        with pytest.raises(ValidationError):
            validate_unitary(huge)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_validate_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        validate_unitary(np.eye(2), tol=tol)


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_unitary(np.ones((2, 3)))


def test_unitarity_deviation_reports_magnitude():
    dev = unitarity_deviation(np.diag([1.0, 2.0]))
    assert np.isclose(dev, 3.0)  # |2^2 - 1|


def test_haar_deterministic_given_seed():
    a = random_haar_unitary(3, seed=123)
    b = random_haar_unitary(3, seed=123)
    assert np.array_equal(a, b)
    c = random_haar_unitary(3, seed=124)
    assert not np.allclose(a, c)


def test_haar_output_is_unitary():
    for d in (1, 2, 5, 9):
        u = random_haar_unitary(d, seed=d)
        assert unitarity_deviation(u) <= 1e-10


def test_haar_rejects_zero_modes():
    with pytest.raises(ValueError):
        random_haar_unitary(0, seed=1)


def test_haar_column_uniformity_monte_carlo():
    # Haar columns are uniform on the sphere: E|U_00|^2 = 1/d
    d = 4
    total = 0.0
    for seed in range(10_000):
        total += abs(random_haar_unitary(d, seed=seed)[0, 0]) ** 2
    assert abs(total / 10_000 - 1.0 / d) < 0.01


def test_realify_identity():
    assert np.array_equal(realify(np.eye(3)), np.eye(6))


def test_realify_phase_i_is_quarter_rotation():
    out = realify(np.array([[1j]]))
    assert np.array_equal(out, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_realify_block_layout():
    u = BEAMSPLITTER * np.exp(0.3j)
    out = realify(u)
    d = u.shape[0]
    assert np.array_equal(out[:d, :d], u.real)
    assert np.array_equal(out[:d, d:], -u.imag)
    assert np.array_equal(out[d:, :d], u.imag)
    assert np.array_equal(out[d:, d:], u.real)


def test_realified_unitary_is_symplectic_and_orthogonal():
    u = random_haar_unitary(3, seed=33)
    r = realify(u)
    ok_s, dev_s = check_symplectic(r, tol=1e-9)
    ok_o, dev_o = check_orthogonal(r, tol=1e-9)
    assert ok_s and ok_o
    assert dev_s < 1e-12 and dev_o < 1e-12


def test_realify_is_multiplicative():
    u = random_haar_unitary(4, seed=1)
    v = random_haar_unitary(4, seed=2)
    assert np.abs(realify(u @ v) - realify(u) @ realify(v)).max() < 1e-10


def test_symplectic_form_squares_to_minus_identity():
    for d in (1, 2, 5):
        j = symplectic_form(d)
        assert np.array_equal(j @ j, -np.eye(2 * d))


def test_check_symplectic_identity():
    ok, dev = check_symplectic(np.eye(4))
    assert ok and dev == 0.0


def test_squeeze_is_symplectic_not_orthogonal():
    squeeze = np.diag([2.0, 0.5])
    ok_s, _ = check_symplectic(squeeze)
    ok_o, dev_o = check_orthogonal(squeeze)
    assert ok_s
    assert not ok_o and dev_o > 1.0


def test_uniform_scaling_is_not_symplectic():
    ok, dev = check_symplectic(np.diag([2.0, 2.0]))
    assert not ok
    assert np.isclose(dev, 3.0)  # form scaled by 4


def test_rotation_is_orthogonal():
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ok, dev = check_orthogonal(rot)
    assert ok and dev < 1e-15
    assert check_symplectic(rot)[0]


def test_check_symplectic_rejects_odd_dimension():
    with pytest.raises(ValueError):
        check_symplectic(np.eye(3))


def test_symplectic_closed_under_product_and_inverse():
    # d = 2 squeeze: coordinate pairs are (x_k, x_{k+d}), so scale 2 with 1/2
    squeeze = np.diag([2.0, 0.5, 0.5, 2.0])
    r = realify(random_haar_unitary(2, seed=9))
    for candidate in (squeeze @ r, r @ squeeze, np.linalg.inv(squeeze), np.linalg.inv(r)):
        ok, dev = check_symplectic(candidate, tol=1e-9)
        assert ok, dev


def test_matrix_json_roundtrip():
    u = random_haar_unitary(3, seed=7)
    payload = matrix_to_jsonable(u)
    assert payload["d"] == 3
    back = matrix_from_jsonable(payload)
    assert np.array_equal(back, u)


@pytest.mark.parametrize(
    "payload",
    [
        {"matrix": [[[1, 0]]]},  # missing d
        {"d": 2, "matrix": [[[1, 0], [0, 0]]]},  # wrong row count
        {"d": 1, "matrix": [[[1, 0, 0]]]},  # entry not a pair
        {"d": 1, "matrix": [["x"]]},  # entry not numeric
        {"d": 0, "matrix": []},  # d must be positive
        [1, 2, 3],  # not an object
        {"d": True, "matrix": [[[1, 0]]]},  # boolean d
        {"d": 1, "matrix": [[[10**400, 0]]]},  # entry overflows a float
        {"d": 2, "matrix": [[[True, False], [0, 0]], [[0, 0], [1, 0]]]},  # boolean entry
    ],
)
def test_matrix_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        matrix_from_jsonable(payload)


SQUARE_MATRIX_ENTRY_POINTS = {
    "unitarity_deviation": unitarity_deviation,
    "validate_unitary": validate_unitary,
    "realify": realify,
    "check_symplectic": check_symplectic,
    "check_orthogonal": check_orthogonal,
    "matrix_to_jsonable": matrix_to_jsonable,
    "symmetric_power_matrix": lambda m: symmetric_power_matrix(m, 1),
    "output_distribution": lambda m: output_distribution(m, (1, 0)),
    "transition_amplitude": lambda m: transition_amplitude(m, (1, 0), (0, 1)),
    "fermion_distribution": lambda m: fermion_distribution(m, (1, 0)),
    "fermion_amplitude": lambda m: fermion_amplitude(m, (1, 0), (0, 1)),
}


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 3)), np.ones((2, 2, 2)), np.array([[1.0, np.nan], [0.0, 1.0]])],
    ids=["non-square", "3-D", "nan"],
)
@pytest.mark.parametrize("name", sorted(SQUARE_MATRIX_ENTRY_POINTS))
def test_square_matrix_entry_points_reject_bad_input(name, bad):
    with pytest.raises(ValueError):
        SQUARE_MATRIX_ENTRY_POINTS[name](bad)
