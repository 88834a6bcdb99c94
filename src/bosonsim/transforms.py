"""Mode transformations: d-mode unitaries and their real 2d x 2d embeddings.

A lossless, particle-number-conserving d-mode network is a d x d unitary U
acting on the mode operators.  Writing each complex amplitude z_k = x_k +
i*x_{k+d} turns U into a real 2d x 2d matrix

    realify(U) = [[Re U, -Im U],
                  [Im U,  Re U]]

which preserves both the Euclidean form (it is orthogonal) and the skew
form defined by J (it is symplectic); matrices with both properties are
exactly the realified unitaries.  ``check_symplectic`` / ``check_orthogonal``
report the deviation from each property, never just a boolean.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .permanents import as_square_matrix

#: default max-norm tolerance on ||U^dag U - I||
DEFAULT_UNITARITY_TOL = 1e-10


def unitarity_deviation(matrix) -> float:
    """Max-norm of U^dag U - I."""
    a = as_square_matrix(matrix)
    d = a.shape[0]
    return float(np.abs(a.conj().T @ a - np.eye(d)).max())


def check_tolerance(tol: float) -> None:
    """Refuse a unitarity tolerance unless 0 < ``tol`` < inf (a NaN one would pass anything)."""
    if not 0 < tol < np.inf:
        raise ValueError(f"unitarity tolerance must be positive and finite, got {tol!r}")


def validate_unitary(matrix, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    """Return the matrix as complex128 after checking unitarity.

    Raises ValidationError if ||U^dag U - I||_max exceeds ``tol`` or is NaN,
    and ValueError if ``check_tolerance`` refuses ``tol``.
    """
    check_tolerance(tol)
    a = as_square_matrix(matrix)
    dev = unitarity_deviation(a)
    if not dev <= tol:  # written so that a NaN deviation fails
        raise ValidationError(f"matrix is not unitary: deviation {dev:.3e} > tol {tol:.3e}")
    return a


def random_haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic for a given seed.

    QR of a complex standard-Gaussian matrix, with the R diagonal phases
    absorbed into Q so the factorization (and hence the distribution) is
    unique.
    """
    if d < 1:
        raise ValueError("need at least one mode")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q


def realify(unitary) -> np.ndarray:
    """Real 2d x 2d image of U under z_k = x_k + i*x_{k+d}.

    Block form [[Re U, -Im U], [Im U, Re U]]; the first d real coordinates
    are the real parts, the last d the imaginary parts.
    """
    u = as_square_matrix(unitary)
    re, im = u.real, u.imag
    return np.block([[re, -im], [im, re]])


def symplectic_form(d: int) -> np.ndarray:
    """The 2d x 2d matrix J = [[0, I], [-I, 0]]; J @ J = -I exactly."""
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def check_symplectic(matrix, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether A^T J A = J within ``tol``; returns (ok, max-norm deviation)."""
    a = as_square_matrix(matrix, dtype=float)
    if a.shape[0] % 2:
        raise ValueError("symplectic matrices have even dimension")
    j = symplectic_form(a.shape[0] // 2)
    dev = float(np.abs(a.T @ j @ a - j).max())
    return dev <= tol, dev


def check_orthogonal(matrix, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether A^T A = I within ``tol``; returns (ok, max-norm deviation)."""
    a = as_square_matrix(matrix, dtype=float)
    dev = float(np.abs(a.T @ a - np.eye(a.shape[0])).max())
    return dev <= tol, dev


def matrix_to_jsonable(matrix) -> dict:
    """Matrix file payload: {"d": d, "matrix": [[[re, im], ...], ...]}."""
    a = as_square_matrix(matrix)
    return {
        "d": int(a.shape[0]),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in a],
    }


def matrix_from_jsonable(payload) -> np.ndarray:
    """Parse the {"d", "matrix"} payload back into a complex array."""
    if not isinstance(payload, dict) or "d" not in payload or "matrix" not in payload:
        raise ValueError('matrix JSON must be an object with "d" and "matrix" keys')
    d = payload["d"]
    rows = payload["matrix"]
    # bool subclasses int, so JSON true/false must be refused explicitly
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError('"d" must be a positive integer')
    if not isinstance(rows, list) or len(rows) != d:
        raise ValueError(f'"matrix" must be a list of {d} rows')
    out = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"row {i} must be a list of {d} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
                or any(isinstance(x, bool) for x in entry)
            ):
                raise ValueError(f"entry ({i},{j}) must be a [re, im] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise ValueError(f"entry ({i},{j}) is out of floating-point range") from None
    return as_square_matrix(out)
