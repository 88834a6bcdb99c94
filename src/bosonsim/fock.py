"""Fock states of n indistinguishable bosons in d modes.

A state is labeled by its occupation vector (r_1, ..., r_d) of nonnegative
counts summing to n.  A whole basis is a read-only (K, d) integer array, one
state per row, and every layer reads that one form.

The canonical basis order is lexicographically decreasing occupation
vectors -- (n, 0, ..., 0) first, (0, ..., 0, n) last -- which is the same
as ascending lexicographic order on the nondecreasing sequences of the modes
each particle sits in.
"""

from __future__ import annotations

import math
import re
from itertools import chain, combinations_with_replacement
from typing import Sequence

import numpy as np

#: default limit on the number of basis states materialized at once
DEFAULT_BASIS_CAP = 10**6


def basis_size(d: int, n: int) -> int:
    """Number of n-particle states in d modes: C(d+n-1, n)."""
    if d < 1:
        raise ValueError("need at least one mode")
    if n < 0:
        raise ValueError("particle number must be nonnegative")
    return math.comb(d + n - 1, n)


def enumerate_basis(d: int, n: int, cap: int = DEFAULT_BASIS_CAP) -> np.ndarray:
    """All occupation vectors with sum n over d modes, in canonical order.

    One read-only (K, d) row per state, of the narrowest unsigned dtype that
    holds n; the rows are distinct.  Their number K = C(d+n-1, n) is checked
    against ``cap`` before anything is built.  Building it costs O(K*d).
    """
    size = basis_size(d, n)
    if size > cap:
        raise ValueError(f"basis size C({d + n - 1},{n}) = {size} exceeds cap {cap}")
    dtype = np.min_scalar_type(n)
    # every state's prefix sums r_0, r_0 + r_1, ..., in ascending order (d = 1 has none,
    # and draws no pool of n + 1 ints); reversed, their differences are the canonical states
    cuts = combinations_with_replacement(range(n + 1) if d > 1 else (), d - 1)
    cuts = np.fromiter(chain.from_iterable(cuts), dtype, size * (d - 1)).reshape(size, d - 1)
    basis = np.diff(cuts[::-1], axis=1, prepend=dtype.type(0), append=dtype.type(n))
    basis.flags.writeable = False
    return basis


def validate_occupation(occupation: Sequence[int]) -> tuple[int, ...]:
    raw = tuple(occupation)
    occ = tuple(map(int, raw))
    if occ != raw:  # int() would truncate 2.7 to 2
        raise ValueError(f"occupation numbers must be integers, got {raw}")
    if not occ:
        raise ValueError("occupation vector must have at least one mode")
    if any(r < 0 for r in occ):
        raise ValueError(f"occupation numbers must be nonnegative, got {occ}")
    return occ


_STATE_RE = re.compile(r"^\s*(?:\||∣)?\s*([0-9,\s]+?)\s*(?:⟩|>)?\s*$")


def format_state(occupation: Sequence[int]) -> str:
    """Render an occupation vector as a ket string, e.g. |2,0,1⟩."""
    occ = validate_occupation(occupation)
    return "|" + ",".join(str(r) for r in occ) + "⟩"


def parse_state(text: str) -> tuple[int, ...]:
    """Parse ``|2,0,1>``, ``|2,0,1⟩`` or plain ``2,0,1`` into occupations."""
    m = _STATE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse state {text!r}")
    try:
        occ = tuple(int(part.strip()) for part in m.group(1).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse state {text!r}") from exc
    return validate_occupation(occ)
