"""The tuple basis builders as first written, kept as test oracles.

``bosonsim.fock.enumerate_basis`` and ``bosonsim.fermionic.enumerate_fermion_basis``
build a read-only (K, d) array with numpy; these copies build the same basis
as a tuple of occupation tuples in pure Python, so a test that compares the
two checks the library against code it does not share.  ``row_index`` finds a
state's row in an array basis, as ``tuple.index`` did in the tuple one.
"""

from itertools import combinations, combinations_with_replacement
from operator import sub
from typing import Iterable, Iterator, Sequence

import numpy as np


def occupations(d: int, sequences: Iterable[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Count the 0-based modes of each sequence into an occupation vector."""
    for sequence in sequences:
        occ = [0] * d
        for k in sequence:
            occ[k] += 1
        yield tuple(occ)


def enumerate_basis_reference(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Boson occupation vectors from their prefix sums, in canonical order."""
    if d == 1:
        return ((n,),)
    # the prefix sums r_0, r_0 + r_1, ... of every state, in ascending order; popped
    # from the end they come in canonical order, each freed once it is used
    cuts = list(combinations_with_replacement(range(n + 1), d - 1))
    descending = (cuts.pop() for _ in range(len(cuts)))
    return tuple(tuple(map(sub, (*c, n), (0, *c))) for c in descending)


def enumerate_fermion_basis_reference(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Fermion 0/1 occupation vectors, counted from their occupied-mode combinations."""
    return tuple(occupations(d, combinations(range(d), n)))


def row_index(basis: np.ndarray, state) -> int:
    """Position of ``state`` among the rows of ``basis``; ValueError when it is not one."""
    state = np.asarray(state)
    if state.shape == basis.shape[1:]:
        hits = np.flatnonzero((basis == state).all(axis=1))
        if len(hits):
            return int(hits[0])
    raise ValueError(f"{tuple(state.tolist())} is not a state of this basis")
