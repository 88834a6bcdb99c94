"""bosonsim: exact simulation of linear quantum-optical networks.

Boson transition amplitudes through a lossless d-mode network are matrix
permanents -- exponentially hard -- while the matching fermionic amplitudes
are determinants and per-mode expectations need only O(d^2) work.  This
package computes all of them exactly at desk scale, so the complexity gap
is something you can run and test rather than just cite.
"""

from .bosonic import (
    OutputDistribution,
    mean_photon_numbers,
    output_distribution,
    symmetric_power_matrix,
    transition_amplitude,
)
from .errors import ValidationError
from .fermionic import (
    enumerate_fermion_basis,
    fermion_amplitude,
    fermion_basis_size,
    fermion_distribution,
    fermion_mode_probabilities,
)
from .fock import (
    DEFAULT_BASIS_CAP,
    basis_size,
    enumerate_basis,
    format_state,
    normalization_gamma,
    occupation_to_sequence,
    parse_state,
    sequence_to_occupation,
)
from .permanents import permanent_glynn, permanent_naive
from .sampling import ChiSquareResult, chi_square_gof, sample
from .transforms import (
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

__all__ = [
    "ChiSquareResult",
    "DEFAULT_BASIS_CAP",
    "OutputDistribution",
    "ValidationError",
    "basis_size",
    "check_orthogonal",
    "check_symplectic",
    "chi_square_gof",
    "enumerate_basis",
    "enumerate_fermion_basis",
    "fermion_amplitude",
    "fermion_basis_size",
    "fermion_distribution",
    "fermion_mode_probabilities",
    "format_state",
    "matrix_from_jsonable",
    "matrix_to_jsonable",
    "mean_photon_numbers",
    "normalization_gamma",
    "occupation_to_sequence",
    "output_distribution",
    "parse_state",
    "permanent_glynn",
    "permanent_naive",
    "random_haar_unitary",
    "realify",
    "sample",
    "sequence_to_occupation",
    "symmetric_power_matrix",
    "symplectic_form",
    "transition_amplitude",
    "unitarity_deviation",
    "validate_unitary",
]

__version__ = "0.1.0"
