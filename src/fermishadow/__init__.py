"""Randomized measurements for fixed-particle-number fermionic states.

Sample occupation readouts after Haar mode rotations, invert the
measurement channel in closed form, and estimate every k-body transition
amplitude of an eta-particle state: every entry at once from the dense
estimation operator, or one entry at O(k^2 eta + k^4) per shot from the
k x k block of the readout projector that it names.

Modules
-------
    combinat   : subsets in colex order, binomials, bitmasks and the sign rule
    linalg     : Haar sampling, minors, Givens rotation
    fock       : dense eta-particle states, rotations, transitions, JSON form
    channel    : exact algebra of the measurement channel
    shadows    : the protocol on stacked (us, zs) arrays, both estimators,
                 variance bookkeeping
    identities : brute-vs-closed sums and the checks validate shares with the tests
    cli        : command-line entry points
"""

from .combinat import binom, rank_subset, subsets, unrank_subset
from .fock import (
    FermionState,
    basis_state,
    expectation_rdm,
    random_state,
    rdm_matrix,
    slater_superposition,
)
from .channel import (
    ChannelSpec,
    DiagonalOperator,
    apply_channel_diagonal,
    inverse_channel_on_projector,
    structure_factor,
    symmetrized_difference,
)
from .shadows import (
    Reducer,
    aggregate,
    avg_shadow_norm_sq,
    batch_estimate_matrices,
    collect_shadow_arrays,
    estimation_matrix,
    fast_estimate_rdm,
    q_value,
    variance_bound,
)

__all__ = [
    "binom",
    "rank_subset",
    "subsets",
    "unrank_subset",
    "FermionState",
    "basis_state",
    "expectation_rdm",
    "random_state",
    "rdm_matrix",
    "slater_superposition",
    "ChannelSpec",
    "DiagonalOperator",
    "apply_channel_diagonal",
    "inverse_channel_on_projector",
    "structure_factor",
    "symmetrized_difference",
    "Reducer",
    "aggregate",
    "avg_shadow_norm_sq",
    "batch_estimate_matrices",
    "collect_shadow_arrays",
    "estimation_matrix",
    "q_value",
    "variance_bound",
    "fast_estimate_rdm",
]

__version__ = "0.1.0"
