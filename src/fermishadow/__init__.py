"""Randomized measurements for fixed-particle-number fermionic states.

Sample occupation readouts after Haar mode rotations, invert the
measurement channel in closed form, and estimate any k-body transition
amplitudes of an eta-particle state, each from the k x k blocks of the
readout projector that it names.  A snapshot is the eta x n matrix of the
readout rows of its rotation, and one kernel, fast_estimate_rdm, reads
only those: it evaluates every distinct block of a target table once, from
one O(k^2 eta + k^4) per-shot block for a single entry up to all C(n,k)^2
entries at once.  A batch of snapshots is the stacked (ws, zs) arrays that
collect_shadow_arrays returns, and that is the only form they take: save
the arrays, or regenerate them from the batch's seed and start index.

Modules
-------
    combinat   : the integer rule, subsets as colex index tables and ranks, binomials
    linalg     : Haar rotations as Givens networks, stacked determinants
    fock       : dense eta-particle states, the sign rule, exact k-RDMs, JSON form
    channel    : exact algebra of the measurement channel
    shadows    : the protocol on stacked (ws, zs) arrays, ws the readout rows
                 that are a snapshot, the block estimator, variance bookkeeping
    identities : brute-vs-closed sums and the checks validate shares with the tests
    cli        : command-line entry points
"""

from .combinat import binom, rank_rows, subsets
from .fock import (
    FermionState,
    basis_state,
    random_state,
    rdm_matrix,
    slater_superposition,
)
from .channel import (
    DiagonalOperator,
    apply_channel_diagonal,
    structure_factor,
    symmetrized_difference,
)
from .shadows import (
    Reducer,
    avg_shadow_norm_sq,
    collect_shadow_arrays,
    estimation_matrix,
    fast_estimate_rdm,
    q_value,
    variance_bound,
)

__all__ = [
    "binom",
    "rank_rows",
    "subsets",
    "FermionState",
    "basis_state",
    "random_state",
    "rdm_matrix",
    "slater_superposition",
    "DiagonalOperator",
    "apply_channel_diagonal",
    "structure_factor",
    "symmetrized_difference",
    "Reducer",
    "avg_shadow_norm_sq",
    "collect_shadow_arrays",
    "estimation_matrix",
    "q_value",
    "variance_bound",
    "fast_estimate_rdm",
]

__version__ = "0.1.0"
