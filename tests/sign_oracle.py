"""The sign rule on occupation bitmasks, kept as a test oracle.

The package encodes subsets only as colex index tables, and fock.rdm_matrix
applies the sign rule to their positions.  Here a ket is the Python-int
bitmask with bit m-1 set for mode m, of any width, and each mode operator
is applied one at a time: apply_string counts the occupied modes below the
mode it acts on.  rdm_matrix_reference is the k-RDM loop that
fock.rdm_matrix replaced, one operator string per (q, occupied ket); the
two must agree bit for bit.

Contents
--------
    apply_string         : annihilator/creator string on one bitmask, with sign
    rdm_matrix_reference : all k-body expectations, one bitmask string at a time
"""

import numpy as np

from fermishadow.combinat import binom, subset_index_array, subsets


def apply_string(mask: int, annihilate=(), create=()):
    """Act on the occupation ket `mask` with a string of mode operators.

    Annihilators act first in ascending mode order, then creators in
    descending order, so apply_string(mask, q, p) applies the transition
    operator for the sorted subsets (p, q).  Each operator on mode m picks up
    (-1)^(occupied modes below m).  Works on Python ints of any width.
    Returns (mask, sign), or (None, 0) if the string kills the ket.
    """
    parity = 0
    steps = [(m, True) for m in sorted(annihilate)]
    steps += [(m, False) for m in sorted(create, reverse=True)]
    for mode, occupied in steps:
        bit = 1 << (mode - 1)
        if bool(mask & bit) != occupied:
            return None, 0
        mask ^= bit
        parity += (mask & (bit - 1)).bit_count()
    return mask, -1 if parity & 1 else 1


def _mask_ranks(n: int, d: int) -> dict:
    """{mask: colex rank} of the d-subsets of [n]."""
    return {sum(1 << m for m in row): r
            for r, row in enumerate(subset_index_array(n, d).tolist())}


def rdm_matrix_reference(state, k: int) -> np.ndarray:
    """fock.rdm_matrix by the bitmask loop: A^dag A, column q of A = a_q |state>."""
    ranks = _mask_ranks(state.n, state.eta)
    ranks_out = _mask_ranks(state.n, state.eta - k)
    a = np.zeros((len(ranks_out), binom(state.n, k)), dtype=np.complex128)
    for c, q in enumerate(subsets(state.n, k)):
        for mask, r in ranks.items():
            m, sign = apply_string(mask, q)
            if m is not None:
                a[ranks_out[m], c] = sign * state.amps[r]
    return a.conj().T @ a
