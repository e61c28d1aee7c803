"""Compound-matrix route to the dense estimate matrices, kept as a test oracle.

Each shadow's rotation is reordered so the readout modes come first
(u_eff), and its estimate matrix is the transpose of B^H E B, with B the
k-th compound of u_eff and E the diagonal estimation operator.  The
shipped estimator (shadows.batch_estimate_matrices, projector form) must
agree with it, and the compound also rotates states for the tests of
linalg.givens_rotate and fock.

Contents
--------
    minor_det                  : determinant of a row/column submatrix
    compound_batch             : k-th multiplicative compounds of a stack
    estimation_diagonal        : the estimation operator over all k-subsets
    compound_estimate_matrices : the dense estimates by the compound route
"""

import numpy as np

from fermishadow.channel import overlap_class_array
from fermishadow.linalg import minors_batch, subset_index_array
from fermishadow.shadows import estimation_matrix


def minor_det(u: np.ndarray, rows, cols) -> complex:
    """det of the submatrix of u on the given 1-based rows and columns.

    Raises ValueError unless rows and cols have the same shape.
    """
    ridx = np.asarray(rows, dtype=np.int64) - 1
    cidx = np.asarray(cols, dtype=np.int64) - 1
    if ridx.shape != cidx.shape:
        raise ValueError(f"need as many rows as columns, got {ridx.shape} and {cidx.shape}")
    if ridx.size == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(u[np.ix_(ridx, cidx)]))


def compound_batch(u: np.ndarray, k: int) -> np.ndarray:
    """k-th compounds of a stack (N, n, n) -> (N, C(n,k), C(n,k)).

    Entry [i, r, c] is the det of u[i] on the k-subsets of colex ranks r
    (rows) and c (columns).  The compound of a product is the product of
    compounds, so this is the k-particle action of each u[i].
    """
    n = u.shape[-1]
    idx = subset_index_array(n, k)
    return minors_batch(np.asarray(u, dtype=np.complex128), idx, idx)


def estimation_diagonal(n: int, eta: int, k: int) -> np.ndarray:
    """The estimation operator's float diagonal over all k-subsets of [n], colex
    order, in the frame where the readout holds modes 1..eta."""
    cls = np.array([float(v) for v in estimation_matrix(n, eta, k)])
    return cls[overlap_class_array(n, k, eta)]


def compound_estimate_matrices(us, zs, eta: int, k: int) -> np.ndarray:
    """(N, C(n,k), C(n,k)) estimates; entry [i, rank p, rank q] is D^p_q of shadow i."""
    us = np.asarray(us)
    zs = np.asarray(zs)
    count, n = us.shape[0], us.shape[-1]
    e = estimation_diagonal(n, eta, k)
    mask = np.zeros((count, n), dtype=bool)
    mask[np.arange(count)[:, None], zs - 1] = True
    order = np.argsort(~mask, axis=1, kind="stable")
    ueff = us[np.arange(count)[:, None], order, :]
    b = compound_batch(ueff, k)
    block = np.einsum("nrq,r,nrp->npq", b.conj(), e, b)
    return (block + block.conj().transpose(0, 2, 1)) * 0.5
