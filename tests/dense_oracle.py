"""Compound-matrix route to the dense estimate matrices, kept as a test oracle.

Each shadow's rotation is reordered so the readout modes come first
(u_eff), and its estimate matrix is the transpose of B^H E B, with B the
k-th compound of u_eff and E the diagonal estimation operator.  The
shipped estimator (shadows.batch_estimate_matrices, projector form) must
agree with it.
"""

import numpy as np

from fermishadow.channel import overlap_class_array
from fermishadow.linalg import compound_batch
from fermishadow.shadows import estimation_matrix


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
