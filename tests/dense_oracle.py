"""Dense routes to the whole (N, C(n,k), C(n,k)) estimate matrices, kept as test oracles.

Compound route: each shadow's whole rotation is reordered so the readout
modes come first (u_eff), and its estimate matrix is the transpose of
B^H E B, with B the k-th compound of u_eff and E the diagonal estimation
operator.  The collector keeps only the readout rows, so a test that needs
the whole rotation draws it again from the stream of the shadow's 64-shot
block (shadow_rng, the block's uniforms, linalg.haar_network).  The compound also rotates
states for the tests of linalg.givens_rotate and fock.

Dense projector route (batch_estimate_matrices): every C(n,k) x C(n,k)
minor of M(x) = I + (x - 1) Pi, Pi = W^H W from the readout rows W, for
the whole matrix at once.  It is the
route that shadows.fast_estimate_rdm's deduplicated k x k blocks replaced;
the shipped kernel must agree with both routes.

Contents
--------
    readout_rows               : the snapshots (N, eta, n) of whole rotations
    minor_det                  : determinant of a row/column submatrix
    minors_batch               : dets of many submatrices of a stack of matrices
    compound_batch             : k-th multiplicative compounds of a stack
    estimation_diagonal        : the estimation operator over all k-subsets
    compound_estimate_matrices : the dense estimates by the compound route
    batch_estimate_matrices    : the dense estimates by the projector route
"""

import numpy as np

from fermishadow.channel import overlap_class_array
from fermishadow.linalg import _det_stack, subset_index_array
from fermishadow.shadows import _CHUNK, _dft_points, check_shadows, estimation_matrix


def readout_rows(us, zs) -> np.ndarray:
    """ws (N, eta, n): rows zs[i] (1-based) of each rotation us[i] (N, n, n)."""
    us = np.asarray(us)
    return us[np.arange(len(us))[:, None], np.asarray(zs, dtype=np.int64) - 1]


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


def minors_batch(x: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
    """Minors of a stack of matrices.

    Parameters
    ----------
    x       : (N, n, m) stack
    row_idx : (R, k) 0-based row subsets
    col_idx : (C, k) 0-based column subsets

    Returns
    -------
    (N, R, C) array with entry [i, a, b] = det x[i][row_idx[a]][:, col_idx[b]].
    """
    x = np.asarray(x)
    row_idx = np.asarray(row_idx, dtype=np.int64)
    col_idx = np.asarray(col_idx, dtype=np.int64)
    n_stack = x.shape[0]
    nr, k = row_idx.shape
    nc = col_idx.shape[0]
    out = np.empty((n_stack, nr, nc), dtype=np.complex128)
    if k == 0:
        out[:] = 1.0
        return out
    for a in range(nr):
        rows = x[:, row_idx[a], :]                      # (N, k, m)
        sub = rows[:, :, col_idx]                       # (N, k, C, k)
        sub = np.ascontiguousarray(sub.transpose(0, 2, 1, 3))
        out[:, a, :] = _det_stack(sub)
    return out


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


def batch_estimate_matrices(ws: np.ndarray, k: int) -> np.ndarray:
    """Estimate matrices for stacked shadows ws (N, eta, n): (N, C(n,k), C(n,k)).

    Entry [i, rank p, rank q] is shadow i's estimate for the transition
    (p, q), and each slice is exactly hermitian.  Projector form: with
    Pi = U_z^H U_z built from the readout rows U_z = ws[i] and
    M(x) = I + (x - 1) Pi, the estimate is sum_s e'_s [x^s] C_k(M(x))[q, p],
    and the coefficients come from a DFT over the k+1 roots of unity.  x = 1
    gives the identity and M(conj x) = M(x)^H, so each remaining pair of
    roots costs C(n,k)^2 k x k minors.  Raises ValueError for inputs
    check_shadows rejects or for k outside 0..eta.
    """
    ws = check_shadows(ws)
    count, eta, n = ws.shape
    w0, points = _dft_points(n, eta, k)      # ValueError unless 0 <= k <= eta <= n
    idx = subset_index_array(n, k)
    cdim = idx.shape[0]
    diag = np.arange(cdim)
    eye = np.eye(n)
    out = np.empty((count, cdim, cdim), dtype=np.complex128)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        block = np.zeros((hi - lo, cdim, cdim), dtype=np.complex128)
        block[:, diag, diag] = w0
        if points:
            uz = ws[lo:hi]
            proj = np.einsum("iza,izb->iab", uz.conj(), uz)
        for x, w in points:
            # a[i, p, q] = C_k(M)[q, p]
            a = minors_batch((eye + (x - 1.0) * proj).transpose(0, 2, 1), idx, idx)
            # w * a in place; a * w may round differently where numpy fuses multiply-adds
            np.multiply(w, a, out=a)
            block += a
            if x != -1.0:
                # the conjugate root: C_k(M^H)[q, p] = conj(C_k(M)[p, q])
                block += np.conjugate(a, out=a).transpose(0, 2, 1)
        # exact hermiticity, not just up to rounding of the summation order
        half = out[lo:hi]
        np.conjugate(block.transpose(0, 2, 1), out=half)
        half += block
        half *= 0.5
    return out
