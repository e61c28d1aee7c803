"""Dense linear algebra kernels: Haar sampling, stacked small determinants, Givens rotation.

A Haar unitary is the Q of a complex Ginibre matrix's QR with R's diagonal
real and positive (Mezzadri, Notices AMS 54, 592, 2007).  For n <= 5 that Q
comes from classical Gram-Schmidt run twice, in real arithmetic across the
whole stack; from n = 6 on from LAPACK's QR, one matrix at a time, with the
column phases fixed.  Either way a matrix's bits do not depend on the stack.

Contents
--------
    ginibre, unitary_from_ginibre : Haar-distributed unitaries via gauge-fixed QR
    _fold              : sum over axis 0 in a fixed pairwise order
    _det_stack         : determinants of a stack of k x k matrices
    subset_index_array : 0-based mode indices of all k-subsets, colex order
    givens_rotate      : k-particle amplitudes rotated by a stack of unitaries
"""

from functools import lru_cache

import numpy as np

from .combinat import subset_masks, subsets


# ---------------------------------------------------------------- Haar

# largest n orthonormalized by Gram-Schmidt.  It pays O(n^3) numpy element
# operations per matrix and O(n^2) calls per stack, LAPACK one call per
# matrix: on one core Gram-Schmidt took 0.48x LAPACK's time at n = 4, 0.65x at
# n = 5, 0.92x at n = 6 and 1.3x at n = 7 for 2048 matrices, and 0.85x, 1.1x,
# 1.3x, 1.4x for 300.  The split depends on n alone, never on the stack.
_GS_MAX_N = 5


def unitary_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Map a stack (..., n, n) of complex Ginibre matrices to Haar unitaries.

    The Q of g = QR with the gauge fixed so that R has positive real
    diagonal; without the fix the QR gauge biases the distribution.  For
    n <= 5 Q comes from classical Gram-Schmidt run twice (_gram_schmidt),
    whose R diagonal is positive by construction; from n = 6 on from LAPACK's
    QR with each column's phase fixed.  Either way each matrix's bits do not
    depend on the other matrices or on the stack length.
    """
    g = np.asarray(g)
    if g.shape[-1] <= _GS_MAX_N:
        return _gram_schmidt(g)
    return _householder(g)


def _householder(g: np.ndarray) -> np.ndarray:
    """Gauge-fixed Q of g = QR from LAPACK, matrix by matrix."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phase = np.where(mod > 0, d / np.where(mod > 0, mod, 1.0), 1.0)
    return q * phase[..., None, :]


def _fold(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in a fixed pairwise order that depends on a.shape[0] alone.

    Each level adds a[:h] + a[h:2h] and an odd last term to the first, so an
    entry's bits do not depend on the lengths of the other axes.
    """
    while a.shape[0] > 1:
        h = a.shape[0] // 2
        b = a[:h] + a[h:2 * h]
        if a.shape[0] % 2:
            b[0] += a[2 * h]
        a = b
    return a[0]


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Q of g = QR, R with positive real diagonal, by classical Gram-Schmidt run twice.

    Column j loses its components along q_0..q_{j-1} twice, c = Q^H x and
    x -= Q c, and is then scaled to unit norm; the second pass keeps Q
    orthonormal to working precision (Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50, 1069, 2005).  The arithmetic is real, on (column, row,
    stack) arrays, and every sum over rows or columns runs in _fold's fixed
    order, so only elementwise IEEE operations act across the stack.  A
    matrix with a column that keeps at most sqrt(eps) of its norm, nearly
    rank deficient, is passed to _householder instead.
    """
    n = g.shape[-1]
    flat = g.reshape(-1, n, n)
    cols = flat.transpose(2, 1, 0)
    vr = np.array(cols.real, order="C")
    vi = np.array(cols.imag, order="C")
    norms = _fold((vr * vr + vi * vi).swapaxes(0, 1))       # (column, stack)
    kept = np.ones(flat.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            xr, xi, qr, qi = vr[j], vi[j], vr[:j], vi[:j]
            for _ in range(2 if j else 0):
                # c = Q^H x: products (j, row, stack) summed over rows
                p = qr * xr
                p += qi * xi
                cr = _fold(p.swapaxes(0, 1))[:, None]
                p = qr * xi
                p -= qi * xr
                ci = _fold(p.swapaxes(0, 1))[:, None]
                # x -= Q c
                p = qr * cr
                p -= qi * ci
                xr -= _fold(p)
                p = qr * ci
                p += qi * cr
                xi -= _fold(p)
            p = xr * xr
            p += xi * xi
            s = _fold(p)
            kept &= s > np.finfo(float).eps * norms[j]
            r = np.sqrt(s)
            xr /= r
            xi /= r
    out = np.empty(flat.shape, dtype=np.complex128)
    out.real = vr.transpose(2, 1, 0)
    out.imag = vi.transpose(2, 1, 0)
    if not kept.all():
        out[~kept] = _householder(flat[~kept])
    return out.reshape(g.shape)


def _ginibre_from_normals(g: np.ndarray) -> np.ndarray:
    """Complex Ginibre stack (..., n, n) from standard normals (..., n, 2n).

    Row-major draw layout: columns 0..n-1 are the real block and n..2n-1 the
    imaginary block, scaled by 1/sqrt(2).  Elementwise, so a stack gives the
    same bits as one matrix at a time.
    """
    n = g.shape[-1] // 2
    return (g[..., :n] + 1j * g[..., n:]) / np.sqrt(2.0)


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n complex standard Ginibre matrix; one RNG call, fixed draw order."""
    return _ginibre_from_normals(rng.standard_normal((n, 2 * n)))


# ---------------------------------------------------------------- determinants

def _det_stack(a: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes, cheap closed forms for k <= 3."""
    k = a.shape[-1]
    if k == 0:
        return np.ones(a.shape[:-2], dtype=a.dtype)
    if k == 1:
        return a[..., 0, 0]
    if k == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if k == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    return np.linalg.det(a)


@lru_cache(maxsize=None)
def subset_index_array(n: int, k: int) -> np.ndarray:
    """(C(n,k), k) array of 0-based mode indices, colex row order.

    Cached per (n, k), so a chunked run builds it once; the array is read-only.
    """
    if k == 0:
        idx = np.zeros((1, 0), dtype=np.int64)
    else:
        idx = np.array(list(subsets(n, k)), dtype=np.int64) - 1
    idx.setflags(write=False)
    return idx


# ---------------------------------------------------------------- Givens

@lru_cache(maxsize=None)
def _adjacent_pairs(n: int, k: int) -> tuple:
    """Rank tables of the k-subsets of [n] that hold one of the modes m, m+1.

    Entry m (0-based) is (lo, hi): lo[t] is the rank of a subset holding m
    but not m+1, hi[t] the rank of the same subset with m+1 in place of m.
    """
    # colex rank order is ascending bitmask order, so a mask's rank is its
    # position in the sorted mask list
    masks, bits = subset_masks(n, k), subset_masks(n, 1)
    out = []
    for m in range(n - 1):
        both = bits[m] | bits[m + 1]
        lo = np.flatnonzero((masks & both) == bits[m])
        hi = np.searchsorted(masks, masks[lo] ^ both)
        lo.setflags(write=False)
        hi.setflags(write=False)
        out.append((lo, hi))
    return tuple(out)


def givens_rotate(u: np.ndarray, amps: np.ndarray, k: int) -> np.ndarray:
    """k-particle amplitudes rotated by each unitary of a stack.

    u is (N, n, n) and amps is (C(n,k),); returns (N, C(n,k)), equal to
    the k-th compound of u (its k x k minors) times amps, at O(n^2 C(n,k))
    per matrix instead of O(C(n,k)^2 k^3).  Adjacent-row Givens rotations reduce each u to a
    diagonal, G_K ... G_1 u = D, so the compound of u = G_1^dag ... G_K^dag D
    is the product of the factors' compounds.  D multiplies each amplitude by
    the phases of the subset's modes.  G^dag on modes (m, m+1) mixes each
    amplitude pair (S+m, S+m+1) by its 2x2 block: adjacent modes carry no
    fermionic sign, and subsets holding both modes pick up det G^dag = 1.
    Only elementwise operations act across the stack, so each row of the
    result does not depend on the other matrices.  Its last bits may depend
    on the stack size: numpy's broadcast complex products can take other
    loops for other lengths: with numpy 2.4.6 on an AVX-512 Xeon, rows of a
    7-matrix stack differed from one-matrix stacks by up to 2.2e-16.
    """
    u = np.asarray(u)
    amps = np.asarray(amps, dtype=np.complex128)
    count, n = u.shape[0], u.shape[-1]
    idx = subset_index_array(n, k)
    if u.shape != (count, n, n) or amps.shape != (idx.shape[0],):
        raise ValueError(f"need (N, n, n) unitaries and C(n, {k}) amplitudes, "
                         f"got {u.shape} and {amps.shape}")
    # stack axis last, so every slice below is contiguous over the stack
    w = np.array(np.moveaxis(u, 0, -1), dtype=np.complex128, order="C")
    steps = []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            # G = [[conj(c), conj(s)], [-s, c]] on rows (i-1, i) zeroes w[i, j]
            x, y = w[i - 1, j], w[i, j]
            r = np.hypot(np.abs(x), np.abs(y))
            nonzero = r > 0
            safe = np.where(nonzero, r, 1.0)
            c = np.where(nonzero, x / safe, 1.0)      # r = 0: the identity
            s = y / safe
            top, bot = w[i - 1, j + 1:], w[i, j + 1:]
            new_top = c.conj() * top + s.conj() * bot
            w[i, j + 1:] = c * bot - s * top
            w[i - 1, j + 1:] = new_top
            w[i - 1, j] = r
            steps.append((i - 1, c, s))
    d = np.diagonal(w).T                              # (n, N)
    out = np.repeat(amps[:, None], count, axis=1)    # (C, N)
    for t in range(k):
        out *= d[idx[:, t]]
    pairs = _adjacent_pairs(n, k)
    for m, c, s in reversed(steps):
        # G^dag = [[c, -conj(s)], [s, conj(c)]]
        lo, hi = pairs[m]
        x, y = out[lo], out[hi]
        out[lo] = c * x - s.conj() * y
        out[hi] = s * x + c.conj() * y
    return np.ascontiguousarray(out.T)

