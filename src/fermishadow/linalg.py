"""Dense linear algebra kernels: Haar rotations as Givens networks, stacked small determinants.

A Haar unitary on n modes is drawn as its network of adjacent-mode Givens
rotations, u = G_1^dag ... G_K^dag D with K = n(n-1)/2 steps and D
diagonal, whose parameters have a known exact law (the Hurwitz
parametrization; Zyczkowski and Kus, J. Phys. A 27, 4235, 1994).  No n x n
matrix is drawn or orthonormalized: haar_network maps n^2 uniforms to the
network, givens_rotate applies it to k-particle amplitudes, and
network_rows forms the rows of u that a readout picks, in real arithmetic,
each Givens step one stacked 2 x 2 update of every row and shot at once.

Contents
--------
    haar_network       : Givens networks of Haar unitaries from uniforms
    givens_rotate      : k-particle amplitudes rotated by a stack of networks
    network_rows       : chosen rows of each network's unitary
    _fold              : sum over axis 0 in a fixed pairwise order
    _det_stack         : determinants of a stack of k x k matrices
"""

from functools import lru_cache
from math import isqrt

import numpy as np

from .combinat import binom, subset_index_array


# ---------------------------------------------------------------- sums and determinants

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


# ---------------------------------------------------------------- Givens

@lru_cache(maxsize=None)
def _steps(n: int) -> tuple:
    """(modes, ranks, bottom): the K = n(n-1)/2 steps of an n-mode network, in order.

    Step (j, i), for column j = 0..n-2 and, within it, row i = n-1 down to
    j+1, rotates modes (i-1, i): modes[t] = i-1 (0-based) and ranks[t] =
    n-i, shaped (K, 1).  bottom lists the steps with i = n-1, the first of
    each column.  Read-only arrays, cached per n.
    """
    steps = [(j, i) for j in range(n - 1) for i in range(n - 1, j, -1)]
    modes = np.array([i - 1 for _, i in steps], dtype=np.int64)
    ranks = np.array([[n - i] for _, i in steps], dtype=float).reshape(-1, 1)
    bottom = np.flatnonzero([i == n - 1 for _, i in steps])
    for a in (modes, ranks, bottom):
        a.setflags(write=False)
    return modes, ranks, bottom


def haar_network(x: np.ndarray) -> tuple:
    """Givens networks (c, s, d) of Haar unitaries from uniforms x (N, n^2) in [0, 1).

    Shot i's unitary is u = G_1^dag ... G_K^dag D, G_t^dag the 2 x 2 block
    [[c_t, -conj(s_t)], [s_t, conj(c_t)]] on the modes (m, m+1) of step t of
    _steps(n), and D = diag(d).  With K = n(n-1)/2 and the row x[i] read as
        x[i, :K]            |s_t|^2 = x^(1/(n-i)), a Beta(n-i, 1) draw;
                            |c_t| = sqrt(1 - |s_t|^2), taken with expm1
        x[i, K:2K]          the phase exp(2 pi i x) of c_t
        x[i, 2K:2K+n-1]     the phase of s at each column's bottom step
                            (i = n-1); s is real and >= 0 at the others
        x[i, n^2-1]         the phase of d on mode n-1; d is 1 on the others
    u is Haar.  Reducing a Haar u column by column gives these laws: column
    j, below the rows already reduced, is uniform on the unit sphere of
    C^(n-j), so its squared moduli are a flat Dirichlet draw and its phases
    independent and uniform.  Step i keeps the tail |v_i|^2 + ... +
    |v_{n-1}|^2, and |s|^2, the ratio of that tail to the next, is
    Beta(n-i, 1) by stick breaking, independently across steps; c carries
    v_{i-1}'s phase, s the phase of v_{n-1} at the bottom step and none above
    it.  The rest of u is Haar on n-j-1 modes whatever column j is, and its
    last 1 x 1 block is D's phase.  Returns c and s (K, N) and d (n, N),
    complex.  Only elementwise operations act across the stack, so shot i's
    network does not depend on the other shots.  Raises ValueError unless x
    is (N, n^2) with n >= 1.
    """
    x = np.asarray(x)
    n = isqrt(x.shape[-1]) if x.ndim == 2 else 0
    if n < 1 or n * n != x.shape[-1]:
        raise ValueError(f"need uniforms (N, n^2) with n >= 1, got shape {x.shape}")
    _, ranks, bottom = _steps(n)
    big = len(ranks)
    # draw kind first, shots last: every slice below is contiguous
    xt = np.ascontiguousarray(x.T)
    with np.errstate(divide="ignore"):
        lg = np.log(xt[:big]) / ranks                   # log |s|^2
    # e^(2 pi i x) = (1 - t^2 + 2it) / (1 + t^2) with t = tan(pi x): one
    # transcendental call where cos and sin would take two, each slower
    t = np.tan(np.pi * xt[big:])
    t2 = t * t
    den = 1.0 + t2
    cos, sin = (1.0 - t2) / den, (t + t) / den
    c = np.empty((big, len(x)), dtype=np.complex128)
    mod = np.sqrt(-np.expm1(lg))
    c.real, c.imag = mod * cos[:big], mod * sin[:big]
    s = np.zeros_like(c)
    s.real = mod = np.exp(0.5 * lg)
    s.real[bottom] = mod[bottom] * cos[big:-1]
    s.imag[bottom] = mod[bottom] * sin[big:-1]
    d = np.ones((n, len(x)), dtype=np.complex128)
    d.real[-1], d.imag[-1] = cos[-1], sin[-1]
    return c, s, d


@lru_cache(maxsize=None)
def _adjacent_pairs(n: int, k: int) -> tuple:
    """Rank tables of the k-subsets of [n] that hold one of the modes m, m+1.

    Entry m (0-based) is (lo, hi): lo[t] is the rank of a subset holding m
    but not m+1, hi[t] the rank of the same subset with m+1 in place of m.
    Ranks come from colex arithmetic on subset_index_array, so any n works.
    The pairs are grouped by m with a counting sort: numpy's stable sort of
    8- and 16-bit keys is a radix sort, linear in the number of pairs.
    """
    idx = subset_index_array(n, k)
    # mode m at position j moves up to m+1 unless m+1 is past the last mode
    # or the next one in the subset; the move adds
    # C(m+1, j+1) - C(m, j+1) = C(m, j) to the colex rank
    free = idx < n - 1
    free[:, :-1] &= idx[:, 1:] != idx[:, :-1] + 1
    lo, pos = np.nonzero(free)
    mode = idx[lo, pos]
    # only j <= m <= n-k+j occur, and each such C(m, j) is below C(n, k)
    step = np.array([[binom(m, j) if m <= n - k + j else 0 for j in range(k)]
                     for m in range(n)], dtype=np.int64).reshape(n, k)
    hi = lo + step[mode, pos]
    # group by m; the stable sort keeps lo ascending within each group
    order = np.argsort(mode.astype(np.min_scalar_type(n)), kind="stable")
    lo, hi = lo[order], hi[order]
    lo.setflags(write=False)
    hi.setflags(write=False)
    edges = np.concatenate(([0], np.cumsum(np.bincount(mode, minlength=n))))
    return tuple((lo[a:b], hi[a:b]) for a, b in zip(edges[:n - 1], edges[1:n]))


def _check_network(network) -> tuple:
    """(c, s, d, n, N) of a network, checked to be c, s (K, N) and d (n, N)."""
    c, s, d = (np.asarray(a) for a in network)
    n, count = d.shape if d.ndim == 2 else (0, 0)
    if d.ndim != 2 or c.shape != s.shape or c.shape != (n * (n - 1) // 2, count):
        raise ValueError(f"need a network c, s (n(n-1)/2, N) and d (n, N), "
                         f"got {c.shape}, {s.shape} and {d.shape}")
    return c, s, d, n, count


def givens_rotate(network, amps: np.ndarray, k: int) -> np.ndarray:
    """k-particle amplitudes rotated by each unitary of a stack of networks.

    network is (c, s, d) as haar_network returns it and amps is (C(n,k),);
    returns (N, C(n,k)), equal to the k-th compound of each u (its k x k
    minors) times amps, at O(n^2 C(n,k)) per shot instead of
    O(C(n,k)^2 k^3).  The compound of u = G_1^dag ... G_K^dag D is the
    product of the factors' compounds.  D multiplies each amplitude by the
    phases of the subset's modes.  G^dag on modes (m, m+1) mixes each
    amplitude pair (S+m, S+m+1) by its 2x2 block: adjacent modes carry no
    fermionic sign, and subsets holding both modes pick up det G^dag = 1.
    Only elementwise operations act across the stack, so each row of the
    result does not depend on the other shots.  Its last bits may depend on
    the stack size: numpy's broadcast complex products can take other loops
    for other lengths: with numpy 2.4.6 on an AVX-512 Xeon, rows of a
    7-shot stack differed from one-shot stacks by up to 2.3e-16.
    Raises ValueError for a malformed network or C(n,k) != len(amps).
    """
    c, s, d, n, count = _check_network(network)
    amps = np.asarray(amps, dtype=np.complex128)
    idx = subset_index_array(n, k)
    if amps.shape != (idx.shape[0],):
        raise ValueError(f"need C({n}, {k}) = {idx.shape[0]} amplitudes, got {amps.shape}")
    out = np.repeat(amps[:, None], count, axis=1)    # (C, N)
    for t in range(k):
        out *= d[idx[:, t]]
    pairs, modes = _adjacent_pairs(n, k), _steps(n)[0]
    for t in reversed(range(len(c))):
        lo, hi = pairs[modes[t]]
        x, y = out[lo], out[hi]
        out[lo] = c[t] * x - s[t].conj() * y
        out[hi] = s[t] * x + c[t].conj() * y
    return np.ascontiguousarray(out.T)


def network_rows(network, rows) -> np.ndarray:
    """Chosen rows of each network's unitary: out[i, r] = u_i[rows[i, r]], (N, m, n).

    rows is (N, m) of 0-based modes; all n modes in order give the whole u.
    Each row e^T is carried through e^T G_1^dag ... G_K^dag D in real
    arithmetic, every entry by the same IEEE operations in the same order,
    so a row's bits follow from its shot's network alone: they do not
    depend on the stack, as complex products broadcast across it might.
    The rows live in one real array z (n, 2, m, N), by mode, re/im, row and
    shot.  The step on modes (j, j+1) reads v = z[j:j+2] = [[xr, xi], [yr,
    yi]] and its views flipped in mode and swapped in re/im; four stacked
    products and four stacked sums, into two work buffers made once per
    call, give (x, y) G^dag = (x c + y s, y conj(c) - x conj(s)).
    Raises ValueError for a malformed network, or rows not (N, m) integer
    modes in 0..n-1.
    """
    c, s, d, n, count = _check_network(network)
    rows = np.asarray(rows)
    if rows.ndim != 2 or len(rows) != count:
        raise ValueError(f"need rows (N, m) for N = {count} shots, got shape {rows.shape}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"need rows of integer modes, got dtype {rows.dtype}")
    if rows.size and not (rows.min() >= 0 and rows.max() < n):
        raise ValueError(f"need rows in 0..{n - 1}, got modes {rows.min()}..{rows.max()}")
    m = rows.shape[1]
    z = np.zeros((n, 2, m, count))
    z[:, 0] = rows.T[None] == np.arange(n)[:, None, None]
    cr, ci, sr, si = (np.ascontiguousarray(a) for a in (c.real, c.imag, s.real, s.imag))
    # slot 0 of p and q builds x', slot 1 y'.  p[0] = v cr and q[0] =
    # swap(v) ci make the c terms, p[1] = flip(v) sr and q[1] =
    # swap(flip(v)) si the s terms.  A term is p - q in its real part at
    # slot 0 and its imaginary part at slot 1 (every third entry of a
    # (2, 2) block), p + q in the other two; then x' = c + s, y' = c - s
    p, q = np.empty((2, 2, 2, 2, m, count))
    pf, qf = p.reshape(2, 4, m, count), q.reshape(2, 4, m, count)
    pd, qd, pa, qa = pf[:, ::3], qf[:, ::3], pf[:, 1:3], qf[:, 1:3]
    for t, j in enumerate(_steps(n)[0]):
        v = z[j:j + 2]
        f = v[::-1]
        np.multiply(v, cr[t], out=p[0])
        np.multiply(f, sr[t], out=p[1])
        np.multiply(v[:, ::-1], ci[t], out=q[0])
        np.multiply(f[:, ::-1], si[t], out=q[1])
        np.subtract(pd, qd, out=pd)
        np.add(pa, qa, out=pa)
        np.add(p[0, 0], p[1, 0], out=v[0])
        np.subtract(p[0, 1], p[1, 1], out=v[1])
    re, im = z[:, 0], z[:, 1]
    dr, di = d.real[:, None], d.imag[:, None]
    out = np.empty((count, m, n), dtype=np.complex128)
    out.real = (re * dr - im * di).transpose(2, 1, 0)
    out.imag = (re * di + im * dr).transpose(2, 1, 0)
    return out
