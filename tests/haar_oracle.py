"""Haar unitaries and Givens networks by the routes the shipped sampler replaced, kept as test oracles.

The package draws each Haar rotation as its Givens network
(linalg.haar_network) and never forms an n x n matrix to sample it.  The
routes here go the long way round:

- qr_haar: the Q of a complex Ginibre matrix's QR with R's diagonal real and
  positive (Mezzadri, Notices AMS 54, 592, 2007), from LAPACK;
- givens_network: the reduction of any unitary stack to the network that
  linalg.givens_rotate and linalg.network_rows apply;
- network_unitary: the whole u of a network as a dense product of embedded
  2 x 2 blocks;
- network_rows_reference: the readout rows by the row builder that
  linalg.network_rows replaced, one (m, N) slab per real part and step.

Contents
--------
    ginibre          : n x n complex Ginibre matrix, one RNG call
    qr_haar          : gauge-fixed LAPACK Q of a Ginibre stack
    haar             : one Haar unitary, qr_haar of ginibre
    givens_network   : (c, s, d) network of a unitary stack by Givens reduction
    network_unitary  : dense u = G_1^dag ... G_K^dag D of a network
    network_rows_reference : chosen rows of each network's u, slab by slab
    whole            : every row of each network's u, by the shipped row builder
    apply_rotation   : a state rotated mode by mode by one unitary
"""

import numpy as np

from fermishadow.fock import FermionState
from fermishadow.linalg import givens_rotate, network_rows


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """n x n complex standard Ginibre matrix from rng.standard_normal((n, 2n)).

    Columns 0..n-1 of the draw are the real block and n..2n-1 the imaginary
    block, scaled by 1/sqrt(2).
    """
    g = rng.standard_normal((n, 2 * n))
    return (g[:, :n] + 1j * g[:, n:]) / np.sqrt(2.0)


def qr_haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., n, n) from a Ginibre stack: LAPACK's Q, each column times R's diagonal phase."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """One n x n Haar unitary by the QR route."""
    return qr_haar(ginibre(n, rng))


def givens_network(u: np.ndarray) -> tuple:
    """(c, s, d) with u = G_1^dag ... G_K^dag diag(d) for each unitary of a stack (N, n, n).

    Adjacent-row Givens rotations reduce each u to a diagonal, G_K ... G_1 u
    = D, in linalg's step order: column j = 0..n-2, row i = n-1 down to j+1,
    G = [[conj(c), conj(s)], [-s, c]] on rows (i-1, i) zeroing entry (i, j).
    An entry pair that is already zero gets the identity.  Returns c, s
    (K, N) and d (n, N), as linalg.haar_network does.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    # stack axis last, so every slice below is contiguous over the stack
    w = np.array(np.moveaxis(u, 0, -1), dtype=np.complex128, order="C")
    cs, ss = [], []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
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
            cs.append(c)
            ss.append(s)
    count = u.shape[0]
    shape = (len(cs), count)
    c = np.array(cs, dtype=np.complex128).reshape(shape)
    s = np.array(ss, dtype=np.complex128).reshape(shape)
    return c, s, np.array(np.diagonal(w).T)


def network_unitary(network) -> np.ndarray:
    """Dense u (N, n, n) of a network: the product G_1^dag ... G_K^dag D of embedded 2 x 2 blocks."""
    c, s, d = (np.asarray(a) for a in network)
    n, count = d.shape
    modes = [i - 1 for j in range(n - 1) for i in range(n - 1, j, -1)]
    u = np.broadcast_to(np.eye(n, dtype=np.complex128), (count, n, n)).copy()
    for t, m in enumerate(modes):
        g = np.broadcast_to(np.eye(n, dtype=np.complex128), (count, n, n)).copy()
        g[:, m, m], g[:, m, m + 1] = c[t], -s[t].conj()
        g[:, m + 1, m], g[:, m + 1, m + 1] = s[t], c[t].conj()
        u = u @ g
    return u * d.T[:, None, :]


def network_rows_reference(network, rows) -> np.ndarray:
    """linalg.network_rows by four (m, N) slabs, re and im of the two modes, per step.

    Each entry takes the same IEEE products, sums and differences as in the
    shipped kernel's stacked update; only the two sums of x's imaginary
    part add their terms in the other order, which IEEE addition does not
    see.  So the two agree bit for bit, signed zeros included.
    """
    c, s, d = (np.asarray(a) for a in network)
    n, count = d.shape
    rows = np.asarray(rows)
    modes = [i - 1 for j in range(n - 1) for i in range(n - 1, j, -1)]
    # (mode, row, shot): each mode's entries one contiguous (m, N) slab
    re = (rows.T[None] == np.arange(n)[:, None, None]).astype(float)
    im = np.zeros_like(re)
    cr, ci, sr, si = (np.ascontiguousarray(a) for a in (c.real, c.imag, s.real, s.imag))
    for t, m in enumerate(modes):
        xr, xi, yr, yi = re[m], im[m], re[m + 1], im[m + 1]
        # (x, y) G^dag = (x c + y s, y conj(c) - x conj(s))
        re[m], im[m], re[m + 1], im[m + 1] = (
            (xr * cr[t] - xi * ci[t]) + (yr * sr[t] - yi * si[t]),
            (xr * ci[t] + xi * cr[t]) + (yr * si[t] + yi * sr[t]),
            (yr * cr[t] + yi * ci[t]) - (xr * sr[t] + xi * si[t]),
            (yi * cr[t] - yr * ci[t]) - (xi * sr[t] - xr * si[t]))
    dr, di = d.real[:, None], d.imag[:, None]
    out = np.empty((count, rows.shape[1], n), dtype=np.complex128)
    out.real = (re * dr - im * di).transpose(2, 1, 0)
    out.imag = (re * di + im * dr).transpose(2, 1, 0)
    return out


def whole(network) -> np.ndarray:
    """The whole unitaries (N, n, n) of a stack of networks: linalg.network_rows of all n modes."""
    n, count = np.shape(network[2])
    return network_rows(network, np.broadcast_to(np.arange(n), (count, n)))


def apply_rotation(state: FermionState, u: np.ndarray) -> FermionState:
    """Rotate every mode by the single-particle unitary u; ValueError unless u is n x n."""
    if np.shape(u) != (state.n, state.n):
        raise ValueError(f"need a {state.n} x {state.n} rotation, got shape {np.shape(u)}")
    return FermionState(state.n, state.eta, givens_rotate(givens_network(u[None]), state.amps, state.eta)[0])
