"""Randomized-measurement protocol: sampling, estimation, variance bookkeeping.

One round draws a Haar unitary u as its network of adjacent-mode Givens
rotations (linalg.haar_network), rotates the eta-particle state through
that network (linalg.givens_rotate), and reads out an occupation subset z.
The estimator for a k-body transition (p, q) is a fixed diagonal
estimation operator, with exact class values e'_s, carried to the
shadow's frame.  It is evaluated in
projector form: with U_z the eta readout rows of u, Pi = U_z^H U_z and
M(x) = I + (x - 1) Pi, the estimate is sum_s e'_s [x^s] C_k(M(x))[q, p],
C_k the k-th compound.  A DFT over the k+1 roots of unity extracts the
coefficients.  An entry (p, q) needs only the k x k blocks M(x)[q, p] and
M(x)[p, q], with Pi[q, p] = U_z[:, q]^H U_z[:, p], and no other entry
but (q, p) reads them.  So fast_estimate_rdm, the one estimator, evaluates
a target table per column, a distinct unordered pair {p, q}: it sums the
roots once per block of a column, D = sum_x w det M(x)[block] (gathered
from the whole Pi for large tables, formed from the readout rows for
small ones), and a column is w_0 [p = q] + D[q, p] + conj(D[p, q]), its
swapped target the exact conjugate.  A table's work (checks, the one sort
into columns, block source) is _block_plan's, done once: a run builds
each table's plan once and applies it to every chunk of shots.

A batch of shadows is the stacked pair ws (N, eta, n), zs (N, eta), the one
form a shadow takes here: shadow i is the snapshot ws[i] = U_z, the eta rows
of its Haar rotation u that the 1-based sorted readout zs[i] picks, and the
estimator reads ws alone.  To keep a batch, save the two arrays or
regenerate them from their streams.
Randomness is counter-based: shadow i of a run seeded with s reads numbers
i w .. (i+1) w - 1, w = n^2 + 1, of the Philox stream keyed (s, 0): its
network's n^2 uniforms, then its Born uniform.  So any chunking or start
index gives bit-identical readout rows (linalg.network_rows), and readouts
that differ only where a uniform lies within rounding of a cumulative Born
probability (see linalg.givens_rotate); regenerating one shadow draws only
its own w numbers.  The collector jumps to the first shot with the stream's
advance and raises ValueError before any draw unless the seed, count and
start index pass _is_uint64 (combinat.is_int, in 0..2^64-1),
start_index + count <= 2^64-1 (the key (s, 2^64-1) prepares the input
state) and n >= 1.

Contents
--------
    shadow_rng                 : the Philox generator keyed (seed, index)
    collect_shadow_arrays      : batched (ws, zs) collection
    estimation_entry           : overlap-class value of the estimation operator
    estimation_matrix          : exact class values of the estimation operator
    trace_e_squared            : exact Tr of its square
    check_shadows              : input checks on a batch of shadows
    all_pairs                  : the table of all C(n,k)^2 transitions
    fast_estimate_rdm          : transitions' estimates from deduplicated k x k blocks
    check_fast_vs_dense        : two estimate tables agree, 1e-8 relative per entry
    Reducer                    : mean / median-of-means over shots fed chunk by chunk
    avg_shadow_norm_sq, q_value, variance_bound : exact variance quantities
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .combinat import (binom, check_sizes, check_subsets, falling, int_table, is_int,
                       subset_index_array)
from .fock import _NORM_SQ_TOL, FermionState
from .linalg import _det_stack, _fold, givens_rotate, haar_network, network_rows


# shots per pass of collect_shadow_arrays and of the CLI's
# collect -> estimate -> reduce loop; a memory setting that never changes a draw
_CHUNK = 2048

# numbers per array of a fast_estimate_rdm tile of blocks or targets
_TILE = 2**15

# index of the state-preparation stream (s, 2^64-1); shadows stop one below
_STATE_INDEX = 2**64 - 1


def _is_uint64(x) -> bool:
    """Does x pass is_int within 0..2^64-1: the rule for seeds, counts and indices?"""
    return is_int(x) and 0 <= int(x) < 2**64


def shadow_rng(seed: int, index: int) -> np.random.Generator:
    """Philox generator keyed (seed, index).

    Index 0 is the stream of the seed's shots (collect_shadow_arrays) and
    _STATE_INDEX that of its random_pure state (cli.build_state).  Raises
    ValueError unless seed and index both pass _is_uint64.
    """
    if not (_is_uint64(seed) and _is_uint64(index)):
        raise ValueError(f"seed and index must be integers in 0..2^64-1, "
                         f"got {seed!r} and {index!r}")
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed), int(index)], dtype=np.uint64)))


def _draw_ranks(probs: np.ndarray, u01: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    idx = (cum <= u01[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def collect_shadow_arrays(state: FermionState, count: int, seed: int, start_index: int = 0,
                          record: dict = None):
    """Collect shadows as stacked arrays (ws (N, eta, n), zs (N, eta) 1-based).

    Shot j = start_index + i reads numbers j w .. (j+1) w - 1, w = n^2 + 1,
    of the stream of shadow_rng(seed, 0): the n^2 of its rotation's network
    (linalg.haar_network), then its Born uniform.  Of shot i's rotation u
    only the readout rows ws[i] = u[zs[i] - 1] are formed and kept, eta/n
    of the whole.  One generator serves the whole call: it advances to the
    first shot once, then draws each chunk's uniforms in one call.
    Raises ValueError before any draw unless seed, count and start_index
    pass _is_uint64 and start_index + count <= _STATE_INDEX = 2^64-1, the
    state's stream, or if the state has no modes (n = 0).  Raises
    RuntimeError if a rotated state's Born probabilities miss 1 by more than
    fock._NORM_SQ_TOL, e.g. for an unnormalized state.  A record dict keeps
    born_worst_defect, the largest miss |sum probs - 1| of the calls given it.
    """
    if not (_is_uint64(seed) and _is_uint64(count) and _is_uint64(start_index)
            and int(start_index) + int(count) <= _STATE_INDEX):
        raise ValueError(f"need integers seed in 0..2^64-1 and indices start_index.."
                         f"start_index+count-1 in 0..2^64-2, got seed {seed!r}, "
                         f"start_index {start_index!r}, count {count!r}")
    seed, count, start_index = int(seed), int(count), int(start_index)
    n, eta = state.n, state.eta
    if n < 1:
        raise ValueError(f"need n >= 1 modes to rotate, got n={n}")
    width = n * n + 1       # per shot: the network's n^2 uniforms, then the Born uniform
    ws = np.empty((count, eta, n), dtype=np.complex128)
    zs = np.empty((count, eta), dtype=np.int64)
    ranks = subset_index_array(n, eta) + 1
    gen = shadow_rng(seed, 0)
    # Philox yields 4 numbers per counter step: jump whole steps, then drop the rest
    steps, offset = divmod(start_index * width, 4)
    gen.bit_generator.advance(steps)
    gen.random(offset)
    raw = np.empty((min(count, _CHUNK), width))     # the draw buffer, reused by every chunk
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        draws = gen.random(out=raw[:hi - lo])
        network = haar_network(draws[:, :-1])
        probs = np.abs(givens_rotate(network, state.amps, eta)) ** 2
        totals = probs.sum(axis=1)
        defect = float(np.max(np.abs(totals - 1.0)))
        if not defect <= _NORM_SQ_TOL:     # NaN fails too
            raise RuntimeError(f"probability defect {defect:.3g} exceeds {_NORM_SQ_TOL:g}; "
                               "is the state normalized?")
        if record is not None:
            record["born_worst_defect"] = max(record.get("born_worst_defect", 0.0), defect)
        zs[lo:hi] = ranks[_draw_ranks(probs / totals[:, None], draws[:, -1])]
        ws[lo:hi] = network_rows(network, zs[lo:hi] - 1)
        del network, probs, totals      # freed before the next chunk's draws
    return ws, zs


# ------------------------------------------------- estimation operator

def estimation_entry(n: int, eta: int, k: int, s_prime: int) -> Fraction:
    """Diagonal value of the estimation operator on the class s' = |r cap [eta]|.

    r runs over k-subsets in the frame where the readout occupies the first
    eta modes.  s' outside 0..k gives 0.
    """
    n, eta, k = check_sizes(n, eta, k)
    if not is_int(s_prime):
        raise ValueError(f"need an integer s', got {s_prime!r}")
    if not 0 <= s_prime <= k:
        return Fraction(0)
    num = binom(eta - s_prime, k - s_prime) * binom(n - eta + s_prime, s_prime)
    return Fraction((-1) ** (k + s_prime) * num, binom(k, s_prime))


def estimation_matrix(n: int, eta: int, k: int) -> tuple:
    """Exact class values (e'_0, ..., e'_k) of the diagonal estimation operator."""
    n, eta, k = check_sizes(n, eta, k)
    return tuple(estimation_entry(n, eta, k, s) for s in range(k + 1))


def trace_e_squared(n: int, eta: int, k: int) -> Fraction:
    """Tr[E^2]: class multiplicities times squared entries; drives the variance."""
    n, eta, k = check_sizes(n, eta, k)
    return sum(
        binom(eta, s) * binom(n - eta, k - s) * estimation_entry(n, eta, k, s) ** 2
        for s in range(k + 1)
    )


# ------------------------------------------------- estimators

def check_shadows(ws) -> np.ndarray:
    """ws as an array, checked to be a stack (N, eta, n) of snapshots, eta <= n.

    Raises ValueError otherwise.  Rows are not checked for orthonormality:
    only the collector makes them, and it makes orthonormal ones.
    """
    ws = np.asarray(ws)
    if ws.ndim != 3 or ws.shape[1] > ws.shape[2]:
        raise ValueError(f"ws must be a stack (N, eta, n) of readout rows with eta <= n, "
                         f"got shape {ws.shape}")
    return ws


@lru_cache(maxsize=None)
def _dft_points(n: int, eta: int, k: int) -> tuple:
    """(w_0, ((x_j, w_j), ...)): DFT weights w_j of the roots of unity x_j.

    w_j = sum_s e'_s x_j^-s / (k+1), so that sum_j w_j x_j^t = e'_t for
    t = 0..k, and the estimation operator is sum_j w_j C_k(D(x_j)) with
    D(x) putting x on the readout modes.  x_0 = 1 gives the identity, so
    only its exact weight is returned.  Of each conjugate pair only the root
    in the upper half plane is listed, since its partner contributes the
    complex conjugate; x = -1 (k odd) is exact and its weight real.  Cached
    per (n, eta, k); the result is an immutable tuple.
    """
    vals = estimation_matrix(n, eta, k)
    m = k + 1
    points = []
    for j in range(1, m // 2 + 1):
        if 2 * j == m:
            points.append((-1.0, float(sum((-1) ** s * v for s, v in enumerate(vals)) / m)))
        else:
            x = np.exp(2j * np.pi * j / m)
            points.append((x, sum(float(v) * x ** -s for s, v in enumerate(vals)) / m))
    return float(sum(vals) / m), tuple(points)


def all_pairs(n: int, k: int) -> tuple:
    """(p, q): every ordered pair of k-subsets of 1..n, as two (C(n,k)^2, k) tables.

    Row r C(n,k) + c pairs the subsets of colex ranks r and c, so the (N, C^2)
    estimates of fast_estimate_rdm reshape to the (N, C, C) estimate matrices,
    indexed [shot, rank p, rank q].
    """
    ss = subset_index_array(n, k) + 1
    return np.repeat(ss, len(ss), axis=0), np.tile(ss, (len(ss), 1))


def fast_estimate_rdm(ws: np.ndarray, k: int, p, q) -> np.ndarray:
    """Transition estimates (p, q) of the shadows with readout rows ws (N, eta, n).

    p and q are k-subsets of 1..n, (k,) each, or tables (T, k) of them whose
    row t names target t; the result is (N,) for one pair and (N, T) for
    tables.  With U_z = ws[i], M(x) = I + (x - 1) Pi and
    Pi[q, p] = U_z[:, q]^H U_z[:, p], entry [i, t] is shadow i's
    w_0 [p_t = q_t] plus, per root x in the upper half plane,
    w det M(x)[q_t, p_t] + conj(w det M(x)[p_t, q_t]), at half weight for
    the hermitian M(-1).  Targets (p, q), (q, p) and repeats form one
    column, evaluated once from the roots summed per block, so the
    all-pairs table (all_pairs) costs C(n,k)^2 determinants per root, and
    any table that holds (p, q) and (q, p) gives exact conjugates.  The
    blocks are gathered from the
    whole M(x) when (distinct blocks) k^2 >= n^2, and otherwise formed from
    the readout rows at O(k^2 eta + k^4) per shot and block whatever n is.
    The rule never looks at N, and an entry's bits do not depend on the
    other shots.  Raises ValueError for the ws check_shadows rejects, for
    sizes check_sizes(n, eta, k) rejects, for p and q not int_table arrays of
    one shape (k,) or (T, k), and, in check_subsets' words, for the first
    row of p, then of q, not strictly increasing within 1..n.
    """
    ws = check_shadows(ws)
    out = _block_plan(ws.shape[2], ws.shape[1], k, p, q)(ws)
    return out[:, 0] if np.ndim(p) == 1 else out


def _block_plan(n: int, eta: int, k: int, p, q) -> "_BlockPlan":
    """The estimator of the target table (p, q) on (n, eta) shadows, planned once.

    Raises fast_estimate_rdm's ValueErrors for sizes and tables, in its order.
    Then one stable sort finds the table's columns, its distinct unordered
    pairs {p, q}: each target is keyed in the orientation, (p, q) or (q, p),
    whose first differing mode is smaller, so (p, q), (q, p) and a repeat
    share one.  Block (r, c) is read only by the targets (r, c) and (c, r),
    so the distinct blocks are those of the columns' heads, their first
    targets: M[q, p] of each, and M[p, q] where p != q.
    """
    n, eta, k = check_sizes(n, eta, k)
    ps, qs = int_table(p), int_table(q)
    if (ps is None or qs is None
            or not (ps.shape == qs.shape and ps.ndim in (1, 2) and ps.shape[-1:] == (k,))):
        raise ValueError(f"need integer p, q of one shape (k,) or (T, k) with k={k}, "
                         f"got p {getattr(ps, 'shape', 'not an integer table')}, "
                         f"q {getattr(qs, 'shape', 'not an integer table')}")
    ps, qs = np.atleast_2d(ps, qs)      # one pair (k,) as a table (1, k)
    check_subsets(np.concatenate([ps, qs]), n)
    w0, points = _dft_points(n, eta, k)
    count = len(ps)
    differ = ps != qs
    swap = (differ & (np.cumsum(differ, axis=1) == 1) & (qs < ps)).any(axis=1)
    keys = np.where(swap[:, None], np.hstack([qs, ps]), np.hstack([ps, qs]))
    # lexsort is stable, so a run of equal keys opens at its head
    order = np.lexsort(keys.T) if k else np.arange(count)     # lexsort needs a key
    first = np.ones(count, dtype=bool)
    first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    head = np.empty(count, dtype=np.int64)
    head[order] = order[first][np.cumsum(first) - 1]
    is_head = head == np.arange(count)
    heads = np.flatnonzero(is_head)
    ph, qh = ps[heads], qs[heads]
    diag = ~differ[heads].any(axis=1)
    # 0-based (rows, cols) of the blocks M[q, p] of every column, then M[p, q] off the diagonal
    blocks = np.concatenate([np.hstack([qh, ph]), np.hstack([ph, qh])[~diag]]) - 1
    which = np.tile(np.arange(len(heads)), (2, 1))
    which[1, ~diag] = len(heads) + np.arange(len(blocks) - len(heads))
    return _BlockPlan(n, k, points, blocks, len(blocks) * k * k >= n * n, which,
                      np.where(diag, w0, 0.0) + 0j,   # added to tiles uncast
                      (np.cumsum(is_head) - 1)[head], swap != swap[head])


class _BlockPlan:
    """A target table's estimator, made once by _block_plan, applied to chunks of shots.

    Column u of the table's width reads the blocks which[:, u], and target t
    is column[t], or where flip[t] its exact conjugate.  columns(ws, gather)
    adds the roots into one (B, N) table D of the B distinct blocks and
    yields the columns' estimates from it; plan(ws, gather) -> (N, T) is
    fast_estimate_rdm's estimates, those columns expanded to the targets.
    ws is a stack (N, eta, n) that neither checks.  gather True takes every
    block from the whole M(x) (n, n, N), False from products of the readout
    rows, None by the rule.  A tile of columns, or of B' blocks in
    (k, k, B', N) or the (eta, k, k, B', N) products behind them, holds
    about _TILE numbers.
    """

    def __init__(self, n, k, points, blocks, rule, which, diagonal, column, flip):
        self.n, self.k, self.points, self.blocks, self.rule = n, k, points, blocks, rule
        self.which, self.diagonal, self.column, self.flip = which, diagonal, column, flip
        self.width = which.shape[1]

    def __call__(self, ws, gather: bool = None) -> np.ndarray:
        tiles = [tile for _, tile in self.columns(ws, gather)]
        return self.expand(np.concatenate(tiles), conjugate=True).T

    def columns(self, ws, gather: bool = None):
        """Yield (lo, tile): w_0 [p = q] + D[q, p] + conj(D[p, q]) of columns lo.., (c, N).

        No (width, N) table is built, and no column yields one empty tile,
        so that a Reducer still counts the shots.
        """
        sums = self._block_sums(ws, self.rule if gather is None else gather)
        step = max(1, _TILE // max(1, len(ws)))
        for lo in range(0, max(self.width, 1), step):
            tile = sums[self.which[0, lo:lo + step]]
            tile += np.conjugate(sums[self.which[1, lo:lo + step]])
            tile += self.diagonal[lo:lo + step, None]
            yield lo, tile

    def expand(self, values: np.ndarray, conjugate: bool = False) -> np.ndarray:
        """(T, ...) values per target of the (width, ...) values per column.

        conjugate mirrors a flipped imaginary part as 0.0 - v, not -v, which
        would print -0 where a Reducer of the target would hold +0.0.
        """
        out = values[self.column]
        if conjugate:
            out.imag[self.flip] = 0.0 - out.imag[self.flip]
        return out

    def _block_sums(self, ws, gather: bool) -> np.ndarray:
        """(B, N): D = sum over the roots x of w det M(x)[block], per distinct block and shot."""
        n, k, blocks = self.n, self.k, self.blocks
        count = len(ws)
        if not (self.points and len(blocks)):
            return np.zeros((len(blocks), count), dtype=np.complex128)
        out = np.empty((len(blocks), count), dtype=np.complex128)
        # readout rows, shots last: (eta, n, N)
        uz = np.ascontiguousarray(ws.transpose(1, 2, 0))
        # The sources sum Pi's eta terms in different orders, so they differ by
        # rounding (up to 8e-15 at eta >= 4).  The gather sums row by row, which
        # builds no (eta, n, n, N) array.  The products keep _fold's pairwise
        # order: a row-by-row loop there makes the sources bit-identical, but at
        # eta = 64 it raised criterion 10's time per pair from 124 to 600-750 us
        # (2-core VM), and .sum(axis=0), though faster, gives bits that depend on
        # the size of the stack it sums.
        if gather:
            # Pi (n, n, N)
            proj = uz[0].conj()[:, None] * uz[0][None]
            for u in uz[1:]:
                proj += u.conj()[:, None] * u[None]
        block_tile = max(1, _TILE // max(1, count * k * k * (1 if gather else len(uz))))
        for root, (x, w) in enumerate(self.points):
            if x == -1.0:
                w = w / 2       # M(-1) is hermitian: its one root counts once per orientation
            if gather:
                mx = (x - 1.0) * proj
                mx[np.arange(n), np.arange(n)] += 1.0
            for lo in range(0, len(blocks), block_tile):
                # block b's entry (i, j) at m[i, j, b], so each entry is one contiguous (B', N)
                r = blocks[lo:lo + block_tile, :k].T[:, None]
                c = blocks[lo:lo + block_tile, k:].T[None]
                if gather:
                    m = mx[r, c]
                else:
                    m = (r == c)[..., None] + (x - 1.0) * _fold(uz[:, r].conj() * uz[:, c])
                # not in place: an in-place complex product can round differently
                # in the last elements of a row, so a shot's bits would follow N
                det = w * _det_stack(np.moveaxis(m, (0, 1), (2, 3)))
                if root:        # the first root is stored: one root (k <= 2) takes no add
                    det += out[lo:lo + block_tile]
                out[lo:lo + block_tile] = det
                del det     # not held while the next block tile is formed
        return out


def check_fast_vs_dense(fast, dense) -> tuple:
    """(passed, worst gap) of two estimate tables of one shape, e.g. (N, T).

    The tables hold the same transitions of the same shadows from two
    routes; each entry is compared by |dense - fast| / max(1, |dense|), and
    passed means the worst gap is below 1e-8 (a NaN fails; empty tables pass).
    Raises ValueError unless the two shapes are equal.
    """
    fast, dense = np.asarray(fast), np.asarray(dense)
    if fast.shape != dense.shape:
        raise ValueError(f"need two tables of one shape, got {fast.shape} and {dense.shape}")
    gap = float(np.max(np.abs(dense - fast) / np.maximum(1.0, np.abs(dense)), initial=0.0))
    return gap < 1e-8, gap


class Reducer:
    """Mean or median of means over count shots, fed in order chunk by chunk.

    Reducer(count, width, mode, batches) takes the shots of width columns
    through add((m, width) chunk) calls, m shots each, or a chunk's column
    tiles in order through add((m, w) tile, lo) calls, and result() then gives
    per column the mean with its standard error s/sqrt(count) (ddof=1) per
    real and imaginary part, or under median_of_means the coordinate-wise
    median of the means of batches equal runs of consecutive shots with the
    spread of those means as the error.  Per column it keeps the mean and the sum M2 of squared
    deviations of the real and imaginary parts, and merges each chunk in by
    the pairwise update of Chan, Golub and LeVeque (Am. Stat. 37, 242, 1983).
    median_of_means also keeps one sum per batch and column, so a batch may
    straddle chunks.  Memory is O(batches * width) whatever count is.  A
    column's arithmetic does not depend on the other columns, so tiles give
    the bits of whole chunks, and a single chunk of all the shots gives
    exactly the one-pass mean and M2.  No stored part is -0.0.  Raises
    ValueError unless count and width pass is_int, for count < 1, width < 0,
    a chunk not (m, width), a tile not the next columns of its chunk's m
    shots, more shots than count, and unless mode is mean
    with no batches or median_of_means with integer batches >= 1 dividing count.
    """

    def __init__(self, count: int, width: int, mode: str = "mean", batches: int = None):
        if not (is_int(count) and count >= 1 and is_int(width) and width >= 0):
            raise ValueError(f"need an integer count of at least one shot and an integer "
                             f"width >= 0, got count {count!r}, width {width!r}")
        if mode == "median_of_means":
            if not (is_int(batches) and batches >= 1 and count % batches == 0):
                raise ValueError(f"batches must divide the sample count {count}, got {batches!r}")
            # (width, batches): each column's batch means contiguous for the median
            self._sums = np.zeros((width, batches), dtype=np.complex128)
        elif mode != "mean":
            raise ValueError(f"unknown mode {mode!r}")
        elif batches is not None:
            raise ValueError(f"batches are given only under median_of_means, got {batches!r}")
        self.count, self.width, self.mode, self.batches = count, width, mode, batches
        self.seen = 0
        self._next = self._rows = 0     # an open tiled chunk's next column and shots
        self.mean = np.zeros(width, dtype=np.complex128)
        # M2 of the real parts in .real, of the imaginary parts in .imag
        self._m2 = np.zeros(width, dtype=np.complex128)

    def add(self, chunk, lo: int = None):
        """Fold the next m shots, an (m, width) table, into the running sums.

        With lo, chunk holds columns lo..lo+w-1; the shots count at the last.
        """
        x = np.asarray(chunk, dtype=np.complex128)
        whole, lo = lo is None, 0 if lo is None else lo
        if not (x.ndim == 2 and is_int(lo) and lo == self._next
                and (x.shape[1] == self.width if whole else lo + x.shape[1] <= self.width)
                and self.seen + x.shape[0] <= self.count and (lo == 0 or x.shape[0] == self._rows)):
            raise ValueError(f"need an (m, {'width' if whole else 'w'}) chunk of columns "
                             f"{self._next}.. of {self.width}, at most {self.count - self.seen} "
                             f"shots, got shape {x.shape} at column {lo!r}")
        m, hi = x.shape[0], lo + x.shape[1]
        if m:
            # shots on the contiguous last axis: each column then sums in the same
            # pairwise order as a lone column, so its bits do not depend on width
            x = np.ascontiguousarray(x.T)
            mean = x.mean(axis=-1)
            dev = x - mean[:, None]
            m2 = (dev.real ** 2).sum(axis=-1) + 1j * (dev.imag ** 2).sum(axis=-1)
            seen, total = self.seen, self.seen + m
            delta = mean - self.mean[lo:hi]
            self.mean[lo:hi] += delta * (m / total)
            self._m2[lo:hi] += m2 + (delta.real ** 2 + 1j * delta.imag ** 2) * (seen * m / total)
            if self.mode == "median_of_means":
                self._add_batches(x, self._sums[lo:hi])
        if hi == self.width:
            self.seen, self._next = self.seen + m, 0
        else:
            self._next, self._rows = hi, m

    def _add_batches(self, x: np.ndarray, sums: np.ndarray):
        """Add the shots x (w, m) to sums (w, batches), the batch sums of their columns."""
        size = self.count // self.batches
        b, done = divmod(self.seen, size)
        a = 0
        if done:        # the rest of a batch that an earlier chunk began
            a = min(x.shape[1], size - done)
            sums[:, b] += x[:, :a].sum(axis=-1)
            b += 1
        whole = (x.shape[1] - a) // size
        sums[:, b:b + whole] += x[:, a:a + whole * size].reshape(
            len(x), whole, size).sum(axis=-1)
        a += whole * size
        if a < x.shape[1]:      # the start of a batch that a later chunk ends
            sums[:, b + whole] += x[:, a:].sum(axis=-1)

    def _check_done(self):
        if self.seen != self.count:
            raise ValueError(f"reduced {self.seen} of {self.count} shots")

    def variance(self) -> np.ndarray:
        """(width,) single-shot variance per column, mean of |x - mean|^2; ValueError
        before all count shots."""
        self._check_done()
        return (self._m2.real + self._m2.imag) / self.count

    def result(self):
        """(value, error), two (width,) arrays; ValueError before all count shots."""
        self._check_done()
        if self.mode == "mean":
            val, m = self.mean.copy(), self.count
        else:
            groups = self._sums / (self.count // self.batches)
            val = np.median(groups.real, axis=-1) + 1j * np.median(groups.imag, axis=-1)
            m = self.batches
        if m == 1:
            return val, np.zeros_like(val)
        if self.mode == "mean":
            err_re = np.sqrt(self._m2.real / (m - 1)) / np.sqrt(m)
            err_im = np.sqrt(self._m2.imag / (m - 1)) / np.sqrt(m)
        else:
            err_re = groups.real.std(axis=-1, ddof=1) / np.sqrt(m)
            err_im = groups.imag.std(axis=-1, ddof=1) / np.sqrt(m)
        return val, err_re + 1j * err_im


# ------------------------------------------------- variance closed forms

def avg_shadow_norm_sq(n: int, eta: int, k: int) -> Fraction:
    """Pair-averaged second moment of the estimator, state independent."""
    n, eta, k = check_sizes(n, eta, k)
    c = binom(n, k)
    return trace_e_squared(n, eta, k) / c**2 - Fraction(
        binom(n - k, eta - k) ** 2, binom(n, eta) ** 2 * c
    )


def q_value(n: int, eta: int, k: int) -> Fraction:
    """Variance scale Q: the worst diagonal second moment, exact."""
    n, eta, k = check_sizes(n, eta, k)
    total = Fraction(0)
    for s in range(k + 1):
        total += (
            binom(k, s)
            * Fraction(falling(n - eta + k - s, k), falling(n, k))
            * Fraction(
                factorial(eta - k + s) * factorial(n - eta + k - s) * factorial(n - k),
                factorial(n) * factorial(eta - k) * factorial(n - eta),
            )
        )
    return binom(eta, k) * total


def variance_bound(n: int, eta: int, k: int) -> Fraction:
    """Closed-form upper bound on Q."""
    n, eta, k = check_sizes(n, eta, k)
    return (
        binom(eta, k)
        * Fraction(n - eta + k, n or 1) ** k
        * Fraction(n + 1, n + 1 - k)
    )
