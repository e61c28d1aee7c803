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
M(x)[p, q], with Pi[q, p] = U_z[:, q]^H U_z[:, p]: fast_estimate_rdm is the
one estimator, and evaluates each distinct block of its target table once
per root, gathered from the whole Pi for large tables and formed from the
readout rows at O(k^2 eta + k^4) per shot for small ones.

A batch of shadows is the stacked pair ws (N, eta, n), zs (N, eta), the one
form a shadow takes here: shadow i is the snapshot ws[i] = U_z, the eta rows
of its Haar rotation u that the 1-based sorted readout zs[i] picks, and the
estimator reads ws alone.  To keep a batch, save the two arrays or
regenerate them from their streams.
Randomness is counter-based and keyed by 64-shot blocks: shadow i of a run
seeded with s is row i mod 64 of the (64, n^2 + 1) uniforms that the Philox
stream keyed by (s, i // 64) draws in one call: its network's n^2, then its
Born uniform.  So any chunking or start index gives bit-identical readout
rows (linalg.network_rows), and readouts that differ only where a uniform
lies within rounding of a cumulative Born probability (see
linalg.givens_rotate); regenerating one shadow draws its whole block.  The
collector re-keys one generator per block by assigning it the state of a
fresh stream as plain Python ints (_fresh_state); the bits equal those of a
fresh shadow_rng(s, block).  It raises ValueError before any draw unless the
seed, count and start index pass _is_uint64 (combinat.is_int, in
0..2^64-1), start_index + count <= 2^64-1 (stream index 2^64-1 prepares
the input state, and no block reaches it) and n >= 1.

Contents
--------
    shadow_rng                 : the per-shadow generator
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

from .combinat import (binom, check_sizes, falling, int_table, is_int, subset_index_array,
                       subsets_ok, validate_subset)
from .fock import _NORM_SQ_TOL, FermionState
from .linalg import _det_stack, _fold, givens_rotate, haar_network, network_rows


# shots per pass of collect_shadow_arrays and of the CLI's
# collect -> estimate -> reduce loop; a memory setting that never changes a draw
_CHUNK = 2048

# shots per Philox key: shot j of seed s is position j mod _BLOCK of the
# stream keyed (s, j // _BLOCK).  Part of the draw contract, not a tuning
# value: changing it changes every snapshot.  _CHUNK is a multiple, so the
# CLI's chunks draw no block twice.
_BLOCK = 64

# numbers per array of a fast_estimate_rdm tile of blocks or targets
_TILE = 2**15

# index of the state-preparation stream (s, 2^64-1); shadows stop one below
_STATE_INDEX = 2**64 - 1


def _is_uint64(x) -> bool:
    """Does x pass is_int within 0..2^64-1: the rule for seeds, counts and indices?"""
    return is_int(x) and 0 <= int(x) < 2**64


def shadow_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator owned by shadow (seed, index).

    Raises ValueError unless seed and index both pass _is_uint64.
    """
    if not (_is_uint64(seed) and _is_uint64(index)):
        raise ValueError(f"seed and index must be integers in 0..2^64-1, "
                         f"got {seed!r} and {index!r}")
    return np.random.Generator(np.random.Philox(
        key=np.array([int(seed), int(index)], dtype=np.uint64)))


def _fresh_state(seed: int, index: int) -> dict:
    """State of a fresh shadow_rng(seed, index) as plain Python ints.

    Zero counter, key (seed, index) and an empty buffer (buffer_pos 4).
    Assigning it to a Philox bit generator's state costs less than the dict
    of numpy arrays that the state getter returns.
    """
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, index]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _draw_ranks(probs: np.ndarray, u01: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    idx = (cum <= u01[:, None]).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def collect_shadow_arrays(state: FermionState, count: int, seed: int, start_index: int = 0):
    """Collect shadows as stacked arrays (ws (N, eta, n), zs (N, eta) 1-based).

    Shot j = start_index + i is row j mod _BLOCK of the (_BLOCK, n^2 + 1)
    uniforms that the block stream (seed, j // _BLOCK) draws in one call:
    the n^2 of its rotation's network (linalg.haar_network), then its Born
    uniform.  Of shot i's rotation u only the readout rows
    ws[i] = u[zs[i] - 1] are formed and kept, eta/n of the whole.  One
    generator serves the whole call and is re-keyed per block; key
    (seed, block) with a zero counter and an empty buffer is exactly the
    state of a fresh shadow_rng(seed, block).  A range that starts or ends
    inside a block draws that whole block and keeps its slice.
    Raises ValueError before any draw unless seed, count and start_index
    pass _is_uint64 and start_index + count <= _STATE_INDEX = 2^64-1, the
    state's stream, or if the state has no modes (n = 0).  Raises
    RuntimeError if a rotated state's Born probabilities miss 1 by more than
    fock._NORM_SQ_TOL, e.g. for an unnormalized state.
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
    bitgen, uniform = gen.bit_generator, gen.random
    fresh = _fresh_state(seed, 0)      # only the key's index word changes per block
    key = fresh["state"]["key"]
    raw = np.empty((0, _BLOCK, width))
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        first = (start_index + lo) // _BLOCK
        blocks = (start_index + hi - 1) // _BLOCK + 1 - first
        if len(raw) < blocks:       # the draw buffer, reused by later chunks
            raw = np.empty((blocks, _BLOCK, width))
        for b in range(blocks):
            key[1] = first + b
            bitgen.state = fresh
            uniform(out=raw[b])
        # the chunk's shots: its range within the drawn blocks
        keep = slice(start_index + lo - first * _BLOCK, start_index + hi - first * _BLOCK)
        draws = raw[:blocks].reshape(-1, width)[keep]
        network = haar_network(draws[:, :-1])
        probs = np.abs(givens_rotate(network, state.amps, eta)) ** 2
        totals = probs.sum(axis=1)
        defect = float(np.max(np.abs(totals - 1.0)))
        if not defect <= _NORM_SQ_TOL:     # NaN fails too
            raise RuntimeError(f"probability defect {defect:.3g} exceeds {_NORM_SQ_TOL:g}; "
                               "is the state normalized?")
        zs[lo:hi] = ranks[_draw_ranks(probs / totals[:, None], draws[:, -1])]
        ws[lo:hi] = network_rows(network, zs[lo:hi] - 1)
        del network, probs, totals      # freed before the next chunk's draws
    return ws, zs


# ------------------------------------------------- estimation operator

def estimation_entry(n: int, eta: int, k: int, s_prime: int) -> Fraction:
    """Diagonal value of the estimation operator on the class s' = |r cap [eta]|.

    r runs over k-subsets in the frame where the readout occupies the first
    eta modes.  Vanishing binomials give 0.
    """
    n, eta, k = check_sizes(n, eta, k)
    if not 0 <= s_prime <= k:
        return Fraction(0)
    num = binom(eta - s_prime, k - s_prime) * binom(n - eta + s_prime, s_prime)
    if num == 0:
        return Fraction(0)
    return Fraction((-1) ** (k + s_prime) * num, binom(k, s_prime))


def estimation_matrix(n: int, eta: int, k: int) -> tuple:
    """Exact class values (e'_0, ..., e'_k) of the diagonal estimation operator."""
    n, eta, k = check_sizes(n, eta, k)
    return tuple(estimation_entry(n, eta, k, s) for s in range(k + 1))


def trace_e_squared(n: int, eta: int, k: int) -> Fraction:
    """Tr[E^2]: class multiplicities times squared entries; drives the variance."""
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
    the hermitian M(-1).  Each distinct k x k block is evaluated once per
    root, so the all-pairs table (all_pairs) costs C(n,k)^2 determinants per
    root, and (p, q) and (q, p) read the same two determinants: any table
    that holds both gives exact conjugates.  The blocks are gathered from the
    whole M(x) when (distinct blocks) k^2 >= n^2, and otherwise formed from
    the readout rows at O(k^2 eta + k^4) per shot and block whatever n is.
    The rule never looks at N, and an entry's bits do not depend on the
    other shots.  Raises ValueError for the ws check_shadows rejects, for
    sizes check_sizes(n, eta, k) rejects, for p and q not int_table arrays of
    one shape (k,) or (T, k), and, in validate_subset's words, for the first
    row of p, then of q, not strictly increasing within 1..n.
    """
    ws = check_shadows(ws)
    n, eta, k = check_sizes(ws.shape[2], ws.shape[1], k)
    ps, qs = int_table(p), int_table(q)
    if (ps is None or qs is None
            or not (ps.shape == qs.shape and ps.ndim in (1, 2) and ps.shape[-1:] == (k,))):
        raise ValueError(f"need integer p, q of one shape (k,) or (T, k) with k={k}, "
                         f"got p {getattr(ps, 'shape', 'not an integer table')}, "
                         f"q {getattr(qs, 'shape', 'not an integer table')}")
    single = ps.ndim == 1
    if single:
        ps, qs = ps[None], qs[None]
    rows = np.concatenate([ps, qs])
    if not subsets_ok(rows, n):
        for row in rows:
            validate_subset(row, n)         # raises at the first bad row
    out = _block_estimates(ws, k, ps, qs)
    return out[:, 0] if single else out


def _block_estimates(ws, k: int, ps, qs, gather: bool = None) -> np.ndarray:
    """(N, T) estimates of the checked targets (ps_t, qs_t) from one block source.

    gather True takes every block from the whole M(x) (n, n, N), False from
    products of the readout rows, None by fast_estimate_rdm's rule.  A tile
    of B' blocks holds about _TILE numbers in its (k, k, B', N) blocks, or in
    the (eta, k, k, B', N) products behind them.
    """
    count, eta, n = ws.shape
    w0, points = _dft_points(n, eta, k)
    out = np.empty((len(ps), count), dtype=np.complex128)
    out[:] = np.where((ps == qs).all(axis=1), w0, 0.0)[:, None]
    if not (points and len(ps)):
        return out.T
    # 0-based (rows, cols) of the blocks M[q_t, p_t], then M[p_t, q_t]; each
    # distinct one is evaluated once, and which maps a target to its two
    keys = np.concatenate([np.hstack([qs, ps]), np.hstack([ps, qs])]) - 1
    order = np.lexsort(keys.T)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    blocks = keys[order[first]]
    which = np.empty(len(keys), dtype=np.int64)
    which[order] = np.cumsum(first) - 1
    which = which.reshape(2, -1)
    if gather is None:
        gather = len(blocks) * k * k >= n * n
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
    det = np.empty((len(blocks), count), dtype=np.complex128)
    block_tile = max(1, _TILE // max(1, count * k * k * (1 if gather else eta)))
    target_tile = max(1, _TILE // max(1, count))
    for x, w in points:
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
            det[lo:lo + block_tile] = w * _det_stack(np.moveaxis(m, (0, 1), (2, 3)))
        for lo in range(0, len(ps), target_tile):
            # (p, q) adds w det M[q, p] + conj(w det M[p, q]); (q, p) its conjugate
            term = det[which[0, lo:lo + target_tile]]
            term += np.conjugate(det[which[1, lo:lo + target_tile]])
            out[lo:lo + target_tile] += term
    return out.T


def check_fast_vs_dense(fast, dense) -> tuple:
    """(passed, worst gap) of two estimate tables of one shape, e.g. (N, T).

    The tables hold the same transitions of the same shadows from two
    routes; each entry is compared by |dense - fast| / max(1, |dense|), and
    passed means the worst gap is below 1e-8 (a NaN fails; empty tables pass).
    """
    fast, dense = np.asarray(fast), np.asarray(dense)
    gap = float(np.max(np.abs(dense - fast) / np.maximum(1.0, np.abs(dense)), initial=0.0))
    return gap < 1e-8, gap


class Reducer:
    """Mean or median of means over count shots, fed in order chunk by chunk.

    Reducer(count, width, mode, batches) takes the shots of width columns
    through add((m, width) chunk) calls, m shots each, and result() then gives
    per column the mean with its standard error s/sqrt(count) (ddof=1) per
    real and imaginary part, or under median_of_means the coordinate-wise
    median of the means of batches equal runs of consecutive shots with the
    spread of those means as the error.  Per column it keeps the mean and the sum M2 of squared
    deviations of the real and imaginary parts, and merges each chunk in by
    the pairwise update of Chan, Golub and LeVeque (Am. Stat. 37, 242, 1983).
    median_of_means also keeps one sum per batch and column, so a batch may
    straddle chunks.  Memory is O(batches * width) whatever count is.  A
    column's arithmetic does not depend on the other columns, and a single
    chunk of all the shots gives exactly the one-pass mean and M2.  Raises
    ValueError unless count and batches pass is_int, for count < 1, an unknown
    mode, batches that do not divide count, a chunk not (m, width) or more
    shots than count.
    """

    def __init__(self, count: int, width: int, mode: str = "mean", batches: int = None):
        if not (is_int(count) and count >= 1):
            raise ValueError(f"need an integer count of at least one shot, got count {count!r}")
        if mode == "median_of_means":
            if not (is_int(batches) and batches >= 1 and count % batches == 0):
                raise ValueError(f"batches must divide the sample count {count}, got {batches!r}")
            # (width, batches): each column's batch means contiguous for the median
            self._sums = np.zeros((width, batches), dtype=np.complex128)
        elif mode != "mean":
            raise ValueError(f"unknown mode {mode!r}")
        self.count, self.width, self.mode, self.batches = count, width, mode, batches
        self.seen = 0
        self.mean = np.zeros(width, dtype=np.complex128)
        # M2 of the real parts in .real, of the imaginary parts in .imag
        self._m2 = np.zeros(width, dtype=np.complex128)

    def add(self, chunk):
        """Fold the next m shots, an (m, width) table, into the running sums."""
        x = np.asarray(chunk, dtype=np.complex128)
        if x.ndim != 2 or x.shape[1] != self.width or self.seen + x.shape[0] > self.count:
            raise ValueError(f"need an (m, {self.width}) chunk with at most "
                             f"{self.count - self.seen} shots, got shape {x.shape}")
        m = x.shape[0]
        if m == 0:
            return
        # shots on the contiguous last axis: each column then sums in the same
        # pairwise order as a lone column, so its bits do not depend on width
        x = np.ascontiguousarray(x.T)
        mean = x.mean(axis=-1)
        dev = x - mean[:, None]
        m2 = (dev.real ** 2).sum(axis=-1) + 1j * (dev.imag ** 2).sum(axis=-1)
        seen, total = self.seen, self.seen + m
        delta = mean - self.mean
        self.mean += delta * (m / total)
        self._m2 += m2 + (delta.real ** 2 + 1j * delta.imag ** 2) * (seen * m / total)
        if self.mode == "median_of_means":
            self._add_batches(x)
        self.seen = total

    def _add_batches(self, x: np.ndarray):
        """Add the shots x (width, m) to the sums of the batches they fall in."""
        size = self.count // self.batches
        b, done = divmod(self.seen, size)
        a = 0
        if done:        # the rest of a batch that an earlier chunk began
            a = min(x.shape[1], size - done)
            self._sums[:, b] += x[:, :a].sum(axis=-1)
            b += 1
        whole = (x.shape[1] - a) // size
        self._sums[:, b:b + whole] += x[:, a:a + whole * size].reshape(
            self.width, whole, size).sum(axis=-1)
        a += whole * size
        if a < x.shape[1]:      # the start of a batch that a later chunk ends
            self._sums[:, b + whole] += x[:, a:].sum(axis=-1)

    def variance(self) -> np.ndarray:
        """(width,) single-shot variance per column: mean of |x - mean|^2."""
        return (self._m2.real + self._m2.imag) / self.seen

    def result(self):
        """(value, error), two (width,) arrays; ValueError before all count shots."""
        if self.seen != self.count:
            raise ValueError(f"reduced {self.seen} of {self.count} shots")
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
    c = binom(n, k)
    return trace_e_squared(n, eta, k) / c**2 - Fraction(
        binom(n - k, eta - k) ** 2, binom(n, eta) ** 2 * c
    )


def q_value(n: int, eta: int, k: int) -> Fraction:
    """Variance scale Q: the worst diagonal second moment, exact."""
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
    return (
        binom(eta, k)
        * (1 - Fraction(eta - k, n)) ** k
        * Fraction(n + 1, n + 1 - k)
    )
