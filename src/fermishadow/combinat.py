"""Exact combinatorics for occupation subsets.

Occupation vectors are strictly increasing rows of 1-based mode indices,
checked by check_subsets wherever one is read.  The d-subsets of [n] are
enumerated in colexicographic order, so the rank of a subset does not
depend on n and basis vectors embed consistently across mode counts.
Row r of subset_index_array(n, d) is the subset of rank r, so that table is
also the inverse of rank_rows.

Subsets are only ever encoded this way, as colex index tables and ranks.
The sign rule of the mode operators, (-1)^(occupied modes below m) for
acting on mode m, is applied to those tables by fock.rdm_matrix.  Its
bitmask form, one operator string on one ket, is kept only as a test
oracle, in tests/sign_oracle.py.

Contents
--------
    is_int                 : the integer rule: a Python or numpy integer, never a bool
    check_sizes            : (n, eta, k) as ints, checked 0 <= k <= eta <= n
    int_table              : an int64 array of x if every entry is an integer
    binom                  : binomial coefficient, 0 outside the triangle
    falling                : falling factorial
    check_subsets          : the subset rule: rows strictly increasing within 1..n
    rank_rows              : colex ranks of the rows of such a table
    subset_index_array     : 0-based modes of all d-subsets of [n], colex order
    subsets                : iterate all d-subsets of [n] in colex order
"""

from functools import lru_cache
from itertools import chain
from math import comb

import numpy as np


def is_int(x) -> bool:
    """Python and numpy integers pass; bools, which Python counts as ints, and floats do not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_sizes(n, eta, k=0) -> tuple:
    """(n, eta, k) as Python ints; ValueError unless they pass is_int and 0 <= k <= eta <= n."""
    if not (all(map(is_int, (n, eta, k))) and 0 <= k <= eta <= n):
        raise ValueError(f"need integers 0 <= k <= eta <= n, got n={n!r} eta={eta!r} k={k!r}")
    return int(n), int(eta), int(k)


def int_table(x):
    """x as an int64 array if every entry passes is_int, else None; ragged gives None.

    An ndarray is decided by its dtype, empty or not; a nested sequence by
    its leaves' types, so an empty one counts: numpy reads bools among
    integers as 0 and 1.
    """
    try:
        a = np.array(x)
    except (ValueError, TypeError, OverflowError):      # ragged
        return None
    if (a.size or isinstance(x, np.ndarray)) and a.dtype.kind not in "iu":
        return None
    if a.size and not isinstance(x, np.ndarray):
        leaves = [x]
        for _ in range(a.ndim):
            leaves = chain.from_iterable(leaves)
        if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
            return None
    return a.astype(np.int64)


def binom(a: int, b: int) -> int:
    """C(a, b), 0 for integers outside the triangle; ValueError unless a and b pass is_int."""
    if not (is_int(a) and is_int(b)):
        raise ValueError(f"need integers, got a={a!r} b={b!r}")
    return comb(a, b) if 0 <= b <= a else 0


def falling(a: int, b: int) -> int:
    """a (a-1) ... (a-b+1), 1 for b = 0; ValueError unless a and b pass is_int and b >= 0."""
    if not (is_int(a) and is_int(b) and b >= 0):
        raise ValueError(f"need integers a and b >= 0, got a={a!r} b={b!r}")
    out = 1
    for i in range(b):
        out *= a - i
    return out


def check_subsets(x, n: int) -> np.ndarray:
    """x as an int64 table (..., d) of d-subsets, a 1-d x one subset; ValueError unless n
    passes is_int, x passes int_table and every row is strictly increasing within 1..n."""
    if not is_int(n):
        raise ValueError(f"need an integer mode count, got n={n!r}")
    t = int_table(x)
    if t is None or t.ndim == 0:
        raise ValueError(f"modes must be integers: {x!r}")
    out_of_range = ((t < 1) | (t > n)).any(axis=-1)
    bad = np.flatnonzero(out_of_range | (t[..., 1:] <= t[..., :-1]).any(axis=-1))
    if bad.size:        # the first bad row, named; it has a mode, so d > 0
        words = f"modes out of range 1..{n}" if out_of_range.flat[bad[0]] else "not increasing"
        raise ValueError(f"{words}: {tuple(t.reshape(-1, t.shape[-1])[bad[0]].tolist())}")
    return t


@lru_cache(maxsize=None)
def _colex_weights(n: int, d: int) -> np.ndarray:
    """(d, n+1) read-only int64 table: [j, m] = C(m-1, j+1) where 0-based position j of a
    d-subset of 1..n can hold mode m, j+1 <= m <= n-d+j+1, else 0; so every entry is below
    C(n, d), and any table of d-subsets that can exist ranks in int64."""
    w = np.array([[binom(m - 1, j + 1) if j < m <= n - d + j + 1 else 0 for m in range(n + 1)]
                  for j in range(d)], dtype=np.int64).reshape(d, n + 1)
    w.setflags(write=False)
    return w


def rank_rows(table, n: int) -> np.ndarray:
    """Colex ranks of the rows of an (..., d) table of d-subsets of 1..n.

    rank(z) = sum_j C(z_j - 1, j) over positions j = 1..d, read from
    _colex_weights; it does not depend on n.  ValueError, in check_subsets'
    words, unless check_subsets(table, n) passes.
    """
    t = check_subsets(table, n)
    d = t.shape[-1]
    return _colex_weights(int(n), d)[np.arange(d), t].sum(axis=-1)


@lru_cache(maxsize=None, typed=True)
def subset_index_array(n: int, d: int) -> np.ndarray:
    """(C(n,d), d) read-only int64 array of 0-based mode indices, colex row order.

    Built one column at a time: the j-subsets of [t+1] whose largest mode is
    t are the (j-1)-subsets of [t] with t appended, and in colex order those
    are the first C(t, j-1) rows of any longer (j-1) table, since a rank
    does not depend on n.  Cached per typed (n, d), so a chunked run
    builds it once.  ValueError unless n and d pass is_int and are >= 0;
    d > n gives no rows.
    """
    if not (is_int(n) and is_int(d) and min(n, d) >= 0):
        raise ValueError(f"need integers n, d >= 0, got n={n!r} d={d!r}")
    if d > n:
        idx = np.zeros((0, d), dtype=np.int64)
    else:
        idx = np.zeros((1, 0), dtype=np.int64)      # the one 0-subset
        for j in range(1, d + 1):
            # the whole (n-d+j, j) table: the next column's rows read all of it
            top = n - d + j
            sizes = [binom(t, j - 1) for t in range(top)]
            prev, idx = idx, np.empty((binom(top, j), j), dtype=np.int64)
            idx[:, :-1] = np.concatenate([prev[:size] for size in sizes])
            idx[:, -1] = np.repeat(np.arange(top), sizes)
    idx.setflags(write=False)
    return idx


def subsets(n: int, d: int):
    """All d-subsets of [n] as tuples, in colex order: by largest mode, then the rest."""
    return map(tuple, (subset_index_array(n, d) + 1).tolist())

