"""Exact combinatorics for occupation subsets.

Occupation vectors are sorted tuples of 1-based mode indices.  The d-subsets
of [n] are enumerated in colexicographic order, so the rank of a subset does
not depend on n and basis vectors embed consistently across mode counts.
Row r of subset_index_array(n, d) is the subset of rank r, so that table is
also the inverse of rank_subset.

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
    validate_subset        : a subset as a checked increasing tuple of modes
    rank_subset            : colex rank of a subset
    subsets_ok             : whether every row of an integer table is a subset of 1..n
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
    """x as an int64 array if every entry passes is_int, else None; empty counts, ragged not.

    An ndarray is decided by its dtype, a nested sequence also by its leaves'
    types: numpy reads bools among integers as 0 and 1.
    """
    try:
        a = np.array(x)
    except (ValueError, TypeError, OverflowError):      # ragged
        return None
    if a.size and a.dtype.kind not in "iu":
        return None
    if a.size and not isinstance(x, np.ndarray):
        leaves = [x]
        for _ in range(a.ndim):
            leaves = chain.from_iterable(leaves)
        if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
            return None
    return a.astype(np.int64)


def binom(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range arguments give 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def falling(a: int, b: int) -> int:
    """Falling factorial a (a-1) ... (a-b+1), with falling(a, 0) = 1."""
    if b < 0:
        raise ValueError(f"need b >= 0, got {b}")
    out = 1
    for i in range(b):
        out *= a - i
    return out


def validate_subset(z, n: int) -> tuple:
    """z as a tuple of ints; ValueError unless its modes pass is_int and increase within 1..n."""
    z = tuple(z)
    if not all(map(is_int, z)):
        raise ValueError(f"modes must be integers: {z}")
    z = tuple(map(int, z))
    if not all(1 <= m <= n for m in z):
        raise ValueError(f"modes out of range 1..{n}: {z}")
    if not all(z[i] < z[i + 1] for i in range(len(z) - 1)):
        raise ValueError(f"not increasing: {z}")
    return z


def rank_subset(z, n: int = None) -> int:
    """Colex rank of the subset z among the |z|-subsets, independent of n.

    rank(z) = sum_j C(z_j - 1, j) over positions j = 1..|z|.  The empty
    subset has rank 0.  n is only used for validation when given.
    """
    z = validate_subset(z, n if n is not None else (max(z) if z else 1))
    return sum(binom(m - 1, j + 1) for j, m in enumerate(z))


def subsets_ok(table, n: int) -> bool:
    """Is every row of an (..., d) integer table strictly increasing within 1..n?

    validate_subset over a whole table in one pass: once the rows are
    increasing, they lie within 1..n if the first and last columns do.
    """
    t = np.asarray(table)
    return t.size == 0 or bool((t[..., 1:] > t[..., :-1]).all()
                               and t[..., 0].min() >= 1 and t[..., -1].max() <= n)


def rank_rows(table, n: int) -> np.ndarray:
    """Colex ranks of the rows of an (..., d) table of d-subsets of 1..n.

    Vectorized rank_subset: sum_j C(z_j - 1, j) over positions j = 1..d,
    read from a (d, n+1) table of binomials.  Rows are not checked; see
    subsets_ok.
    """
    t = np.asarray(table)
    d = t.shape[-1]
    weights = np.array([[binom(m - 1, j + 1) for m in range(n + 1)] for j in range(d)],
                       dtype=np.int64).reshape(d, n + 1)
    return weights[np.arange(d), t].sum(axis=-1)


@lru_cache(maxsize=None)
def subset_index_array(n: int, d: int) -> np.ndarray:
    """(C(n,d), d) read-only int64 array of 0-based mode indices, colex row order.

    Built one column at a time: the j-subsets of [t+1] whose largest mode is
    t are the (j-1)-subsets of [t] with t appended, and in colex order those
    are the first C(t, j-1) rows of any longer (j-1) table, since a rank
    does not depend on n.  Cached per (n, d), so a chunked run builds it
    once.
    """
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

