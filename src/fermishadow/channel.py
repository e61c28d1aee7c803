"""Exact algebra of the occupation-readout twirl on diagonal operators.

The measurement channel averages U^dag |z><z| U over Haar rotations and all
readouts z; on the eta-particle sector it acts diagonally in the occupation
basis and depends on a subset r only through t = |r cap [eta]| once the
reference modes are relabeled to 1..eta.  Everything here is exact (integers
and Fractions); floating point never enters.

Contents
--------
    DiagonalOperator       : exact diagonal operator on one sector
    overlap_class_array    : t_r = |r cap [eta]| for every subset r
    structure_factor       : Haar average <z| U rho U^dag |z> class value
    eigenvalue             : channel eigenvalue on degree-d differences
    a_coeff                : expansion weight of the sector projector
    nd_class_values        : class values of the symmetrized difference
    symmetrized_difference : the degree-d eigenoperator, materialized
    channel_kernel         : kappa(t) overlap kernel of the channel
    apply_channel_diagonal : exact channel action on a diagonal operator
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import numpy as np

from .combinat import binom, check_sizes, falling, subset_index_array


@dataclass
class DiagonalOperator:
    """Diagonal operator on the eta-particle sector, exact values per colex rank."""

    n: int
    eta: int
    values: list

    def __post_init__(self):
        self.n, self.eta, _ = check_sizes(self.n, self.eta)
        if len(self.values) != binom(self.n, self.eta):
            raise ValueError(f"need C({self.n},{self.eta}) = {binom(self.n, self.eta)} values, "
                             f"got {len(self.values)}")


def overlap_class_array(n: int, d: int, eta: int) -> np.ndarray:
    """t_r = |r cap [eta]| for every d-subset r of [n], colex order."""
    return (subset_index_array(n, d) < eta).sum(axis=1, dtype=np.int64)


def structure_factor(n: int, eta: int, k: int) -> Fraction:
    """Haar-averaged readout weight, a function of the overlap k = |z cap p|."""
    n, eta, k = check_sizes(n, eta, k)
    return Fraction(eta + 1, (eta + 1 - k)) / (binom(n + 1, eta) * binom(n, eta))


def eigenvalue(n: int, d: int) -> Fraction:
    """Channel eigenvalue on the degree-d eigenoperators."""
    return Fraction(1, binom(n + 1, d))


def _check_depth(n: int, eta: int, d: int):
    if not 0 <= d <= min(eta, n - eta):
        raise ValueError(f"need 0 <= d <= min(eta, n - eta), got n={n} eta={eta} d={d}")


def a_coeff(n: int, eta: int, d: int) -> Fraction:
    """Weight of the degree-d eigenoperator in the sector projector.

    Raises ValueError unless 0 <= d <= min(eta, n - eta).
    """
    _check_depth(n, eta, d)
    return Fraction(
        (n - 2 * d + 1) * factorial(n - d - eta) * factorial(eta - d),
        factorial(n - d + 1),
    )


def nd_class_values(n: int, eta: int, d: int) -> list:
    """Values of the degree-d symmetrized difference on the class t = |r cap [eta]|.

    Integer for every t = 0..eta.  Raises ValueError unless
    0 <= d <= min(eta, n - eta).
    """
    _check_depth(n, eta, d)
    out = []
    for t in range(eta + 1):
        g = 0
        for j in range(d + 1):
            g += (
                (-1) ** j
                * falling(eta - d + j, j)
                * falling(n - eta - j, d - j)
                * binom(t, d - j)
                * binom(eta - t, j)
            )
        out.append(g)
    return out


def symmetrized_difference(n: int, eta: int, d: int) -> DiagonalOperator:
    """Degree-d eigenoperator built on the reference split [eta] | rest."""
    cls = nd_class_values(n, eta, d)
    t = overlap_class_array(n, eta, eta)
    return DiagonalOperator(n, eta, [cls[ti] for ti in t])


def channel_kernel(n: int, eta: int) -> list:
    """kappa(t): channel matrix element between occupation projectors.

    The channel image of a diagonal D on the eta sector has values
    M[D](r') = sum_r D(r) kappa(|r cap r'|).
    """
    c = binom(n + 1, eta)
    return [
        sum(Fraction(binom(t, j), c * binom(eta, j)) for j in range(t + 1))
        for t in range(eta + 1)
    ]


def _intersection_table(n: int, eta: int) -> np.ndarray:
    """(C, C) int64 table of |r cap r'| over the eta sector."""
    idx = subset_index_array(n, eta)
    occ = np.zeros((len(idx), n), dtype=np.int64)
    np.put_along_axis(occ, idx, 1, axis=1)
    return occ @ occ.T


def apply_channel_diagonal(op: DiagonalOperator) -> DiagonalOperator:
    """Exact channel image of a diagonal operator on its (n, eta) sector.

    Values and kernel are brought over their common denominators to
    integers, and one product over the |r cap r'| table sums them exactly,
    with no Fraction operation per pair of subsets: in int64 where no sum
    can overflow, in Python integers otherwise.
    """
    eta = op.eta
    kappa = channel_kernel(op.n, eta)
    vals = [Fraction(v) for v in op.values]
    ell = lcm(*(x.denominator for x in kappa))
    den = lcm(*(v.denominator for v in vals))
    knum = np.array([int(x * ell) for x in kappa], dtype=object)
    vnum = np.array([int(v * den) for v in vals], dtype=object)
    if max(map(abs, vnum)) * max(knum) * len(vnum) < 2**63:
        knum, vnum = knum.astype(np.int64), vnum.astype(np.int64)
    nums = vnum @ knum[_intersection_table(op.n, eta)]
    return DiagonalOperator(op.n, eta, [Fraction(int(x), den * ell) for x in nums])

