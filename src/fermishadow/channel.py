"""Exact algebra of the occupation-readout twirl on diagonal operators.

The measurement channel averages U^dag |z><z| U over Haar rotations and all
readouts z; on the eta-particle sector it acts diagonally in the occupation
basis and depends on a subset r only through t = |r cap [eta]| once the
reference modes are relabeled to 1..eta.  Everything here is exact (integers
and Fractions); floating point never enters.

Contents
--------
    ChannelSpec                 : (n, eta) pair the channel acts on
    DiagonalOperator            : exact diagonal operator on one sector
    structure_factor            : Haar average <z| U rho U^dag |z> class value
    eigenvalue                  : channel eigenvalue on degree-d differences
    a_coeff                     : expansion weight of the sector projector
    nd_class_values             : class values of the symmetrized difference
    symmetrized_difference      : the degree-d eigenoperator, materialized
    symmetrized_difference_bruteforce : permutation-sum twin for small n
    eigenoperator_diagonal      : product of (n_x - n_y) factors, any pair set
    channel_kernel              : kappa(t) overlap kernel of the channel
    kernel_numerators           : integer form of kappa with common denominator
    apply_channel_diagonal      : exact channel action on a diagonal operator
    channel_apply_int_batch     : int64 batched channel action (common denom)
    inverse_channel_on_projector: exact inverse image of the sector projector
    mc_channel_estimate         : Monte Carlo twirl for cross-checking
    sim_k_expansion             : occupation-polynomial expansion coefficients
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import numpy as np

from .combinat import binom, falling, subset_masks, subsets, validate_subset
from .linalg import (
    _ginibre_from_normals,
    compound_batch,
    subset_index_array,
    unitary_from_ginibre,
)


@dataclass(frozen=True)
class ChannelSpec:
    """Mode count and particle number the measurement channel acts on."""

    n: int
    eta: int

    def __post_init__(self):
        if not 0 <= self.eta <= self.n:
            raise ValueError(f"need 0 <= eta <= n, got n={self.n} eta={self.eta}")


@dataclass
class DiagonalOperator:
    """Diagonal operator on the eta-particle sector, exact values per colex rank."""

    n: int
    eta: int
    values: list

    def __post_init__(self):
        if not (0 <= self.eta <= self.n and len(self.values) == binom(self.n, self.eta)):
            raise ValueError(f"need 0 <= eta <= n and C(n, eta) values, got n={self.n} "
                             f"eta={self.eta} and {len(self.values)} values")

    def as_array(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagonalOperator)
            and (self.n, self.eta) == (other.n, other.eta)
            and all(a == b for a, b in zip(self.values, other.values))
        )


def overlap_class_array(n: int, d: int, eta: int) -> np.ndarray:
    """t_r = |r cap [eta]| for every d-subset r of [n], colex order."""
    return (subset_index_array(n, d) < eta).sum(axis=1, dtype=np.int64)


def structure_factor(n: int, eta: int, k: int) -> Fraction:
    """Haar-averaged readout weight, a function of the overlap k = |z cap p|.

    Raises ValueError unless 0 <= k <= eta <= n.
    """
    if not 0 <= k <= eta <= n:
        raise ValueError(f"need 0 <= k <= eta <= n, got n={n} eta={eta} k={k}")
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


def symmetrized_difference_bruteforce(n: int, eta: int, d: int) -> DiagonalOperator:
    """Same operator from its definition, term by term.

    Sum over d-subsets x of [eta] and d-permutations y of [n]\\[eta] of the
    product of (n_x_j - n_y_j).  Exponential; test scale only.
    """
    ranks = list(subsets(n, eta))
    vals = [0] * len(ranks)
    for x in combinations(range(1, eta + 1), d):
        for y in permutations(range(eta + 1, n + 1), d):
            for r, z in enumerate(ranks):
                occ = set(z)
                v = 1
                for xj, yj in zip(x, y):
                    v *= (xj in occ) - (yj in occ)
                    if v == 0:
                        break
                vals[r] += v
    return DiagonalOperator(n, eta, vals)


def eigenoperator_diagonal(n: int, eta: int, x, y) -> DiagonalOperator:
    """Product of (n_x_j - n_y_j) over pairs, as a diagonal on the eta sector.

    Raises ValueError unless x and y have equal length and 2|x| distinct modes.
    """
    x = tuple(x)
    y = tuple(y)
    if not (len(x) == len(y) and len(set(x) | set(y)) == 2 * len(x)):
        raise ValueError(f"need equal-length disjoint mode tuples, got {x} and {y}")
    vals = []
    for z in subsets(n, eta):
        occ = set(z)
        v = 1
        for xj, yj in zip(x, y):
            v *= (xj in occ) - (yj in occ)
            if v == 0:
                break
        vals.append(v)
    return DiagonalOperator(n, eta, vals)


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


def kernel_numerators(n: int, eta: int):
    """(K_t ints, common denominator L) with kappa(t) = K_t / L."""
    fe = factorial(eta)
    ell = binom(n + 1, eta) * fe
    ks = [sum(binom(t, j) * (fe // binom(eta, j)) for j in range(t + 1)) for t in range(eta + 1)]
    return ks, ell


def _intersection_table(n: int, eta: int) -> np.ndarray:
    """(C, C) int64 table of |r cap r'| over the eta sector."""
    occ = (subset_masks(n, eta)[:, None] >> np.arange(n)) & 1
    return occ @ occ.T


def apply_channel_diagonal(spec: ChannelSpec, op: DiagonalOperator) -> DiagonalOperator:
    """Exact channel image of a diagonal operator on the eta sector."""
    eta = spec.eta
    if (op.n, op.eta) != (spec.n, eta):
        raise ValueError(f"operator on (n, eta) = ({op.n}, {op.eta}), "
                         f"channel on ({spec.n}, {eta})")
    kappa = channel_kernel(op.n, eta)
    table = _intersection_table(op.n, eta)
    vals = []
    for rp in range(len(op.values)):
        vals.append(sum(op.values[r] * kappa[table[r, rp]] for r in range(len(op.values))))
    return DiagonalOperator(op.n, eta, vals)


def channel_apply_int_batch(n: int, eta: int, vmat: np.ndarray):
    """Channel action on many integer diagonals at once, exactly.

    Parameters
    ----------
    vmat : (ops, C(n,eta)) int64 array of diagonal values

    Returns
    -------
    (numerators (ops, C) int64, denominator int): image = numerators / L.
    """
    ks, ell = kernel_numerators(n, eta)
    table = _intersection_table(n, eta)
    kmat = np.take(np.array(ks, dtype=np.int64), table)
    return np.asarray(vmat, dtype=np.int64) @ kmat, ell


def inverse_channel_on_projector(n: int, eta: int) -> DiagonalOperator:
    """Exact inverse-channel image of the eta-sector projector.

    Expansion sum_d a_d C(n+1,d) nd over d = 0..min(eta, n-eta); the same
    expansion without the C(n+1,d) weights reproduces the projector itself.
    """
    t = overlap_class_array(n, eta, eta)
    vals = [Fraction(0)] * binom(n, eta)
    for d in range(min(eta, n - eta) + 1):
        w = a_coeff(n, eta, d) * binom(n + 1, d)
        cls = nd_class_values(n, eta, d)
        for r, ti in enumerate(t):
            vals[r] += w * cls[ti]
    return DiagonalOperator(n, eta, vals)


# Haar draws per pass of mc_channel_estimate
_MC_CHUNK = 1024


def mc_channel_estimate(spec: ChannelSpec, p, samples: int, rng):
    """Monte Carlo estimate of the twirl image of the projector onto ket p.

    rng is a numpy Generator or an integer seed.  Returns (mean, stderr)
    arrays over the eta sector.  Cross-check only; the closed forms
    elsewhere in this module are exact.
    """
    n, eta = spec.n, spec.eta
    p = validate_subset(p, n)
    from .combinat import rank_subset

    pr = rank_subset(p, n)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.Philox(rng))
    dim = binom(n, eta)
    total = np.zeros(dim)
    total_sq = np.zeros(dim)
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        # one call per chunk: the same stream as m successive ginibre(n, rng)
        g = _ginibre_from_normals(rng.standard_normal((m, n, 2 * n)))
        b = compound_batch(unitary_from_ginibre(g), eta)
        prob = np.abs(b) ** 2                      # [i, z, r]
        contrib = np.einsum("izr,iz->ir", prob, prob[:, :, pr])
        total += contrib.sum(axis=0)
        total_sq += (contrib**2).sum(axis=0)
        done += m
    mean = total / samples
    var = np.maximum(total_sq / samples - mean**2, 0.0)
    return mean, np.sqrt(var / samples)


def sim_k_expansion(eta: int, k: int) -> list:
    """Coefficients c_j = (-1)^(j+k) C(j,k), j = 0..eta.

    With e_j the elementary symmetric polynomials in eta chosen occupation
    numbers, sum_j c_j e_j is the indicator that exactly k of those modes
    are occupied.  This is the diagonal building block of the estimation
    operator.
    """
    return [(-1) ** (j + k) * binom(j, k) for j in range(eta + 1)]


def elementary_in_sim(eta: int, k: int) -> list:
    """Inverse expansion weights: e_k = sum_j C(j,k) Sim_j."""
    return [binom(j, k) for j in range(eta + 1)]
