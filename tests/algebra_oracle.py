"""Exact helpers that only the tests run, kept as test oracles.

Brute-force twins of the channel algebra, the integer form of the channel
kernel, small subset and permutation helpers, and the closed forms that the
tests compare against the package's own: none of them is on a path that
`fermishadow` runs.

Contents
--------
    overlap_count          : |p cap q|
    canonical_permutation  : permutation sending [d] onto a subset
    permutation_matrix     : n x n matrix of a permutation image
    symmetrized_difference_bruteforce : permutation-sum twin of the eigenoperator
    eigenoperator_diagonal : product of (n_x - n_y) factors, any pair set
    kernel_numerators      : integer form of kappa with common denominator
    channel_apply_int_batch: int64 batched channel action (common denom)
    sim_k_expansion        : occupation-polynomial expansion coefficients
    elementary_in_sim      : its inverse weights
    q_slater               : Q at k = eta as its own sum
    weingarten_xi          : the single Weingarten-type weight of the twirl
    g_eta                  : readout multiplicity factor paired with the weight
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import numpy as np

from fermishadow.channel import DiagonalOperator, _intersection_table
from fermishadow.combinat import binom, check_subsets, falling, subsets


def overlap_count(p, q) -> int:
    """Number of modes shared by subsets p and q."""
    return len(set(p) & set(q))


def canonical_permutation(z, n: int) -> np.ndarray:
    """Permutation image v with v(j) = z_j for j <= |z|, rest of [n] ascending.

    Returned as a 1-based int array of length n; v is the mode relabeling
    whose matrix has columns e_{v(j)}.
    """
    z = tuple(check_subsets(z, n).tolist())
    rest = [m for m in range(1, n + 1) if m not in set(z)]
    return np.array(list(z) + rest, dtype=np.int64)


def permutation_matrix(image) -> np.ndarray:
    """n x n matrix P with P[image[j]-1, j] = 1."""
    image = np.asarray(image, dtype=np.int64)
    n = image.shape[0]
    p = np.zeros((n, n))
    p[image - 1, np.arange(n)] = 1.0
    return p


def _pair_product(z, x, y) -> int:
    """prod_j (n_x_j - n_y_j) on the occupation ket z."""
    occ = set(z)
    v = 1
    for xj, yj in zip(x, y):
        v *= (xj in occ) - (yj in occ)
        if v == 0:
            break
    return v


def symmetrized_difference_bruteforce(n: int, eta: int, d: int) -> DiagonalOperator:
    """channel.symmetrized_difference from its definition, term by term.

    Sum over d-subsets x of [eta] and d-permutations y of [n]\\[eta] of the
    product of (n_x_j - n_y_j).  Exponential; test scale only.
    """
    ranks = list(subsets(n, eta))
    vals = [0] * len(ranks)
    for x in combinations(range(1, eta + 1), d):
        for y in permutations(range(eta + 1, n + 1), d):
            for r, z in enumerate(ranks):
                vals[r] += _pair_product(z, x, y)
    return DiagonalOperator(n, eta, vals)


def eigenoperator_diagonal(n: int, eta: int, x, y) -> DiagonalOperator:
    """Product of (n_x_j - n_y_j) over pairs, as a diagonal on the eta sector.

    Raises ValueError unless x and y have equal length and 2|x| distinct modes.
    """
    x = tuple(x)
    y = tuple(y)
    if not (len(x) == len(y) and len(set(x) | set(y)) == 2 * len(x)):
        raise ValueError(f"need equal-length disjoint mode tuples, got {x} and {y}")
    return DiagonalOperator(n, eta, [_pair_product(z, x, y) for z in subsets(n, eta)])


def kernel_numerators(n: int, eta: int):
    """(K_t ints, common denominator L) with kappa(t) = K_t / L."""
    fe = factorial(eta)
    ell = binom(n + 1, eta) * fe
    ks = [sum(binom(t, j) * (fe // binom(eta, j)) for j in range(t + 1)) for t in range(eta + 1)]
    return ks, ell


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
    kmat = np.take(np.array(ks, dtype=np.int64), _intersection_table(n, eta))
    return np.asarray(vmat, dtype=np.int64) @ kmat, ell


def sim_k_expansion(eta: int, k: int) -> list:
    """Coefficients c_j = (-1)^(j+k) C(j,k), j = 0..eta.

    With e_j the elementary symmetric polynomials in eta chosen occupation
    numbers, sum_j c_j e_j is the indicator that exactly k of those modes
    are occupied: the diagonal building block of the estimation operator.
    """
    return [(-1) ** (j + k) * binom(j, k) for j in range(eta + 1)]


def elementary_in_sim(eta: int, k: int) -> list:
    """Inverse expansion weights: e_k = sum_j C(j,k) Sim_j."""
    return [binom(j, k) for j in range(eta + 1)]


def q_slater(n: int, eta: int) -> Fraction:
    """Q at k = eta, the overlap-estimation regime, as its own sum."""
    total = Fraction(0)
    for s in range(min(eta, n - eta) + 1):
        total += Fraction(
            falling(eta, s) * falling(n - eta, s) * factorial(n - s) ** 2,
            factorial(n) ** 2,
        )
    return total


def weingarten_xi(n: int, eta: int) -> Fraction:
    """The single moment weight of the readout twirl on the eta sector.

    Equals 1 / (eta!^2 C(n, eta) C(n+1, eta)); n = 1, eta = 1 gives 1/2.
    Raises ValueError unless 0 <= eta <= n.
    """
    if not 0 <= eta <= n:
        raise ValueError(f"need 0 <= eta <= n, got n={n} eta={eta}")
    return Fraction(1, factorial(eta) ** 2 * binom(n, eta) * binom(n + 1, eta))


def g_eta(eta: int, k: int) -> Fraction:
    """Multiplicity factor with g_eta(k) * weingarten_xi = structure_factor.

    Raises ValueError unless 0 <= k <= eta.
    """
    if not 0 <= k <= eta:
        raise ValueError(f"need 0 <= k <= eta, got eta={eta} k={k}")
    return Fraction(factorial(eta) ** 2 * (eta + 1), eta + 1 - k)
