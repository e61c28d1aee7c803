"""Exact identities behind the estimator, and the checks validate shares.

Each closed form used by the estimation and variance code is compared here
with an explicit finite sum over integers and Fractions, at zero tolerance.
The sums read the formulas that channel ships (nd_class_values, a_coeff),
so the check covers the code that runs, not a second copy of it.

The check_* functions hold one invariant each, with its comparison and its
bound.  `fermishadow validate` and the acceptance criteria both call them;
each caller draws its own states, seeds, pairs and unitaries.
check_fast_vs_dense compares two tables that its caller computed: validate
and `estimate --estimator both` pass the two block sources of
shadows.fast_estimate_rdm, and criterion 07 the kernel and the dense oracle
in tests/.  It is defined in shadows, next to those sources, so that the
CLI's gate runs it without importing this module; this one is the same
function.  Each check returns its verdict:
alone for the exact expansion, otherwise first in a tuple with what it
measured.

Contents
--------
    trace_nd_squared     : squared norm of the degree-d eigenoperator, (brute, closed)
    t_sum                : the alternating moment sum behind the entry formula, (brute, closed)
    chu_vandermonde_checks : the small binomial identities used throughout
    check_projector_expansion : sum_d a_d N_d = reference projector and
                           the channel eigenrelation, exact
    check_closed_forms   : every trace_nd_squared and t_sum point, exact
    check_shadow_norms   : per-shadow squared norm = Tr E^2, 1e-8 relative
    check_fast_vs_dense  : two routes' estimate tables agree, 1e-8 relative (from shadows)
    check_twirl_moments  : Haar fourth moments = structure_factor, z bound
"""

from fractions import Fraction
from math import factorial

import numpy as np

from . import channel
from .combinat import binom, subset_index_array
from .linalg import _det_stack
from .shadows import (all_pairs, check_fast_vs_dense, estimation_entry, fast_estimate_rdm,
                      trace_e_squared)


def trace_nd_squared(n: int, eta: int, d: int) -> tuple:
    """(brute, closed) Fractions: Tr of the squared degree-d eigenoperator on the eta sector.

    Brute route: channel.nd_class_values squared times class multiplicities.
    Closed route: a single product of factorials.  d = 0 gives C(n, eta).
    Raises ValueError unless 0 <= d <= min(eta, n - eta).
    """
    brute = sum(binom(eta, t) * binom(n - eta, eta - t) * Fraction(g) ** 2
                for t, g in enumerate(channel.nd_class_values(n, eta, d)))
    closed = Fraction(
        factorial(eta) * factorial(n - d + 1) * factorial(n - eta),
        factorial(d)
        * (n - 2 * d + 1)
        * factorial(n - eta - d) ** 2
        * factorial(eta - d) ** 2,
    )
    return brute, closed


def t_sum(n: int, eta: int, k: int, s: int) -> tuple:
    """(brute, closed) Fractions: the quadruple sum that collapses to one estimation entry.

    Sums the projector expansion weights channel.a_coeff against the
    overlap statistics of a k-subset with s modes outside the readout; the
    closed form is the estimation entry at overlap k - s.  Defined on the
    realizable classes s <= min(k, n - eta); beyond them the literal summand
    leaves the integer domain while the closed form merely continues it.
    Raises ValueError unless 0 <= s <= k <= eta <= n and s <= n - eta.
    """
    if not (0 <= s <= k <= eta <= n and s <= n - eta):
        raise ValueError(f"need 0 <= s <= min(k, n - eta) and k <= eta <= n, "
                         f"got n={n} eta={eta} k={k} s={s}")
    brute = Fraction(0)
    for d in range(min(eta, n - eta) + 1):
        a_d = channel.a_coeff(n, eta, d)
        for dp in range(d + 1):
            base = (
                a_d
                * binom(n + 1, d)
                * (-1) ** (d - dp)
                * Fraction(factorial(eta - dp), factorial(eta - d))
                * Fraction(factorial(n - eta - d + dp), factorial(n - eta - d))
            )
            for xpp in range(dp + 1):
                for ypp in range(d - dp + 1):
                    count = (
                        binom(k - s, xpp)
                        * binom(eta - k + s, dp - xpp)
                        * binom(s, ypp)
                        * binom(n - eta - s, d - dp - ypp)
                        * binom(n - (d + k - xpp - ypp), n - eta)
                    )
                    if count:
                        brute += base * count
    closed = estimation_entry(n, eta, k, k - s)
    return brute, closed


def chu_vandermonde_checks(limit: int = 15) -> bool:
    """Exhaustively verify the three binomial identities used in the algebra.

    1. sum_j C(m,j) C(n-m,k-j) = C(n,k)
    2. sum_j k! (eta-j)! / (eta! (k-j)!) = (eta+1)/(eta-k+1)
    3. sum_k (-1)^(j+k) (1+eta)/(1+eta-k) C(j,k) = 1/C(eta,j)
    """
    for n in range(limit + 1):
        for m in range(n + 1):
            for k in range(n + 1):
                if sum(binom(m, j) * binom(n - m, k - j) for j in range(k + 1)) != binom(n, k):
                    return False
    for eta in range(limit + 1):
        for k in range(eta + 1):
            lhs = sum(
                Fraction(factorial(k) * factorial(eta - j), factorial(eta) * factorial(k - j))
                for j in range(k + 1)
            )
            if lhs != Fraction(eta + 1, eta - k + 1):
                return False
        for j in range(eta + 1):
            lhs = sum(
                Fraction((-1) ** (j + k) * (1 + eta), 1 + eta - k) * binom(j, k)
                for k in range(j + 1)
            )
            if lhs != Fraction(1, binom(eta, j)):
                return False
    return True


# ------------------------------------------------- shared checks

def check_projector_expansion(n: int, eta: int) -> bool:
    """sum_d a_d N_d is the projector onto the reference ket [eta], and the
    channel maps each N_d to channel.eigenvalue(n, d) N_d; both exact."""
    acc = [Fraction(0)] * binom(n, eta)
    ok = True
    for d in range(min(eta, n - eta) + 1):
        nd = channel.symmetrized_difference(n, eta, d)
        w = channel.a_coeff(n, eta, d)
        acc = [a + w * v for a, v in zip(acc, nd.values)]
        lam = channel.eigenvalue(n, d)
        ok = ok and channel.apply_channel_diagonal(nd).values == [lam * v for v in nd.values]
    return ok and acc == [1] + [0] * (len(acc) - 1)


def check_closed_forms(n: int, eta: int) -> tuple:
    """(passed, points): trace_nd_squared at every depth d and t_sum at every
    realizable (k, s), k = 0..eta, brute sum equal to closed form exactly."""
    pairs = [trace_nd_squared(n, eta, d) for d in range(min(eta, n - eta) + 1)]
    pairs += [t_sum(n, eta, k, s) for k in range(eta + 1) for s in range(min(k, n - eta) + 1)]
    return all(brute == closed for brute, closed in pairs), len(pairs)


def check_shadow_norms(ws, k: int) -> tuple:
    """(passed, worst relative gap, (N,) squared norms) of a batch of shadows.

    Each shadow's estimates of all C(n,k)^2 transitions (all_pairs) from its
    readout rows ws[i] (eta, n) have squared norm
    Tr E^2 = trace_e_squared(n, eta, k), whatever the state; passed means
    every shadow is within 1e-8 relative (a NaN fails).
    """
    eta, n = np.shape(ws)[1:]
    norms = (np.abs(fast_estimate_rdm(ws, k, *all_pairs(n, k))) ** 2).sum(axis=1)
    want = float(trace_e_squared(n, eta, k))
    gap = float(np.max(np.abs(norms - want))) / want
    return gap < 1e-8, gap, norms


def check_twirl_moments(us, eta: int, z_bound: float) -> tuple:
    """(passed, worst z-score, (C, C) sample means) of Haar fourth moments.

    For eta-subsets p and q of rows, the mean over the stack us (N, n, n) of
    |det u[p, :eta]|^2 |det u[q, :eta]|^2 estimates the Haar moment
    channel.structure_factor(n, eta, |p cap q|), of which the channel
    kernel is made: kappa(t) = C(n, eta) structure_factor(n, eta, t).  Each
    pair p <= q (colex) is scored by |mean - f| / stderr, stderr floored at
    1e-12; passed means the worst score is below z_bound (a NaN fails).
    """
    us = np.asarray(us)
    count, n = us.shape[0], us.shape[-1]
    # (N, C) |det u[p, :eta]|^2 over the eta-subsets p of rows
    absq = np.abs(_det_stack(us[:, :, :eta][:, subset_index_array(n, eta)])) ** 2
    overlaps = channel._intersection_table(n, eta)
    means = np.empty(overlaps.shape)
    scores = []
    for i in range(len(means)):
        for j in range(i, len(means)):
            prod = absq[:, i] * absq[:, j]
            mean = float(prod.mean())
            sig = max(float(prod.std(ddof=1)) / np.sqrt(count), 1e-12)
            f = float(channel.structure_factor(n, eta, int(overlaps[i, j])))
            scores.append(abs(mean - f) / sig)
            means[i, j] = means[j, i] = mean
    worst = float(np.max(scores))
    return worst < z_bound, worst, means
