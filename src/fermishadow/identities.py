"""Exact combinatorial identities behind the estimator, each with a brute twin.

Every closed form used by the estimation and variance code is re-derived
here as an explicit finite sum over integers and Fractions, so the tests
can compare the two routes at zero tolerance.

Contents
--------
    SumReport            : one brute-vs-closed comparison, JSON-able
    trace_nd_squared     : squared norm of the degree-d eigenoperator
    t_sum                : the alternating moment sum behind the entry formula
    weingarten_xi        : the single Weingarten-type weight of the twirl
    g_eta                : readout multiplicity factor paired with the weight
    chu_vandermonde_checks : the small binomial identities used throughout
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .combinat import binom, falling


@dataclass
class SumReport:
    """Brute-force sum next to its closed form, with exact agreement flag."""

    parameters: dict
    brute_value: Fraction
    closed_value: Fraction
    agree: bool = field(init=False)

    def __post_init__(self):
        self.agree = self.brute_value == self.closed_value

    def to_json(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "brute_value": str(self.brute_value),
            "closed_value": str(self.closed_value),
            "agree": self.agree,
        }


def trace_nd_squared(n: int, eta: int, d: int) -> SumReport:
    """Tr of the squared degree-d eigenoperator on the eta sector.

    Brute route: class values squared times class multiplicities.  Closed
    route: a single product of factorials.  d = 0 gives C(n, eta).  Raises
    ValueError unless 0 <= d <= min(eta, n - eta).
    """
    if not 0 <= d <= min(eta, n - eta):
        raise ValueError(f"need 0 <= d <= min(eta, n - eta), got n={n} eta={eta} d={d}")
    brute = Fraction(0)
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
        brute += binom(eta, t) * binom(n - eta, eta - t) * Fraction(g) ** 2
    closed = Fraction(
        factorial(eta) * factorial(n - d + 1) * factorial(n - eta),
        factorial(d)
        * (n - 2 * d + 1)
        * factorial(n - eta - d) ** 2
        * factorial(eta - d) ** 2,
    )
    return SumReport({"n": n, "eta": eta, "d": d}, brute, closed)


def t_sum(n: int, eta: int, k: int, s: int) -> SumReport:
    """The quadruple sum that collapses to one estimation-operator entry.

    Sums the projector expansion weights against the overlap statistics of
    a k-subset with s modes outside the readout; the closed form is the
    estimation entry at overlap k - s.  Defined on the realizable classes
    s <= min(k, n - eta); beyond them the literal summand leaves the
    integer domain while the closed form merely continues it.  Raises
    ValueError unless 0 <= s <= k <= eta <= n and s <= n - eta.
    """
    if not (0 <= s <= k <= eta <= n and s <= n - eta):
        raise ValueError(f"need 0 <= s <= min(k, n - eta) and k <= eta <= n, "
                         f"got n={n} eta={eta} k={k} s={s}")
    brute = Fraction(0)
    for d in range(min(eta, n - eta) + 1):
        a_d = Fraction(
            (n - 2 * d + 1) * factorial(n - d - eta) * factorial(eta - d),
            factorial(n - d + 1),
        )
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
    from .shadows import estimation_entry

    closed = estimation_entry(n, eta, k, k - s)
    return SumReport({"n": n, "eta": eta, "k": k, "s": s}, brute, closed)


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
