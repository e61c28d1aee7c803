"""Pfaffian route to single transition estimates, kept as a test oracle.

A single-shadow estimate of a diagonal k-body pattern is a degree-k
polynomial functional of a Pfaffian generating function.  With u_eff the
effective rotation (readout relabeled to the first eta modes), the kernel

    A(kappa) = kappa u~^T J u~ + Lambda x Yhat

is real skew-symmetric, where u~ is the orthogonal image of u_eff on
mode-doubled space, J puts a Yhat block on the first eta pairs, Lambda =
2 I_[k] - I_n, and Yhat = [[0, 1], [-1, 0]].  Then (-1)^(n-k) Pf[A(kappa)]
generates the needed occupation-polynomial expectations; A(0) never depends
on u_eff and Pf[A(0)] = (-1)^(n-k) exactly.  Derivatives at 0 come from a
trace recursion whose inputs are eigenvalue power sums of a 2k x 2k Gram
block, the doubled real image of the k x k Hermitian Gram W^H W of the
eta x k block W of u_eff.

Off-diagonal transitions (p, q) reduce exactly to diagonal estimates in
rotated frames: pair rotations at k'+1 discrete angles (k' = modes where p
and q differ) combined by a DFT, times a 2^k' inclusion-exclusion over
pattern choices, times a global fermionic reordering sign.

The shipped estimator (shadows.fast_estimate_rdm, projector form on the
k x k block Pi[q, p]) must agree with _loop_estimate, which evaluates every
term of that decomposition for one shadow.

Contents
--------
    pfaffian                : Pfaffian of an even skew-symmetric matrix
    majorana_rotation       : orthogonal doubled image of a unitary
    assemble_a_matrix       : the Pfaffian kernel A(kappa)
    generating_function_value
    f_ks, alpha_coeffs      : expansion weights of the estimation operator
    build_m, trace_powers, inverse_trace_sequence
    pfaffian_derivatives    : d^x Pf[A]|_0 for x = 0..x_max
    decompose_rdm           : exact off-diagonal-to-diagonal decomposition as
                              cached read-only (rows, vals, coeffs) term tables
    _loop_estimate          : one shadow's transition estimate, term by term
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from fermishadow.combinat import binom, check_subsets
from fermishadow.shadows import estimation_entry
from sign_oracle import apply_string

Y = np.array([[0.0, -1.0], [1.0, 0.0]])
YHAT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def pfaffian(a: np.ndarray) -> complex:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Parlett-Reid tridiagonalization with partial pivoting; O(m^3).  The input
    is copied.  Raises ValueError unless the input is square, of even
    dimension and skew-symmetric to 1e-10 of its largest entry.
    """
    a = np.array(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"Pfaffian needs a square matrix, got shape {a.shape}")
    m = a.shape[0]
    if m % 2:
        raise ValueError(f"Pfaffian needs even dimension, got {m}")
    if not np.allclose(a, -a.T, atol=1e-10 * max(1.0, np.abs(a).max(initial=0.0))):
        raise ValueError("Pfaffian needs a skew-symmetric matrix")
    if m == 0:
        return 1.0 + 0.0j
    val = 1.0 + 0.0j
    for j in range(0, m - 1, 2):
        # pivot the largest entry of column j below the diagonal into row j+1
        p = j + 1 + int(np.argmax(np.abs(a[j + 1:, j])))
        if p != j + 1:
            a[[j + 1, p], :] = a[[p, j + 1], :]
            a[:, [j + 1, p]] = a[:, [p, j + 1]]
            val = -val
        piv = a[j, j + 1]
        if piv == 0:
            return 0.0 + 0.0j
        val *= piv
        if j + 2 < m:
            tau = a[j, j + 2:] / piv
            col = a[j + 2:, j + 1]
            a[j + 2:, j + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(val)


# ------------------------------------------------- doubled-space images

def majorana_rotation(u: np.ndarray) -> np.ndarray:
    """Real special orthogonal image u_tilde of a unitary on doubled space."""
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, Y)


def assemble_a_matrix(u_eff: np.ndarray, eta: int, k: int, kappa: float) -> np.ndarray:
    """Pfaffian kernel A(kappa) for the effective rotation u_eff."""
    n = u_eff.shape[0]
    if not 0 <= k <= eta <= n:
        raise ValueError(f"need 0 <= k <= eta <= n, got n={n} eta={eta} k={k}")
    u_tilde = majorana_rotation(u_eff)
    j = np.zeros((2 * n, 2 * n))
    for m in range(eta):
        j[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = YHAT
    lam = np.zeros((2 * n, 2 * n))
    for m in range(n):
        lam[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = YHAT if m < k else -YHAT
    return kappa * (u_tilde.T @ j @ u_tilde) + lam


def generating_function_value(u_eff: np.ndarray, eta: int, k: int, kappa: float) -> float:
    """(-1)^(n-k) Pf[A(kappa)]; equals the dense occupation generating sum."""
    n = u_eff.shape[0]
    return float(
        ((-1) ** (n - k)) * pfaffian(assemble_a_matrix(u_eff, eta, k, kappa)).real
    )


# ------------------------------------------------- expansion weights

def f_ks(eta: int, k: int, s: int, j: int) -> Fraction:
    """Weight of the j-th elementary pair-product in the overlap-s projector.

    f(j) = sum_{x=j}^{k} (-1)^x C(x,s) 2^(-x) C(eta-j, x-j); zero for j > k.
    Raises ValueError unless 0 <= s <= k <= eta and j >= 0.
    """
    if not (0 <= s <= k <= eta and j >= 0):
        raise ValueError(f"need 0 <= s <= k <= eta and j >= 0, got eta={eta} k={k} s={s} j={j}")
    total = Fraction(0)
    for x in range(j, k + 1):
        total += Fraction((-1) ** x * comb(x, s) * binom(eta - j, x - j), 2**x)
    return total


@lru_cache(maxsize=None)
def alpha_coeffs(n: int, eta: int, k: int) -> tuple:
    """Exact weights c_x, x = 0..k, with estimate = sum_x c_x d^x Pf / x!."""
    e_prime = [estimation_entry(n, eta, k, s) for s in range(k + 1)]
    return tuple(
        sum((-1) ** s * f_ks(eta, k, s, x) * e_prime[s] for s in range(k + 1))
        for x in range(k + 1)
    )


# ------------------------------------------------- trace recursion

def build_m(u_eff: np.ndarray, k: int, eta: int) -> np.ndarray:
    """2k x 2k real Gram block M = m'^T m' driving the trace recursion.

    m' is the doubled real image of the eta x k block of i u_eff, so M is the
    doubled image of the k x k Hermitian Gram of that block.
    """
    w_block = u_eff[:eta, :k]
    m = np.empty((2 * eta, 2 * k))
    re, im = w_block.real, w_block.imag
    m[0::2, 0::2] = -im
    m[0::2, 1::2] = -re
    m[1::2, 0::2] = re
    m[1::2, 1::2] = -im
    return m.T @ m


def trace_powers(h: np.ndarray, count: int) -> np.ndarray:
    """(count, ...) array of Tr h^y, y = 1..count, for a stack (..., d, d) of
    Hermitian matrices, via eigenvalues."""
    lam = np.linalg.eigvalsh(h)
    out = np.empty((count,) + lam.shape[:-1])
    acc = np.ones_like(lam)
    for y in range(count):
        acc = acc * lam
        out[y] = acc.sum(axis=-1)
    return out


def inverse_trace_sequence(traces, j_max: int, eta: int) -> list:
    """[T_j for j = 1..j_max]: traces of powers of A(0)^-1 dA/dkappa.

    T_j = (-1)^j (2 eta + sum_{y=1}^{j} (-2)^y C(j,y) Tr[M^y]), where
    traces[y-1] = Tr[M^y] is a number or an array (elementwise).  Raises
    ValueError if fewer than j_max traces are given.
    """
    if len(traces) < j_max:
        raise ValueError(f"need {j_max} traces, got {len(traces)}")
    out = []
    for j in range(1, j_max + 1):
        s = 2.0 * eta
        for y in range(1, j + 1):
            s += (-2.0) ** y * comb(j, y) * traces[y - 1]
        out.append(((-1) ** j) * s)
    return out


def _pf_derivative_recursion(pf0: float, t_list: list, x_max: int) -> list:
    """d^x Pf|_0 from d Pf/Pf = T_1/2 and T_1^(j) = (-1)^j j! T_{j+1}.

    Elementwise when the T_j are arrays.
    """
    out = [pf0]
    for x in range(1, x_max + 1):
        acc = 0.0
        for j in range(x):
            acc += comb(x - 1, j) * ((-1) ** j) * factorial(j) * t_list[j] * out[x - 1 - j]
        out.append(acc / 2.0)
    return out


def pfaffian_derivatives(u_eff: np.ndarray, eta: int, k: int, x_max: int = None) -> list:
    """d^x Pf[A(kappa)]|_0 for x = 0..x_max (default eta), via the trace recursion.

    Pf at kappa = 0 is computed honestly from the assembled matrix; the
    sign shortcut it equals is checked against this routine in the tests.
    """
    if x_max is None:
        x_max = eta
    pf0 = float(pfaffian(assemble_a_matrix(u_eff, eta, k, 0.0)).real)
    m = build_m(u_eff, k, eta)
    t_list = inverse_trace_sequence(trace_powers(m, x_max), x_max, eta)
    return _pf_derivative_recursion(pf0, t_list, x_max)


# ------------------------------------------------- off-diagonal reduction

def _reordering_sign(p, q, p_only, q_only) -> int:
    """Parity relating the transition string to the paired product form.

    Both strings map the reference ket on q to the ket on p; the ratio of
    the two resulting signs is the global parity of the decomposition.
    """
    mask, _ = apply_string(0, create=q)
    _, sign = apply_string(mask, q, p)
    for pj, qj in reversed(list(zip(p_only, q_only))):
        mask, s = apply_string(mask, (qj,), (pj,))
        sign *= s
    return sign


@lru_cache(maxsize=None)
def decompose_rdm(p: tuple, q: tuple, n: int) -> tuple:
    """Expand the transition (p, q) over rotated diagonal patterns, exactly.

    With k' the number of modes where p and q differ, there are
    T = (k'+1) 2^k' terms: DFT angles phi_r = pi r/(k'+1) with weights
    e^(-i k' phi_r)/(k'+1) isolate the wanted pair monomial, and an
    inclusion-exclusion over the 2^k' pattern choices expands the paired
    occupation differences.  Returns read-only tables (rows (T, k, 2),
    vals (T, k, 2), coeffs (T,)): column c of term t's n x k block W_t holds
    vals[t, c, j] at 0-based row rows[t, c, j] (an unused slot has row -1
    and value 0), and the global fermionic sign is folded into coeffs.  The
    sum over t of coeffs[t] times the diagonal estimate in the frame of W_t
    reproduces the transition estimate of any shadow exactly.
    """
    if len(p) != len(q) or len(p) == 0:
        raise ValueError(f"need nonempty p and q of equal length, got {p} and {q}")
    p = tuple(check_subsets(p, n).tolist())
    q = tuple(check_subsets(q, n).tolist())
    k = len(p)
    shared = tuple(sorted(set(p) & set(q)))
    p_only = tuple(m for m in p if m not in shared)
    q_only = tuple(m for m in q if m not in shared)
    kp = len(p_only)
    sign = _reordering_sign(p, q, p_only, q_only)
    pairs = [(a - 1, b - 1) for a, b in zip(p_only, q_only)]
    count = (kp + 1) * 2**kp
    rows = np.full((count, k, 2), -1, dtype=np.int64)
    vals = np.zeros((count, k, 2), dtype=np.complex128)
    coeffs = np.empty(count, dtype=np.complex128)
    t = 0
    for r in range(kp + 1):
        phi = np.pi * r / (kp + 1)
        cr = np.exp(-1j * kp * phi) / (kp + 1)
        half = np.exp(0.5j * phi) / np.sqrt(2.0)
        for sel in range(2**kp):
            chosen = [j for j in range(kp) if (sel >> j) & 1]
            kept = [j for j in range(kp) if j not in chosen]
            # columns: kept pairs, chosen pairs, then the shared modes
            rows[t] = [pairs[j] for j in kept + chosen] + [(m - 1, -1) for m in shared]
            vals[t] = ([(half, half.conjugate())] * len(kept)
                       + [(half, -half.conjugate())] * len(chosen)
                       + [(1.0, 0.0)] * len(shared))
            coeffs[t] = sign * complex(cr * (-1) ** len(chosen))
            t += 1
    for table in (rows, vals, coeffs):
        table.setflags(write=False)
    return rows, vals, coeffs


# ------------------------------------------------- per-term estimator

def _loop_estimate(w, k, p, q):
    """One shadow's estimate for (p, q), one 2k x 2k nonsymmetric eigvals per term.

    Each term of decompose_rdm gathers its eta x k block W from the readout
    rows w (eta, n), takes the power sums of the real Gram block M of W, and
    runs the trace and derivative recursions; the weighted terms sum to the
    transition estimate.
    """
    eta, n = w.shape
    rows, vals, coeffs = decompose_rdm(tuple(p), tuple(q), n)
    weights = alpha_coeffs(n, eta, k)
    sign = (-1) ** (n - k)
    acc = 0.0 + 0.0j
    for t in range(len(coeffs)):
        # an unused slot's value 0 cancels its wrapped row index -1
        cols = w[:, rows[t]]
        w_block = (cols * vals[t][None, :, :]).sum(axis=2)
        lam = np.linalg.eigvals(build_m(w_block, k, eta))
        traces = [complex((lam**y).sum()).real for y in range(1, k + 1)]
        derivs = _pf_derivative_recursion(
            float(sign), inverse_trace_sequence(traces, k, eta), k
        )
        total = sum(float(weights[x]) * derivs[x] / factorial(x) for x in range(k + 1))
        acc += coeffs[t] * sign * total
    return complex(acc)
