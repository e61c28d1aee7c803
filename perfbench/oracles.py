"""Exact oracles for the benchmark, written without the package under test.

The conventions follow the package's documented ones: an eta-particle state
is a vector over the eta-subsets of 1..n in colex order, a basis ket applies
creators in increasing mode order to the vacuum, and the transition (p, q)
applies the annihilators for q in ascending order, then the creators for p in
descending order; acting on mode m costs (-1)^(occupied modes below m).
"""

import json
from itertools import combinations
from math import comb

import numpy as np


def colex_subsets(n: int, k: int) -> list:
    """k-subsets of 1..n as tuples, in colex order (the basis order)."""
    return sorted(combinations(range(1, n + 1), k), key=lambda z: z[::-1])


def random_amplitudes(n: int, eta: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state over the eta-subsets of 1..n."""
    dim = comb(n, eta)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def state_json(n: int, eta: int, amps: np.ndarray) -> str:
    """The state file format that `state_source: file:` reads."""
    return json.dumps({"n": n, "eta": eta,
                       "amplitudes": [[float(a.real), float(a.imag)] for a in amps]})


def _mask(z) -> int:
    return sum(1 << (m - 1) for m in z)


def _act(mask: int, modes, create: bool):
    """Apply creators or annihilators for `modes` in the given order; (mask, sign)."""
    sign = 1
    for m in modes:
        bit = 1 << (m - 1)
        if bool(mask & bit) == create:
            return None, 0
        if (mask & (bit - 1)).bit_count() & 1:
            sign = -sign
        mask ^= bit
    return mask, sign


def transition_matrix(amps: np.ndarray, n: int, eta: int, k: int) -> np.ndarray:
    """<psi| a+_p a_q |psi> for all k-subsets p, q; entry [colex p, colex q]."""
    basis = colex_subsets(n, eta)
    index = {_mask(z): i for i, z in enumerate(basis)}
    ks = colex_subsets(n, k)
    out = np.zeros((len(ks), len(ks)), dtype=np.complex128)
    for b, q in enumerate(ks):
        for i, z in enumerate(basis):
            rest, s_q = _act(_mask(z), q, create=False)
            if rest is None:
                continue
            for a, p in enumerate(ks):
                m, s_p = _act(rest, reversed(p), create=True)
                if m is not None:
                    out[a, b] += s_p * s_q * np.conj(amps[index[m]]) * amps[i]
    return out


def decomposition_terms(p, q) -> int:
    """Rotated diagonal terms of the fast path for (p, q): (k'+1) 2^k'.

    k' counts the modes of p not in q; k'+1 DFT angles times a 2^k'
    inclusion-exclusion over pattern choices.
    """
    kp = len(set(p) - set(q))
    return (kp + 1) * 2**kp
