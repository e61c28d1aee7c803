"""Dense fixed-particle-number fermionic states and operators on them.

A state of eta particles on n modes is a complex vector over the eta-subsets
of [n] in colex rank order.  The basis ket for the subset z = (z_1 < ... <
z_eta) is built by applying creation operators in increasing mode order to
the vacuum, and every sign in this module follows from that single
convention: annihilating (or creating) mode m picks up (-1)^(number of
occupied modes below m).

Transition operators are specified by two sorted k-subsets p, q and act as
the creator string for p times the annihilator string for q (annihilators
applied in ascending q order, creators in descending p order).

Contents
--------
    FermionState        : dense state container
    basis_state, random_state
    apply_rotation      : single-particle unitary, applied as a Givens network
    apply_rdm_operator  : transition operator applied to a state
    expectation_rdm     : <state| transition |state>
    rdm_matrix          : all k-body expectations at once
    measure_occupation  : sample one occupation readout after a rotation
    slater_superposition: overlap-estimation embedding on n+eta modes
    state_to_json, state_from_json
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinat import binom, rank_subset, subsets, unrank_subset, validate_subset
from .linalg import givens_rotate


@dataclass
class FermionState:
    """Dense eta-particle state on n modes, amplitudes in colex rank order."""

    n: int
    eta: int
    amps: np.ndarray

    def __post_init__(self):
        assert 0 <= self.eta <= self.n
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        assert self.amps.shape == (binom(self.n, self.eta),)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FermionState":
        return FermionState(self.n, self.eta, self.amps / self.norm())

    def amplitude(self, z) -> complex:
        return complex(self.amps[rank_subset(z, self.n)])


def basis_state(z, n: int) -> FermionState:
    """Occupation basis ket for the subset z."""
    z = validate_subset(z, n)
    amps = np.zeros(binom(n, len(z)), dtype=np.complex128)
    amps[rank_subset(z, n)] = 1.0
    return FermionState(n, len(z), amps)


def random_state(n: int, eta: int, rng: np.random.Generator) -> FermionState:
    """Haar-random pure state in the eta-particle sector."""
    dim = binom(n, eta)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FermionState(n, eta, g / np.linalg.norm(g))


def apply_rotation(state: FermionState, u: np.ndarray) -> FermionState:
    """Rotate every mode by the single-particle unitary u."""
    assert u.shape == (state.n, state.n)
    return FermionState(state.n, state.eta, givens_rotate(u[None], state.amps, state.eta)[0])


# ------------------------------------------------- bitmask sign helpers

@lru_cache(maxsize=None)
def _sector(n: int, d: int):
    """(masks list, mask -> rank dict) for the d-subsets of [n]."""
    masks = []
    for z in subsets(n, d):
        m = 0
        for mode in z:
            m |= 1 << (mode - 1)
        masks.append(m)
    return masks, {m: r for r, m in enumerate(masks)}


def _annihilate(mask: int, mode: int):
    bit = 1 << (mode - 1)
    if not mask & bit:
        return None, 0
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask & ~bit, sign


def _create(mask: int, mode: int):
    bit = 1 << (mode - 1)
    if mask & bit:
        return None, 0
    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
    return mask | bit, sign


def _annihilator_string_matrix(n: int, eta: int, q) -> np.ndarray:
    """Matrix of the annihilator string for q, from the eta to eta-k sector.

    Entry [s', s] is the amplitude <s'| a_q1 applied first ... |s> with the
    annihilators taken in ascending q order.
    """
    k = len(q)
    masks_in, _ = _sector(n, eta)
    _, rank_out = _sector(n, eta - k)
    a = np.zeros((binom(n, eta - k), binom(n, eta)))
    for r, mask in enumerate(masks_in):
        m, total = mask, 1
        for mode in q:
            m, s = _annihilate(m, mode)
            if m is None:
                break
            total *= s
        else:
            a[rank_out[m], r] = total
    return a


def apply_rdm_operator(state: FermionState, p, q) -> FermionState:
    """Apply the transition operator for (p, q); the result is unnormalized."""
    p = validate_subset(p, state.n)
    q = validate_subset(q, state.n)
    assert len(p) == len(q)
    masks_in, _ = _sector(state.n, state.eta)
    _, rank_in = _sector(state.n, state.eta)
    out = np.zeros_like(state.amps)
    for r, mask in enumerate(masks_in):
        if state.amps[r] == 0:
            continue
        m, total = mask, 1
        for mode in q:
            m, s = _annihilate(m, mode)
            if m is None:
                break
            total *= s
        if m is None:
            continue
        for mode in reversed(p):
            m, s = _create(m, mode)
            if m is None:
                break
            total *= s
        if m is None:
            continue
        out[rank_in[m]] += total * state.amps[r]
    return FermionState(state.n, state.eta, out)


def expectation_rdm(state: FermionState, p, q) -> complex:
    """<state| transition(p, q) |state>."""
    return complex(np.vdot(state.amps, apply_rdm_operator(state, p, q).amps))


def rdm_matrix(state: FermionState, k: int) -> np.ndarray:
    """All k-body expectations at once, entry [rank(p), rank(q)].

    Built as A^dag A where column q of A is the state hit by the annihilator
    string for q, so the result is hermitian by construction.
    """
    assert 0 <= k <= state.eta
    cols = binom(state.n, k)
    a = np.zeros((binom(state.n, state.eta - k), cols), dtype=np.complex128)
    for c, q in enumerate(subsets(state.n, k)):
        a[:, c] = _annihilator_string_matrix(state.n, state.eta, q) @ state.amps
    return a.conj().T @ a


def measure_occupation(state: FermionState, u: np.ndarray, rng: np.random.Generator):
    """Rotate by u and sample one occupation subset from the Born rule."""
    rotated = apply_rotation(state, u)
    probs = np.abs(rotated.amps) ** 2
    total = probs.sum()
    defect = abs(total - 1.0)
    if not defect <= 1e-6:     # NaN fails too
        raise RuntimeError(f"probability defect {defect:.3g} exceeds 1e-6; "
                           "is the state normalized?")
    r = int(np.searchsorted(np.cumsum(probs / total), rng.random(), side="right"))
    r = min(r, probs.size - 1)
    return unrank_subset(r, state.n, state.eta)


def slater_superposition(state: FermionState) -> FermionState:
    """Embed state on n+eta modes and superpose with the reference ket.

    Returns (|state> + |ref>)/sqrt(2) where ref occupies the eta fresh modes
    n+1..n+eta.  Transition expectations from ref to q then read off half the
    original amplitude psi_q exactly, which is the overlap-estimation trick.
    """
    n, eta = state.n, state.eta
    big = FermionState(n + eta, eta, np.zeros(binom(n + eta, eta), dtype=np.complex128))
    # colex ranks are independent of the mode count, so the embedding is a copy
    big.amps[: state.amps.size] = state.amps
    ref = tuple(range(n + 1, n + eta + 1))
    big.amps[rank_subset(ref, n + eta)] += 1.0
    big.amps /= np.sqrt(2.0)
    return big


def state_to_json(state: FermionState) -> str:
    body = {
        "n": state.n,
        "eta": state.eta,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
    }
    return json.dumps(body)


def state_from_json(text: str) -> FermionState:
    body = json.loads(text)
    amps = np.array([complex(re, im) for re, im in body["amplitudes"]])
    return FermionState(int(body["n"]), int(body["eta"]), amps)
