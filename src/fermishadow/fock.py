"""Dense fixed-particle-number fermionic states and operators on them.

A state of eta particles on n modes is a complex vector over the eta-subsets
of [n] in colex rank order.  The basis ket for the subset z = (z_1 < ... <
z_eta) is built by applying creation operators in increasing mode order to
the vacuum, and every sign in this module follows from that single
convention: annihilating (or creating) mode m picks up (-1)^(number of
occupied modes below m).  That rule, on occupation bitmasks, lives in
combinat.apply_string.

Transition operators are specified by two sorted k-subsets p, q and act as
the creator string for p times the annihilator string for q (annihilators
applied in ascending q order, creators in descending p order).

Contents
--------
    FermionState        : dense state container
    basis_state, random_state
    apply_rdm_operator  : transition operator applied to a state
    expectation_rdm     : <state| transition |state>
    rdm_matrix          : all k-body expectations at once
    slater_superposition: overlap-estimation embedding on n+eta modes
    state_to_json, state_from_json : JSON form; loading checks types, count and norm
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from .combinat import (
    apply_string,
    binom,
    rank_subset,
    subset_index_array,
    subsets,
    validate_subset,
)


@dataclass
class FermionState:
    """Dense eta-particle state on n modes, amplitudes in colex rank order."""

    n: int
    eta: int
    amps: np.ndarray

    def __post_init__(self):
        if not 0 <= self.eta <= self.n:
            raise ValueError(f"need 0 <= eta <= n, got n={self.n} eta={self.eta}")
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (binom(self.n, self.eta),):
            raise ValueError(f"need C({self.n},{self.eta}) = {binom(self.n, self.eta)} "
                             f"amplitudes, got shape {self.amps.shape}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

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


# ------------------------------------------------- transition operators

def _mask_ranks(n: int, d: int) -> dict:
    """{mask: colex rank} of the d-subsets of [n], as Python-int bitmasks of any width."""
    return {sum(1 << m for m in row): r
            for r, row in enumerate(subset_index_array(n, d).tolist())}


def apply_rdm_operator(state: FermionState, p, q) -> FermionState:
    """Apply the transition operator for (p, q); the result is unnormalized."""
    p = validate_subset(p, state.n)
    q = validate_subset(q, state.n)
    if len(p) != len(q):
        raise ValueError(f"p and q differ in size: {p}, {q}")
    ranks = _mask_ranks(state.n, state.eta)
    out = np.zeros_like(state.amps)
    for mask, r in ranks.items():
        if state.amps[r] == 0:
            continue
        m, sign = apply_string(mask, q, p)
        if m is not None:
            out[ranks[m]] += sign * state.amps[r]
    return FermionState(state.n, state.eta, out)


def expectation_rdm(state: FermionState, p, q) -> complex:
    """<state| transition(p, q) |state>."""
    return complex(np.vdot(state.amps, apply_rdm_operator(state, p, q).amps))


def rdm_matrix(state: FermionState, k: int) -> np.ndarray:
    """All k-body expectations at once, entry [rank(p), rank(q)].

    Built as A^dag A where column q of A is the state hit by the annihilator
    string for q, so the result is hermitian by construction.  Raises
    ValueError unless 0 <= k <= eta.
    """
    if not 0 <= k <= state.eta:
        raise ValueError(f"need 0 <= k <= eta = {state.eta}, got k={k}")
    ranks = _mask_ranks(state.n, state.eta)
    ranks_out = _mask_ranks(state.n, state.eta - k)
    a = np.zeros((len(ranks_out), binom(state.n, k)), dtype=np.complex128)
    for c, q in enumerate(subsets(state.n, k)):
        for mask, r in ranks.items():
            m, sign = apply_string(mask, q)
            if m is not None:
                a[ranks_out[m], c] = sign * state.amps[r]
    return a.conj().T @ a


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


def _is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _number_pairs(items) -> bool:
    """Is items a list of [re, im] pairs of JSON numbers within the float range, not bools?"""
    return isinstance(items, list) and all(
        isinstance(v, list) and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                and abs(x) <= sys.float_info.max for x in v)
        for v in items)


def state_from_json(text: str) -> FermionState:
    """Load a state_to_json state.

    Raises ValueError unless the text is a JSON object whose n and eta are
    JSON integers (not floats, not bools) and whose amplitudes are C(n, eta)
    [re, im] pairs of finite JSON numbers (_number_pairs) of norm 1 to 1e-6;
    text nested too deeply for the parser raises it too.
    """
    try:
        body = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    if not (isinstance(body, dict) and _number_pairs(body.get("amplitudes"))
            and all(_is_int(body.get(key)) for key in ("n", "eta"))):
        raise ValueError("need a JSON object with integers n and eta and amplitudes "
                         "a list of [re, im] number pairs")
    amps = np.array([complex(re, im) for re, im in body["amplitudes"]])
    state = FermionState(body["n"], body["eta"], amps)
    if not abs(state.norm() - 1.0) <= 1e-6:     # NaN fails too
        raise ValueError(f"state has norm {state.norm():.6g}, not 1")
    return state
