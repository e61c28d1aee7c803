"""Dense fixed-particle-number fermionic states and operators on them.

A state of eta particles on n modes is a complex vector over the eta-subsets
of [n] in colex rank order (combinat.rank_rows); a ket named by its modes
passes combinat.check_subsets.  The basis ket for the subset z = (z_1 < ... <
z_eta) is built by applying creation operators in increasing mode order to
the vacuum, and every sign in this module follows from that single
convention: annihilating (or creating) mode m picks up (-1)^(number of
occupied modes below m).  On a ket S = (s_0 < ... < s_{eta-1}), the
annihilators of the modes at positions t_1 < ... < t_k of S, applied in
ascending order, therefore give the ket S minus those modes with the sign
(-1)^(t_1 + ... + t_k - k(k-1)/2): the j-th of them passes t_j occupied
modes, less the j-1 already removed.

Transition operators are specified by two sorted k-subsets p, q and act as
the creator string for p times the annihilator string for q (annihilators
applied in ascending q order, creators in descending p order).

Contents
--------
    FermionState        : dense state container
    basis_state, random_state
    rdm_matrix          : all k-body expectations <state| transition(p, q) |state>
    slater_superposition: overlap-estimation embedding on n+eta modes
    state_to_json, state_from_json : JSON form; loading checks types, count and norm
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from .combinat import binom, check_sizes, check_subsets, is_int, rank_rows, subset_index_array

# a state is normalized if its squared norm, the total of its Born
# probabilities under any rotation, is within this of 1
_NORM_SQ_TOL = 1e-6


@dataclass
class FermionState:
    """Dense eta-particle state on n modes, amplitudes in colex rank order."""

    n: int
    eta: int
    amps: np.ndarray

    def __post_init__(self):
        self.n, self.eta, _ = check_sizes(self.n, self.eta)
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (binom(self.n, self.eta),):
            raise ValueError(f"need C({self.n},{self.eta}) amplitudes, got shape {self.amps.shape}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, z) -> complex:
        """Amplitude of the basis ket z; ValueError unless z is an eta-subset of 1..n."""
        z = check_subsets(z, self.n)
        if z.shape != (self.eta,):
            raise ValueError(f"need {self.eta} modes, got {tuple(z.tolist())}")
        return complex(self.amps[rank_rows(z, self.n)])


def basis_state(z, n: int) -> FermionState:
    """Occupation basis ket for the subset z; ValueError unless z is one subset of 1..n."""
    z = check_subsets(z, n)
    if z.ndim != 1:
        raise ValueError(f"need one subset, got {z.tolist()}")
    amps = np.zeros(binom(n, len(z)), dtype=np.complex128)
    amps[rank_rows(z, n)] = 1.0
    return FermionState(n, len(z), amps)


def random_state(n: int, eta: int, rng: np.random.Generator) -> FermionState:
    """Haar-random pure state in the eta-particle sector."""
    n, eta, _ = check_sizes(n, eta)
    dim = binom(n, eta)
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FermionState(n, eta, g / np.linalg.norm(g))


def rdm_matrix(state: FermionState, k: int) -> np.ndarray:
    """All k-body expectations at once, entry [rank(p), rank(q)].

    Built as A^dag A where column q of A is the state hit by the annihilator
    string for q, so the result is hermitian by construction.  Each occupied
    ket S (a row of the colex table) and each k-subset t of its positions
    write one entry: A[rank(S minus S_t), rank(S_t)] = sign(t) psi_S, with
    the sign rule of the module docstring.
    """
    n, eta, k = check_sizes(state.n, state.eta, k)
    occ = subset_index_array(n, eta) + 1            # (C(n,eta), eta), 1-based modes
    picked = subset_index_array(eta, k)             # (C(eta,k), k) positions in S
    # row r's other positions: complementing reverses colex order
    kept = subset_index_array(eta, eta - k)[::-1]
    signs = 1.0 - 2.0 * ((picked.sum(axis=1) - k * (k - 1) // 2) % 2)
    a = np.zeros((binom(n, eta - k), binom(n, k)), dtype=np.complex128)
    a[rank_rows(occ[:, kept], n), rank_rows(occ[:, picked], n)] = signs * state.amps[:, None]
    return a.conj().T @ a


def slater_superposition(state: FermionState) -> FermionState:
    """Embed state on n+eta modes and superpose with the reference ket.

    Returns (|state> + |ref>)/sqrt(2) where ref occupies the eta fresh modes
    n+1..n+eta.  Transition expectations from ref to q then read off half the
    original amplitude psi_q exactly, which is the overlap-estimation trick.
    ValueError for eta = 0, where state and ref are the same ket, the vacuum.
    """
    n, eta = state.n, state.eta
    if eta == 0:
        raise ValueError("need eta >= 1: at eta = 0 the state and the reference are one ket")
    big = FermionState(n + eta, eta, np.zeros(binom(n + eta, eta), dtype=np.complex128))
    # colex ranks are independent of the mode count, so the embedding is a
    # copy, and ref, the last eta-subset of [n+eta] in colex order, has the last rank
    big.amps[: state.amps.size] = state.amps
    big.amps[-1] += 1.0
    big.amps /= np.sqrt(2.0)
    return big


def state_to_json(state: FermionState) -> str:
    body = {
        "n": state.n,
        "eta": state.eta,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amps],
    }
    return json.dumps(body)


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
    [re, im] pairs of finite JSON numbers (_number_pairs) whose squared
    norm is 1 to _NORM_SQ_TOL, the collector's bound on Born totals; text
    nested too deeply for the parser raises it too.
    """
    try:
        body = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    if not (isinstance(body, dict) and _number_pairs(body.get("amplitudes"))
            and all(is_int(body.get(key)) for key in ("n", "eta"))):
        raise ValueError("need a JSON object with integers n and eta and amplitudes "
                         "a list of [re, im] number pairs")
    amps = np.array([complex(re, im) for re, im in body["amplitudes"]])
    state = FermionState(body["n"], body["eta"], amps)
    if not abs(state.norm() ** 2 - 1.0) <= _NORM_SQ_TOL:     # NaN fails too
        raise ValueError(f"state has norm {state.norm():.9g}; its square must be 1 "
                         f"to within {_NORM_SQ_TOL:g}")
    return state
