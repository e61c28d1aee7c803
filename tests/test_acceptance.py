"""Acceptance gate: ten checks, one pass/fail line each.

Each test prints `criterion NN <name>: PASS/FAIL (measured detail)`; the
pytest -v line carries the same verdict through the test name.
"""

import csv
import io
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from algebra_oracle import channel_apply_int_batch, q_slater
from dense_oracle import batch_estimate_matrices
from fermishadow import identities
from fermishadow.combinat import binom, rank_rows, subsets
from fermishadow.fock import random_state, rdm_matrix, slater_superposition
from fermishadow.linalg import haar_network
from fermishadow.shadows import (
    all_pairs,
    avg_shadow_norm_sq,
    collect_shadow_arrays,
    fast_estimate_rdm,
    variance_bound,
)
from haar_oracle import haar, whole
from pfaffian_oracle import assemble_a_matrix, pfaffian, pfaffian_derivatives


def _verdict(num: int, name: str, passed: bool, detail: str):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def _matrices(ws, k):
    """The kernel's all-pairs estimates as (N, C, C) matrices [shot, rank p, rank q]."""
    c = binom(ws.shape[-1], k)
    return fast_estimate_rdm(ws, k, *all_pairs(ws.shape[-1], k)).reshape(len(ws), c, c)


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, 2**64 - 1], dtype=np.uint64))
    )


@pytest.fixture(scope="module")
def shadow_pool_4_2():
    state = random_state(4, 2, _philox(2024))
    ws, _ = collect_shadow_arrays(state, 200_000, 501)
    return state, ws


def test_criterion_01_projector_expansion():
    t0 = time.monotonic()
    for n in range(0, 13):
        for eta in range(n + 1):
            assert identities.check_projector_expansion(n, eta), (n, eta)
    elapsed = time.monotonic() - t0
    _verdict(1, "projector expansion exact n<=12", elapsed < 10.0,
             f"exact rationals, {elapsed:.2f}s < 10s")


def test_criterion_02_eigenoperator_law():
    pairs = 0
    for n in range(1, 9):
        for eta in range(n + 1):
            c = binom(n, eta)
            occ = np.zeros((c, n), dtype=np.int64)
            for r, z in enumerate(subsets(n, eta)):
                occ[r, [m - 1 for m in z]] = 1
            ones = np.ones((1, c), dtype=np.int64)
            nums, ell = channel_apply_int_batch(n, eta, ones)
            assert np.array_equal(nums, ones * ell), (n, eta, 0)
            for d in range(1, min(eta, n - eta) + 1):
                xs, ys = [], []
                for x in permutations(range(1, n + 1), d):
                    rest = [m for m in range(1, n + 1) if m not in x]
                    for y in permutations(rest, d):
                        xs.append(x)
                        ys.append(y)
                xi = np.array(xs, dtype=np.int64) - 1
                yi = np.array(ys, dtype=np.int64) - 1
                lam_den = binom(n + 1, d)
                for lo in range(0, len(xi), 4096):
                    xb, yb = xi[lo : lo + 4096], yi[lo : lo + 4096]
                    vals = (occ[:, xb] - occ[:, yb]).prod(axis=2).T
                    nums, ell = channel_apply_int_batch(n, eta, vals)
                    assert np.array_equal(nums * lam_den, vals * ell), (n, eta, d)
                    pairs += len(xb)
    _verdict(2, "eigenoperator law exact n<=8", True,
             f"{pairs} ordered disjoint tuple pairs, zero tolerance")


def test_criterion_03_appendix_sweeps():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 11):
        for eta in range(n + 1):
            ok, points = identities.check_closed_forms(n, eta)
            assert ok, (n, eta)
            checked += points
    elapsed = time.monotonic() - t0
    _verdict(3, "brute sums equal closed forms n<=10", elapsed < 60.0,
             f"{checked} parameter points exact, {elapsed:.1f}s < 60s")


def test_criterion_04_per_shadow_invariant():
    rng = np.random.default_rng(404)
    passed, worst = True, 0.0
    frozen = None
    for n in range(2, 7):
        for eta in range(1, n + 1):
            state = random_state(n, eta, rng)
            ws, _ = collect_shadow_arrays(state, 3, seed=600 + n)
            for k in range(1, eta + 1):
                ok, gap, norms = identities.check_shadow_norms(ws, k)
                passed, worst = passed and ok, max(worst, gap)
                if (n, eta, k) == (2, 1, 1):
                    frozen = float(norms[0])
    assert abs(frozen - 5.0) < 5e-8
    _verdict(4, "per-shadow squared-norm identity n<=6", passed,
             f"worst relative gap {worst:.2e}, (2,1,1) sum {frozen:.9f} = 5")


def test_criterion_05_unbiasedness(shadow_pool_4_2):
    state, ws = shadow_pool_4_2
    nsamp = ws.shape[0]
    worst = 0.0
    for k in (1, 2):
        truth = rdm_matrix(state, k)
        ests = _matrices(ws, k)
        mean = ests.mean(axis=0)
        err_re = np.maximum(ests.real.std(axis=0, ddof=1) / np.sqrt(nsamp), 1e-12)
        err_im = np.maximum(ests.imag.std(axis=0, ddof=1) / np.sqrt(nsamp), 1e-12)
        worst = max(
            worst,
            float(np.max(np.abs(mean.real - truth.real) / err_re)),
            float(np.max(np.abs(mean.imag - truth.imag) / err_im)),
        )
    _verdict(5, "unbiased vs dense oracle N=2e5", worst < 5.0,
             f"worst deviation {worst:.2f} stderr < 5, k in {{1,2}}")


def test_criterion_06_variance_formula(shadow_pool_4_2):
    state, ws = shadow_pool_4_2
    n, eta, k = 4, 2, 1
    ests = _matrices(ws[:100_000], k)
    empirical = float((np.abs(ests - ests.mean(axis=0)) ** 2).mean())
    truth = rdm_matrix(state, k)
    c = binom(n, k)
    shift = float(Fraction(binom(n - k, eta - k), binom(n, eta)))
    trace_free = truth - shift * np.eye(c)
    predicted = float(avg_shadow_norm_sq(n, eta, k)) - float(
        np.sum(np.abs(trace_free) ** 2) / c**2
    )
    ratio = empirical / predicted
    bound = float(variance_bound(n, eta, k))
    ok = abs(ratio - 1.0) < 0.05 and empirical <= bound
    _verdict(6, "average variance formula N=1e5", ok,
             f"empirical/predicted {ratio:.4f} within 5%, "
             f"empirical {empirical:.4f} <= bound {bound:.4f}")


def test_criterion_07_fast_path_equivalence():
    rng = np.random.default_rng(2024)
    passed, worst = True, 0.0
    triples = 0
    for n in range(1, 9):
        for eta in range(1, n + 1):
            state = random_state(n, eta, rng)
            ws, _ = collect_shadow_arrays(state, 4, seed=n * 100 + eta)
            for k in range(1, eta + 1):
                ss = list(subsets(n, k))
                for i in range(4):
                    pairs = np.array([ss[rng.integers(len(ss))] for _ in range(100)])  # p, q, ...
                    ps, qs = pairs[0::2], pairs[1::2]
                    ok, gap = identities.check_fast_vs_dense(
                        fast_estimate_rdm(ws[i : i + 1], k, ps, qs),
                        batch_estimate_matrices(ws[i : i + 1], k)[
                            :, rank_rows(ps, n), rank_rows(qs, n)])
                    passed, worst = passed and ok, max(worst, gap)
                    triples += 50
    fd_worst = 0.0
    for n, eta, k in [(4, 2, 1), (5, 3, 2), (6, 4, 2)]:
        w = haar(n, rng)
        derivs = pfaffian_derivatives(w, eta, k, x_max=1)
        h = 1e-4
        fd = (
            pfaffian(assemble_a_matrix(w, eta, k, h)).real
            - pfaffian(assemble_a_matrix(w, eta, k, -h)).real
        ) / (2 * h)
        fd_worst = max(fd_worst, abs(derivs[1] - fd) / max(1.0, abs(fd)))
    ok = passed and fd_worst < 1e-5
    _verdict(7, "fast equals dense n<=8", ok,
             f"{triples} triples worst {worst:.2e} < 1e-8, "
             f"derivative vs finite difference {fd_worst:.2e} < 1e-5")


def test_criterion_08_twirl_monte_carlo():
    nsamp = 100_000
    rng = np.random.default_rng(2024)
    passed, worst = True, 0.0
    frozen = {}
    for n in range(1, 5):
        us = whole(haar_network(rng.random((nsamp, n * n))))
        for eta in range(1, n + 1):
            ok, z, means = identities.check_twirl_moments(us, eta, 3.0)
            passed, worst = passed and ok, max(worst, z)
            if (n, eta) == (2, 1):
                # subsets {1}, {2}: overlap 1 on the diagonal, 0 off it
                frozen = {1: means[1, 1], 0: means[0, 1]}
    ok = passed and abs(frozen[1] - 1 / 3) < 0.01 and abs(frozen[0] - 1 / 6) < 0.01
    _verdict(8, "Haar twirl matches structure factor", ok,
             f"worst {worst:.2f} sigma < 3 at 1e5 samples; "
             f"n=2 moments {frozen[1]:.4f}~1/3, {frozen[0]:.4f}~1/6")


def test_criterion_09_slater_overlaps(tmp_path):
    from fermishadow.cli import main

    n, eta, nsamp, seed = 3, 1, 100_000, 909
    out = tmp_path / "overlaps"
    rc = main(["slater-overlap", "--n", str(n), "--eta", str(eta),
               "--samples", str(nsamp), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "overlaps.csv").read_text())))
    header, body = rows[0], rows[1:]
    assert len(body) == 3
    state = random_state(n, eta, _philox(seed))
    worst = 0.0
    for row in body:
        q = tuple(int(m) for m in row[0].split("+"))
        oracle = complex(state.amplitude(q))
        est = complex(float(row[1]), float(row[2]))
        err_re = max(float(row[3]), 1e-12)
        err_im = max(float(row[4]), 1e-12)
        assert abs(complex(float(row[5]), float(row[6])) - oracle) < 1e-12
        worst = max(worst, abs(est.real - oracle.real) / err_re,
                    abs(est.imag - oracle.imag) / err_im)
    # single-shot variance of the raw transition estimates on the doubled register
    big = slater_superposition(state)
    ws, _ = collect_shadow_arrays(big, nsamp, seed)
    ests = _matrices(ws, eta)
    raw_var = float((np.abs(ests - ests.mean(axis=0)) ** 2).mean())
    q_ok = all(q_slater(2 * m, m) <= Fraction(4, 3) for m in range(1, 21))
    ok = worst < 5.0 and raw_var <= 4 / 3 and q_ok
    _verdict(9, "Slater overlaps via CLI N=1e5", ok,
             f"worst {worst:.2f} stderr < 5, single-shot variance "
             f"{raw_var:.4f} <= 4/3, exact Q(2m,m,m) <= 4/3 for m <= 20")


def test_criterion_10_fast_path_scaling():
    rng = np.random.default_rng(10)
    k = 2
    times = {}
    for eta in (8, 16, 32, 64):
        n = 2 * eta
        u = haar(n, rng)
        z = sorted(rng.choice(np.arange(1, n + 1), size=eta, replace=False).tolist())
        ws = u[np.array(z) - 1][None]
        pairs = []
        for _ in range(40):
            p = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            q = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            pairs.append((p, q))
        for p, q in pairs:
            fast_estimate_rdm(ws, k, p, q)   # warm caches
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for p, q in pairs:
                fast_estimate_rdm(ws, k, p, q)
            best = min(best, (time.perf_counter() - t0) / len(pairs))
        times[eta] = best
    slope = float(np.log(times[64] / times[8]) / np.log(64 / 8))
    detail = ", ".join(f"eta={e}: {times[e]*1e6:.0f}us" for e in (8, 16, 32, 64))
    _verdict(10, "per-estimate time trend k=2", slope <= 1.3,
             f"growth exponent {slope:.2f} <= 1.3; {detail}")
