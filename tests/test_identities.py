from fractions import Fraction

import pytest

from fermishadow.channel import structure_factor, symmetrized_difference
from fermishadow.combinat import binom
from algebra_oracle import g_eta, weingarten_xi
from fermishadow.identities import chu_vandermonde_checks, t_sum, trace_nd_squared
from fermishadow.shadows import estimation_entry


def test_trace_nd_squared_frozen():
    assert trace_nd_squared(2, 1, 1)[1] == 2
    for n in range(1, 8):
        for eta in range(n + 1):
            assert trace_nd_squared(n, eta, 0)[1] == binom(n, eta)


def test_trace_nd_squared_sweep():
    for n in range(1, 11):
        for eta in range(n + 1):
            for d in range(min(eta, n - eta) + 1):
                brute, closed = trace_nd_squared(n, eta, d)
                assert brute == closed, (n, eta, d, brute, closed)


def test_trace_nd_squared_matches_operator_frobenius():
    # literal diagonal square of the materialized operator
    for n in range(1, 8):
        for eta in range(n + 1):
            for d in range(min(eta, n - eta) + 1):
                nd = symmetrized_difference(n, eta, d)
                frob = sum(Fraction(v) ** 2 for v in nd.values)
                assert trace_nd_squared(n, eta, d)[1] == frob


def test_t_sum_frozen():
    assert t_sum(2, 1, 1, 0)[0] == 2
    assert t_sum(2, 1, 1, 1)[0] == -1
    for n in range(1, 7):
        for eta in range(n + 1):
            assert t_sum(n, eta, 0, 0)[0] == 1


def test_t_sum_sweep_matches_estimation_entry():
    for n in range(1, 11):
        for eta in range(n + 1):
            for k in range(eta + 1):
                for s in range(min(k, n - eta) + 1):
                    brute, closed = t_sum(n, eta, k, s)
                    assert brute == closed, (n, eta, k, s, brute, closed)
                    assert closed == estimation_entry(n, eta, k, k - s)


def test_t_sum_rejects_unrealizable_class():
    with pytest.raises(ValueError):
        t_sum(4, 3, 2, 2)
    with pytest.raises(ValueError):
        t_sum(4, 2, 2, 3)


def test_weingarten_frozen():
    assert weingarten_xi(1, 1) == Fraction(1, 2)
    assert weingarten_xi(2, 1) == Fraction(1, 6)


def test_weingarten_times_multiplicity_is_structure_factor():
    for n in range(1, 11):
        for eta in range(n + 1):
            for k in range(eta + 1):
                assert g_eta(eta, k) * weingarten_xi(n, eta) == structure_factor(n, eta, k)


def test_chu_vandermonde_checks():
    assert chu_vandermonde_checks(15)
