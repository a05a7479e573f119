"""Factorization, totient extremizers, smooth counts, cyclotomics."""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import square_sum_dp
from matstat import numtheory
from matstat.errors import ZeroArgumentError
from matstat.exact import MonicIntPoly
from matstat.numtheory import (
    FactoredInt,
    _phi_sieve,
    _small_primes,
    count_smooth_wrt,
    cyclotomic,
    euler_phi,
    factorize,
    is_probable_prime,
    largest_totient_below,
    max_totient_square_sum,
    totients_up_to,
)


def test_primality_against_sympy():
    for n in range(-3, 2000):
        assert is_probable_prime(n) == sympy.isprime(n)
    rng = random.Random(0xFACE)
    for _ in range(200):
        n = rng.randint(10**9, 10**13)
        assert is_probable_prime(n) == sympy.isprime(n)


def test_primality_where_the_table_hands_over_to_miller_rabin():
    # below _TRIAL_LIMIT = 10^6 the answer is a lookup in the sieved table
    for n in range(10**6 - 200, 10**6 + 201):
        assert is_probable_prime(n) == sympy.isprime(n), n
    below = list(sympy.primerange(10**6 - 1000, 10**6))
    assert below[-1] == 999983 == _small_primes()[-1]
    assert all(is_probable_prime(p) for p in below)


def test_factorize_recomposes():
    rng = random.Random(0xF00D)
    for _ in range(150):
        n = rng.randint(2, 10**10)
        if rng.random() < 0.3:
            n = -n
        f = factorize(n)
        assert f.value == n
        for p, e in f.factors:
            assert e >= 1 and is_probable_prime(p)
        assert list(f.primes) == sorted(f.primes)


def test_factorize_matches_sympy():
    rng = random.Random(0xDEAD)
    for _ in range(60):
        n = rng.randint(2, 10**12)
        assert factorize(n).as_dict() == sympy.factorint(n)


def test_factorize_edge_cases():
    assert factorize(1).factors == ()
    assert factorize(-1).value == -1
    with pytest.raises(ZeroArgumentError):
        factorize(0)
    # squares of primes just above the trial-division limit
    p = sympy.nextprime(10**6 + 3)
    f = factorize(p * p)
    assert f.as_dict() == {p: 2}


def test_phi_against_sympy():
    rng = random.Random(3)
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)
    for _ in range(50):
        n = rng.randint(10**6, 10**10)
        assert euler_phi(n) == sympy.totient(n)


def test_totient_table_complete():
    # phi(k) <= 300 forces k <= 2*300^2, so a sieve that far is exhaustive
    import numpy as np

    limit = 300
    top = 2 * limit * limit
    phi = np.arange(top + 1, dtype=np.int64)
    for p in range(2, top + 1):
        if phi[p] == p:  # p untouched means prime
            phi[p::p] -= phi[p::p] // p
    true_set = set(int(x) for x in phi[1:] if x <= limit)
    table = totients_up_to(512)
    for n in range(1, limit + 1):
        assert (n in table) == (n in true_set)
        assert largest_totient_below(n) == max(v for v in true_set if v <= n)


def test_totient_value_examples():
    assert largest_totient_below(5) == 4
    assert largest_totient_below(100) == 100
    assert largest_totient_below(1) == 1
    assert set(v for v in range(1, 7) if v in totients_up_to(8)) == {1, 2, 4, 6}


def test_totient_gap_bound_sample():
    # spot-check v(n) >= n - n^(21/40); the acceptance suite runs the full range
    for n in [100, 101, 997, 5000, 12345, 99991, 100000]:
        v = largest_totient_below(n)
        assert v >= n - n ** (21 / 40)


def test_square_sum_dp_matches_exhaustive():
    table = totients_up_to(64)
    tots = [v for v in range(1, 25) if v in table]

    def brute(n):
        if n == 0:
            return 0
        best = -1
        for m in tots:
            if m > n:
                break
            sub = brute(n - m)
            if sub >= 0:
                best = max(best, m * m + sub)
        return best

    for n in range(0, 25):
        assert max_totient_square_sum(n) == brute(n)


def test_square_sum_examples():
    assert max_totient_square_sum(0) == 0
    assert max_totient_square_sum(1) == 1
    assert max_totient_square_sum(2) == 4
    assert max_totient_square_sum(10) == 100


# --- w(n) by the walk, against the dynamic program over n ----------------


@pytest.fixture(scope="module")
def square_sums():
    return square_sum_dp(2**17)


def test_square_sum_matches_dp_to_two_to_14(square_sums):
    ns = range(2**14 + 1)
    assert [max_totient_square_sum(n) for n in ns] == [square_sums[n] for n in ns]


def test_square_sum_matches_dp_on_seeded_sample(square_sums):
    rng = random.Random(0x7775)
    for n in [rng.randint(2**14, 2**17) for _ in range(2000)]:
        assert max_totient_square_sum(n) == square_sums[n], n


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2**12))
def test_square_sum_is_the_best_first_part(n):
    # w(n) = max over totients a <= n of a^2 + w(n - a)
    w = max_totient_square_sum(n)
    sums = [a * a + max_totient_square_sum(n - a)
            for a in totients_up_to(2**12).values if a <= n]
    assert max(sums) == w


def test_count_smooth_examples():
    assert count_smooth_wrt(6, 10) == 7  # 1,2,3,4,6,8,9
    assert count_smooth_wrt(12, 12) == 8  # 1,2,3,4,6,8,9,12
    assert count_smooth_wrt(5, 1) == 1
    assert count_smooth_wrt(7, 0) == 0
    with pytest.raises(ZeroArgumentError):
        count_smooth_wrt(0, 10)


def test_count_smooth_against_scan():
    rng = random.Random(77)

    def rad_divides(m, q):
        for p in range(2, m + 1):
            if m % p == 0:
                while m % p == 0:
                    m //= p
                if q % p != 0:
                    return False
        return True

    for _ in range(40):
        q = rng.randint(1, 200)
        u = rng.randint(1, 400)
        truth = sum(1 for m in range(1, u + 1) if rad_divides(m, q))
        assert count_smooth_wrt(q, u) == truth
        assert count_smooth_wrt(-q, u) == truth


def test_cyclotomic_small():
    assert cyclotomic(1).all_coeffs() == (-1, 1)
    assert cyclotomic(2).all_coeffs() == (1, 1)
    assert cyclotomic(4).all_coeffs() == (1, 0, 1)
    assert cyclotomic(6).all_coeffs() == (1, -1, 1)
    assert cyclotomic(12).all_coeffs() == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_and_product():
    for k in range(1, 31):
        assert cyclotomic(k).degree == euler_phi(k)
    # prod_{d | k} Phi_d(X) = X^k - 1
    for k in (6, 10, 12, 15):
        prod = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                f = cyclotomic(d).all_coeffs()
                out = [0] * (len(prod) + len(f) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(f):
                        out[i + j] += a * b
                prod = out
        expect = [-1] + [0] * (k - 1) + [1]
        assert prod == expect


def test_cyclotomic_against_sympy():
    from sympy.abc import x

    rng = random.Random(13)
    for _ in range(25):
        k = rng.randint(1, 120)
        ours = cyclotomic(k).all_coeffs()
        theirs = sympy.Poly(sympy.cyclotomic_poly(k, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient outside {-1,0,1} appears
    f = cyclotomic(105)
    assert f.all_coeffs()[7] == -2


# --- the strided totient sieve and the trial-division table ---------------

V_TABLE_BOUND = 8388608  # witness bound of totients_up_to(2^20), v(10^6)'s table


@pytest.fixture(scope="module")
def phi_at_v_table_bound():
    return _phi_sieve(V_TABLE_BOUND)


def test_phi_sieve_matches_sympy_up_to_5000():
    phi = _phi_sieve(5000)
    assert phi.dtype == np.int32 and phi[0] == 0
    assert [int(x) for x in phi[1:]] == [int(sympy.totient(k)) for k in range(1, 5001)]


def test_phi_sieve_random_k_at_v_table_bound(phi_at_v_table_bound):
    phi = phi_at_v_table_bound
    assert phi.shape == (V_TABLE_BOUND + 1,)
    rng = random.Random(0x5157)
    for _ in range(2000):
        k = rng.randint(1, V_TABLE_BOUND)
        assert int(phi[k]) == euler_phi(k), k


def test_phi_sieve_single_large_cofactor(phi_at_v_table_bound):
    # k = p*q with q prime > sqrt(bound): q is the cofactor left after the
    # small primes, applied by the gathered pass (two primes above sqrt(bound)
    # multiply past the bound, so p <= sqrt(bound) or p = 1)
    phi = phi_at_v_table_bound
    root = math.isqrt(V_TABLE_BOUND)
    qs = list(sympy.primerange(root + 1, root + 2000))
    qs += list(sympy.primerange(V_TABLE_BOUND - 400, V_TABLE_BOUND + 1))
    ps = [1, 2, 3, 4, 30, 97, 1009] + list(sympy.primerange(root - 100, root + 1))
    checked = 0
    for q in qs:
        for p in ps:
            if p * q <= V_TABLE_BOUND:
                assert int(phi[p * q]) == euler_phi(p * q), (p, q)
                checked += 1
    assert checked > 1000
    # the pair straddling sqrt(bound): 2887 * 2897
    k = sympy.prevprime(root + 1) * sympy.nextprime(root)
    assert k <= V_TABLE_BOUND and int(phi[k]) == euler_phi(k)


def test_phi_sieve_prime_powers_near_bound(phi_at_v_table_bound):
    phi = phi_at_v_table_bound
    for p in sympy.primerange(2, math.isqrt(V_TABLE_BOUND) + 1):
        e = 1
        while p ** (e + 1) <= V_TABLE_BOUND:
            e += 1
        assert int(phi[p**e]) == p ** (e - 1) * (p - 1), (p, e)


def test_phi_sieve_prime_square_at_its_own_bound():
    # a sieve of bound p^2 must divide out p itself; it is sqrt(bound) exactly
    for p in sympy.primerange(2, 200):
        phi = _phi_sieve(p * p)
        assert int(phi[p * p]) == p * (p - 1)
        assert int(phi[p]) == p - 1


def test_phi_sieve_refuses_int32_overflow():
    with pytest.raises(ValueError, match="int32"):
        _phi_sieve(2**31)
    with pytest.raises(ValueError, match="int32"):
        totients_up_to(2**30)  # witness bound 2^33


def test_phi_sieve_ceiling_is_two_to_28(monkeypatch):
    # 2^28 passes the guard and reaches the first allocation, which is
    # stopped here; one more is refused before it
    class Allocating(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Allocating

    monkeypatch.setattr(numtheory.np, "arange", refuse)
    with pytest.raises(Allocating):
        _phi_sieve(2**28)
    with pytest.raises(ValueError, match="ceiling 2\\^28"):
        _phi_sieve(2**28 + 1)


def test_largest_totient_below_answers_two_to_25():
    # the walk's first m is a totient: 2^25 = phi(2^26)
    assert largest_totient_below(2**25) == 2**25 == euler_phi(2**26)


def test_totient_walks_refuse_past_two_to_40(monkeypatch):
    # refused before anything is factored or tested for primality
    def refuse(*args):
        raise AssertionError("factored before the cap was checked")

    monkeypatch.setattr(numtheory, "factorize", refuse)
    monkeypatch.setattr(numtheory, "is_probable_prime", refuse)
    for fn in (largest_totient_below, max_totient_square_sum):
        with pytest.raises(ValueError, match=r"^v\(n\) and w\(n\) take n <= 2\^40, got 1099511627777$"):
            fn(2**40 + 1)


@pytest.mark.parametrize("n", [10.5, "10", 1.0])
def test_largest_totient_below_refuses_non_integer(n):
    # a float n never reaches an even m, so v's walk would not end; 1.0
    # would otherwise be answered before any integer-only call.  w reads
    # n the same way
    for fn in (largest_totient_below, max_totient_square_sum):
        with pytest.raises(TypeError):
            fn(n)


# --- v(n) by the inverse-totient walk, against the sieve table -------------


def test_largest_totient_below_matches_table_to_two_to_13():
    table = totients_up_to(2**13)
    ns = range(1, 2**13 + 1)
    assert [largest_totient_below(n) for n in ns] == [table.largest_below(n) for n in ns]


def test_largest_totient_below_matches_table_on_seeded_sample():
    table = totients_up_to(2**20)
    rng = random.Random(0x7074)
    # n = p^2 - 1 for p = 173, 317, 509 is no totient, and n + 1 = p^2 is
    # composite only by p = sqrt(n + 1): the trial primes must reach it
    for n in [rng.randint(1, 2**20) for _ in range(2000)] + [29928, 100488, 259080]:
        assert largest_totient_below(n) == table.largest_below(n), n


def test_largest_totient_below_at_record_gaps():
    # the n in [100, 1e5] where n - v(n) reaches a new maximum: the longest walks
    table = totients_up_to(2**17)
    records, worst = [], -1
    for n in range(100, 10**5 + 1):
        gap = n - table.largest_below(n)
        if gap > worst:
            records.append(n)
            worst = gap
    assert len(records) >= 5 and worst > 0
    assert [largest_totient_below(n) for n in records] == [table.largest_below(n) for n in records]


def test_is_totient_matches_table_membership():
    table = totients_up_to(2**14)
    found = [m for m in range(1, 2**14 + 1) if numtheory._is_totient(m)]
    assert found == list(table.values)


@pytest.mark.parametrize("limit", [1, 2, 3, 64, 1024])
def test_totient_table_equals_brute_set(limit):
    table = totients_up_to(limit)
    brute = set()
    for k in range(1, table.witness_bound + 1):
        v = int(sympy.totient(k))
        if v <= limit:
            brute.add(v)
    assert table.values == tuple(sorted(brute))
    assert all(type(v) is int for v in table.values)


def test_small_primes_match_sympy():
    primes = _small_primes()
    assert primes == tuple(sympy.primerange(2, 10**6))
    assert all(type(p) is int for p in primes)
