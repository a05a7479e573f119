"""Multiplicative number theory support: factoring, totients, cyclotomics.

Factoring is exact for arbitrary Python ints: trial division over a sieved
prime table below 10^6, then Brent-cycle Pollard rho with Miller-Rabin.
Primality below 10^6 is a lookup in that table; above it, Miller-Rabin is
deterministic below the 13-witness threshold and uses a fixed documented
witness set beyond it (error heuristically < 2^-80).

Totient tables come from a strided numpy sieve (`_phi_sieve`): each prime
p <= sqrt(N) scales phi by (1 - 1/p) on the slice phi[p::p] and is divided
out of a cofactor array along the slices of its powers p, p^2, ...; what
is left of each cofactor is 1 or a single prime q > sqrt(N), applied in one
gathered pass.  Both arrays are int32, exact because phi(k) <= k <= N.
A sieve bound N > 2^28 (about 2 GiB of int32 scratch) is refused with
ValueError before anything is allocated; that ceiling also keeps N inside
the int32 range.  The sieve serves only the public `totients_up_to` /
`TotientTable` API.

v(n) (`largest_totient_below`) and w(n) (`max_totient_square_sum`) build
no table: they walk down over even m <= n and decide each m = phi(k) by a
depth-first search over the primes p with p - 1 | m (`_is_totient`).  The
divisors of m come from `factorize` and each p from `is_probable_prime`,
which is exact for every m + 1 <= 2^40 + 1.  Both take n <= 2^40
(`_WALK_CAP`).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import ZeroArgumentError
from .exact import MonicIntPoly

__all__ = [
    "FactoredInt",
    "TotientTable",
    "factorize",
    "is_probable_prime",
    "euler_phi",
    "tau",
    "totients_up_to",
    "largest_totient_below",
    "max_totient_square_sum",
    "count_smooth_wrt",
    "cyclotomic",
]

_TRIAL_LIMIT = 10**6

# Deterministic Miller-Rabin witness set for n < 3317044064679887385961981.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Above the bound: first 40 primes as fixed witnesses.
_MR_BASES_LARGE = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173,
)


def _prime_mask(limit: int) -> np.ndarray:
    """Boolean array over 0..limit, True exactly at the primes."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


@lru_cache(maxsize=1)
def _small_primes() -> tuple:
    """The primes below _TRIAL_LIMIT as Python ints."""
    return tuple(np.flatnonzero(_prime_mask(_TRIAL_LIMIT - 1)).tolist())


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n below ~3.3e24.  n below 10^6 is
    looked up in the sieved table instead."""
    if n < _TRIAL_LIMIT:
        primes = _small_primes()
        i = bisect.bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES_SMALL if n < _MR_DETERMINISTIC_BOUND else _MR_BASES_LARGE
    for a in bases:  # every base is below n
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n, which has no prime factor
    below 10^6 (factorize divides those out first; Brent's cycle variant)."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        m = 128
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # batched gcd jumped past the factor; rewalk one step at a time
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if 1 < g < n:
            return g
        c += 1


@dataclass(frozen=True)
class FactoredInt:
    """Sign and prime factorization of a nonzero integer.

    `factors` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; the empty tuple represents +-1.
    """

    sign: int
    factors: Tuple[Tuple[int, int], ...]

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.factors)


def factorize(m: int) -> FactoredInt:
    """Exact prime factorization of a nonzero integer."""
    if m == 0:
        raise ZeroArgumentError("cannot factor 0")
    sign = 1 if m > 0 else -1
    m = abs(m)
    fac: Dict[int, int] = {}
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            fac[v] = fac.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return FactoredInt(sign, tuple(sorted(fac.items())))


def euler_phi(k: int) -> int:
    """Euler's totient of k >= 1."""
    if k < 1:
        raise ValueError("totient needs k >= 1")
    phi = 1
    for p, e in factorize(k).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def tau(k: int) -> int:
    """Number of positive divisors of |k|, k != 0."""
    if k == 0:
        raise ZeroArgumentError("tau(0) undefined")
    t = 1
    for _, e in factorize(k).factors:
        t *= e + 1
    return t


def _check_sieve_bound(limit: int) -> None:
    """Refuse a sieve bound past the int32 ceiling 2^28 (about 2 GiB)."""
    if limit > 2**28:
        raise ValueError(
            f"totient sieve bound {limit} is beyond the int32 sieve ceiling 2^28"
        )


def _phi_sieve(limit: int) -> np.ndarray:
    """phi(k) for 0 <= k <= limit as int32 (phi(0) = 0).

    For each prime p <= sqrt(limit): phi[p::p] -= phi[p::p] // p, and p is
    divided out of rest[k] = k along the slices rest[q::q] for q = p, p^2,
    ... <= limit.  A k <= limit has at most one prime factor above
    sqrt(limit), so every rest[k] > 1 left over is that prime q, and one
    gathered pass applies phi -= phi // q.  Each step divides exactly.
    Raises ValueError for limit > 2^28, before allocating.
    """
    _check_sieve_bound(limit)
    phi = np.arange(limit + 1, dtype=np.int32)
    rest = phi.copy()
    for p in np.flatnonzero(_prime_mask(math.isqrt(limit))).tolist():
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= limit:
            rest[q::q] //= p
            q *= p
    big = np.flatnonzero(rest > 1)
    phi[big] -= phi[big] // rest[big]
    return phi


@dataclass(frozen=True)
class TotientTable:
    """All totient values up to `limit`, with the scan bound that proves
    completeness.

    A value m <= limit is a totient iff phi(k) = m for some k; every such k
    satisfies k <= witness_bound by the lower bound
    phi(k) > k / (e^gamma loglog k + 3/loglog k), so scanning k up to
    witness_bound witnesses every totient <= limit.
    """

    limit: int
    values: tuple
    witness_bound: int

    def __contains__(self, m: int) -> bool:
        i = bisect.bisect_left(self.values, m)
        return i < len(self.values) and self.values[i] == m

    def largest_below(self, n: int) -> int:
        """Largest totient value <= n (n >= 1; 1 is always a totient)."""
        if n < 1 or n > self.limit:
            raise ValueError("n out of table range")
        i = bisect.bisect_right(self.values, n)
        return self.values[i - 1]


def _totient_witness_bound(limit: int) -> int:
    """Smallest convenient K with phi(k) > limit guaranteed for all k > K."""
    egamma = 1.7810724179901979
    k = max(64, 2 * limit)
    while True:
        ll = math.log(math.log(k))
        lower = k / (egamma * ll + 3.0 / ll)
        # 1% slack absorbs any float rounding in the bound evaluation
        if lower > 1.01 * limit:
            return k
        k *= 2


@lru_cache(maxsize=8)
def totients_up_to(limit: int) -> TotientTable:
    """Table of every totient value <= limit."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    bound = _totient_witness_bound(limit)
    phi = _phi_sieve(bound)[1:]
    seen = np.zeros(limit + 1, dtype=bool)
    seen[phi[phi <= limit]] = True
    return TotientTable(limit, tuple(np.flatnonzero(seen).tolist()), bound)


# v(n) and w(n) take n <= 2^40.  Their walks factor each candidate with
# factorize, whose trial division grows as sqrt(n) up to the primes below
# 10^6 (n ~ 10^12), and test each candidate prime with Miller-Rabin.  On a
# 2-vCPU Xeon, 200 seeded n in [2^39, 2^40] took 2.2-2.3 ms mean (11-12 ms
# worst) for v and 3.3-3.9 ms mean (17-21 ms worst) for w.
_WALK_CAP = 2**40


def _check_walk(n: int) -> None:
    """Refuse n past _WALK_CAP, before anything is factored."""
    if n > _WALK_CAP:
        raise ValueError(f"v(n) and w(n) take n <= 2^40, got {n}")


def largest_totient_below(n: int) -> int:
    """v(n): the largest totient value <= n, for 1 <= n <= 2^40.

    Walks m = n, n - 2, ... down over even m and returns the first totient;
    p - 1 is one for every prime p, so the walk ends by the largest
    p - 1 <= n.  A non-integer n raises TypeError.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_walk(n)
    if n == 1:
        return 1
    m = n - n % 2
    while not _is_totient(m):
        m -= 2
    return m


def _is_totient(m: int) -> bool:
    """Whether m = phi(k) for some k, from the divisors of m alone.

    phi(k) = prod (p - 1) p^(a-1) over the prime powers p^a || k, so every
    such p - 1 divides m: the candidates are the primes p = d + 1 for the
    divisors d of m that are 1 or even.  A depth-first search over them in
    increasing order divides the rest by (p - 1) p^(a-1), memoised on
    (rest, index) for this call.  is_probable_prime is exact here, as
    m + 1 <= 2^40 + 1 lies far below its deterministic bound.
    """
    if m == 1:
        return True
    if m % 2:
        return False
    if is_probable_prime(m + 1):  # m = phi(m + 1)
        return True
    cands = [d + 1 for d in _divisors(m)
             if (d == 1 or d % 2 == 0) and is_probable_prime(d + 1)]
    memo: Dict[Tuple[int, int], bool] = {}

    def search(rest: int, i: int) -> bool:
        # past index 0 every p - 1 is even, and m itself is even
        if rest % 2:
            return rest == 1
        key = (rest, i)
        if key not in memo:
            memo[key] = False
            for j in range(i, len(cands)):
                p = cands[j]
                if p - 1 > rest:
                    break
                if rest % (p - 1):
                    continue
                r = rest // (p - 1)
                while not search(r, j + 1):
                    if r % p:
                        break
                    r //= p
                else:
                    memo[key] = True
                    break
        return memo[key]

    return search(m, 0)


def max_totient_square_sum(n: int) -> int:
    """w(n): max of sum(phi(k_j)^2) over ways to write n as a sum of
    totient values (repeats allowed), for 0 <= n <= 2^40.  w(0) = 0.

    w(m) is the max over totients a <= m of a^2 + w(m - a), starting from
    m, the all-ones partition.  Taking a as the largest part of a best
    partition, which for m >= 2 is even (totients above 1 are), the walk
    tries even a = m, m - 2, ... and stops once a m <= best: a partition
    whose parts are all at most a has square sum at most a m.  So each
    level tries the a within about twice a prime gap of m, and the
    w(m - a) it needs, memoised for this call, are far smaller than m.
    A non-integer n raises TypeError.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_walk(n)
    memo: Dict[int, int] = {}

    def w(m: int) -> int:
        if m not in memo:
            best = m
            a = m - m % 2
            while a * m > best:
                if _is_totient(a):
                    best = max(best, a * a + w(m - a))
                a -= 2
            memo[m] = best
        return memo[m]

    return w(n)


def count_smooth_wrt(q: int, u) -> int:
    """Count integers 1 <= m <= u whose prime divisors all divide q.

    Exact DFS over prime powers of rad(q); m = 1 always counts.
    """
    if q == 0:
        raise ZeroArgumentError("q must be nonzero")
    uf = math.floor(u)
    if uf < 1:
        return 0
    primes = factorize(q).primes
    def rec(i: int, room: int) -> int:
        if i == len(primes):
            return 1
        p = primes[i]
        total = 0
        while True:
            total += rec(i + 1, room)
            if room < p:
                break
            room //= p
        return total
    return rec(0, uf)


def _poly_divexact(num: list, den: list) -> list:
    """Exact division of integer polynomials (coefficients low-to-high)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        assert c % lead == 0
        q = c // lead
        out[i] = q
        if q:
            for j, y in enumerate(den):
                num[i + j] -= q * y
    assert all(x == 0 for x in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> MonicIntPoly:
    """The kth cyclotomic polynomial, exact over Z.

    Computed by the recursive division X^k - 1 = prod_{d | k} Phi_d(X);
    degree is phi(k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return MonicIntPoly((-1,))
    num = [0] * (k + 1)
    num[0] = -1
    num[k] = 1
    for d in _divisors(k):
        if d < k:
            phi_d = cyclotomic(d)
            num = _poly_divexact(num, list(phi_d.all_coeffs()))
    assert num[-1] == 1
    return MonicIntPoly(tuple(num[:-1]))


def _divisors(k: int) -> list:
    divs = [1]
    for p, e in factorize(k).factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
