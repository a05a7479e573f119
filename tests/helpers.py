"""Independent oracles and random generators for the test suite."""

from fractions import Fraction
import math
from itertools import product

import numpy as np

from matstat import kernels, multdep
from matstat.errors import BudgetExceededError
from matstat.exact import IntMatrix, MonicIntPoly, RationalMatrix, _adjugate, inverse_rational
from matstat.kernels import pair_count_table
from matstat.multdep import Word, det_relation_lattice
from matstat.numtheory import totients_up_to


def det_oracle(rows):
    """Cofactor-expansion determinant; exponential but obviously correct."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_oracle(minor)
    return total


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_scale(a, s):
    return [c * s for c in a]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_oracle(rows):
    """det(X*I - A) by polynomial cofactor expansion; returns MonicIntPoly."""
    n = len(rows)
    entries = [
        [[-rows[i][j]] if i != j else [-rows[i][j], 1] for j in range(n)]
        for i in range(n)
    ]

    def pdet(m):
        k = len(m)
        if k == 1:
            return m[0][0]
        acc = [0]
        for j in range(k):
            minor = [r[:j] + r[j + 1 :] for r in m[1:]]
            term = _poly_mul(m[0][j], pdet(minor))
            acc = _poly_add(acc, _poly_scale(term, 1 if j % 2 == 0 else -1))
        return acc

    coeffs = pdet(entries)
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    assert coeffs[n] == 1
    return MonicIntPoly(tuple(coeffs[:n]))


def random_matrix(rng, n, h):
    return IntMatrix([[rng.randint(-h, h) for _ in range(n)] for _ in range(n)])


def random_nonsingular(rng, n, h):
    while True:
        m = random_matrix(rng, n, h)
        if det_oracle([list(r) for r in m.rows]) != 0:
            return m


def random_unimodular(rng, n, steps=6, cap=3):
    """Product of elementary row shears; always determinant +-1."""
    if n == 1:
        return IntMatrix([[rng.choice([-1, 1])]])
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-cap, cap)
        for col in range(n):
            rows[i][col] += c * rows[j][col]
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return IntMatrix(rows)


def all_matrices(n, h):
    for flat in product(range(-h, h + 1), repeat=n * n):
        yield IntMatrix([list(flat[i * n : (i + 1) * n]) for i in range(n)])


def minima_oracle(basis, coeff_box=6):
    """Successive minima by scanning all small integer combinations."""
    rank = len(basis)
    t = len(basis[0])
    best = []
    vecs = []
    for coeffs in product(range(-coeff_box, coeff_box + 1), repeat=rank):
        if all(c == 0 for c in coeffs):
            continue
        v = tuple(
            sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(t)
        )
        vecs.append((sum(x * x for x in v), coeffs))
    vecs.sort()
    chosen = []
    import numpy as np

    for nsq, coeffs in vecs:
        trial = chosen + [coeffs]
        if np.linalg.matrix_rank(np.array(trial, dtype=float)) == len(trial):
            chosen.append(coeffs)
            best.append(nsq)
            if len(best) == rank:
                break
    return best


def kernel_word_oracle(mats, max_len, state_cap):
    """find_kernel_word's breadth-first search over Fraction matrix states.

    Same word order, deduplication on (matrix, exponent sums) and state
    count as the integer route, so both give the same Word, None or
    BudgetExceededError.
    """
    s = len(mats)
    if det_relation_lattice(mats).rank == 0:
        return None
    letters = [
        (i, sgn, step)
        for i, m in enumerate(mats)
        for sgn, step in ((1, RationalMatrix.from_int(m)), (-1, inverse_rational(m)))
    ]
    start = RationalMatrix.identity(mats[0].n)
    frontier = [(start, (0,) * s, ())]
    seen = {(start.rows, (0,) * s)}
    states = 1
    for _ in range(max_len):
        nxt = []
        for matx, sums, word in frontier:
            for i, sgn, step in letters:
                if word and word[-1] == (i, -sgn):
                    continue
                new_mat = matx @ step
                new_sums = tuple(
                    x + (sgn if j == i else 0) for j, x in enumerate(sums)
                )
                new_word = word + ((i, sgn),)
                if new_mat.is_identity() and any(new_sums):
                    return Word(new_word, new_sums)
                key = (new_mat.rows, new_sums)
                if key in seen:
                    continue
                seen.add(key)
                states += 1
                if states > state_cap:
                    raise BudgetExceededError(states, state_cap, "word search")
                nxt.append((new_mat, new_sums, new_word))
        frontier = nxt
    return None


def kernel_word_matrix_oracle(mats, max_len, state_cap):
    """find_kernel_word's search with IntMatrix states N / q.

    The same breadth-first order, deduplication on (N, q, exponent sums)
    and state count as the search on row tuples, but each step is an
    IntMatrix product rescaled by a separate gcd pass, so both give the
    same Word, None or BudgetExceededError.
    """
    s = len(mats)
    if det_relation_lattice(mats).rank == 0:
        return None
    letters = []
    for i, m in enumerate(mats):
        adj, d = _adjugate(m)
        letters += [(i, 1, m, 1), (i, -1, adj, d)]

    def reduced(num, den):
        g = math.gcd(den, *(x for row in num.rows for x in row)) * (1 if den > 0 else -1)
        if g == 1:
            return num, den
        return IntMatrix([[x // g for x in row] for row in num.rows]), den // g

    start, zero = IntMatrix.identity(mats[0].n), (0,) * s
    frontier = [(start, 1, zero, ())]
    seen = {(start.rows, 1, zero)}
    for _ in range(max_len):
        nxt = []
        for num, den, sums, word in frontier:
            for i, sgn, step, step_den in letters:
                if word and word[-1] == (i, -sgn):
                    continue
                new_num, new_den = reduced(num @ step, den * step_den)
                new_sums = tuple(x + sgn * (j == i) for j, x in enumerate(sums))
                new_word = word + ((i, sgn),)
                if new_den == 1 and new_num.is_identity() and any(new_sums):
                    return Word(new_word, new_sums)
                key = (new_num.rows, new_den, new_sums)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > state_cap:
                    raise BudgetExceededError(len(seen), state_cap, "word search")
                nxt.append((new_num, new_den, new_sums, new_word))
        frontier = nxt
    return None


def charpoly2_scan_int64(h, lo_t=None, hi_t=None):
    """kernels.charpoly2_scan by its former int64 route: one full-width
    slice of a reversed, padded pair table per product, over every d in
    [-2h^2, 2h^2] for each trace t <= 0 (weight 2 for t < 0)."""
    lo_t = -2 * h if lo_t is None else lo_t
    hi_t = 1 if hi_t is None else hi_t
    # its own int64 pair table, from the positive pair counts: the counts
    # of x*y = q over [-h, h]^2 indexed by q + halo, zero for |q| > h^2
    hh, halo = h * h, 3 * h * h + 1
    pos = 2 * pair_count_table(h)[1:]
    full_counts = np.zeros(2 * halo + 1, dtype=np.int64)
    full_counts[halo] = 4 * h + 1
    full_counts[halo + 1 : halo + hh + 1] = pos
    full_counts[halo - hh : halo] = pos[::-1]
    hh2 = 2 * hh
    width = 2 * hh2 + 1
    # cnt[j] (d = j - hh2) sums full_counts[p + hh2 + halo - j] over the
    # products p = a*(t - a), a in [-h, t + h]: a and t - a give one p, so
    # one forward slice of the reversed table per a <= t/2, doubled
    rev = full_counts[::-1].copy()
    top = full_counts.size - 1 - hh2 - halo
    total, best_c, best_t, best_d = 0, -1, 0, 0
    cnt = np.empty(width, dtype=np.int64)
    for tv in range(lo_t, hi_t):
        cnt[:] = 0
        for a in range(-h, tv // 2 + 1):
            s = top - a * (tv - a)
            cnt += rev[s : s + width]
        cnt *= 2
        if tv % 2 == 0:  # the last a, t/2, is its own partner
            cnt -= rev[s : s + width]
        total += (1 if tv == 0 else 2) * int(cnt.sum())
        j = int(np.argmax(cnt))
        if int(cnt[j]) > best_c:
            best_c, best_t, best_d = int(cnt[j]), tv, j - hh2
    return total, best_t, best_d, best_c


def census3_per_point(uf, usq, ksq, lo=0, hi=None):
    """kernels.census3 by its former per-point route: the extended gcd,
    the Gram entries of u^perp and the primitivity test gcd(gcd(u1, u2),
    u3) = 1 taken at every point of each block of kernels._domain_blocks,
    not once per (a, b) row."""
    if hi is None:
        hi = kernels.census_planes(usq)
    count = 0
    sums = [np.empty(0)]
    for u1, u2, u3 in kernels._domain_blocks(usq, lo, hi):
        keep = np.gcd(np.gcd(u1, u2), u3) == 1
        u1, u2, u3 = u1[keep], u2[keep], u3[keep]
        g1, x, y = kernels._xgcd_vec(u1, u2)
        deg = g1 == 0  # u = (0, 0, 1): dual is Z^2, Gram (1, 1, 0)
        g1 = g1 + deg
        n1 = (u1 * u1 + u2 * u2) // (g1 * g1)
        n2 = (x * x + y * y) * u3 * u3 + g1 * g1
        d12 = u3 * ((u1 * y - u2 * x) // g1)
        n1[deg] = n2[deg] = 1
        d12[deg] = 0
        for _ in range(128):
            n1, n2 = np.minimum(n1, n2), np.maximum(n1, n2)
            q = (2 * d12 + n1) // (2 * n1)
            if not np.any(q):
                break
            n2 -= q * (2 * d12 - q * n1)
            d12 -= q * n1
        bad = n2 > ksq
        u1, u2, u3 = u1[bad], u2[bad], u3[bad]
        w = kernels._orbit_size(u1, u2, u3)
        nsq = (u1 * u1 + u2 * u2 + u3 * u3).astype(np.float64)
        if not w.size:
            continue
        starts = np.flatnonzero((u1[1:] != u1[:-1]) | (u2[1:] != u2[:-1])) + 1
        count += int(w.sum())
        sums.append(np.add.reduceat(w * nsq**-1.5, np.r_[0, starts]))
    return count, np.concatenate(sums)


def domain_blocks_per_plane(usq, lo, hi):
    """kernels._domain_blocks by its former per-plane route: each plane a
    appends its (a, b) rows to the rows not yet yielded and takes a
    cumulative sum, then cuts blocks of at most kernels._BATCH points."""

    def points(ra, rb, rn):
        first = np.repeat(np.cumsum(rn) - rn, rn)
        b = np.repeat(rb, rn)
        return np.repeat(ra, rn), b, b + (np.arange(first.size) - first)

    ra = rb = rn = np.empty(0, dtype=np.int64)
    for a in range(lo, hi):
        rest = usq - a * a
        b = np.arange(a, math.isqrt(rest // 2) + 1, dtype=np.int64)
        ra = np.concatenate([ra, np.full_like(b, a)])
        rb = np.concatenate([rb, b])
        rn = np.concatenate([rn, kernels._isqrt(rest - b * b) - b + 1])
        cum = np.cumsum(rn)
        start, base = 0, 0
        while cum[-1] - base >= kernels._BATCH:
            end = max(start + 1, int(np.searchsorted(cum, base + kernels._BATCH, side="right")))
            yield points(ra[start:end], rb[start:end], rn[start:end])
            start, base = end, cum[end - 1]
        ra, rb, rn = ra[start:], rb[start:], rn[start:]
    if rn.size:
        yield points(ra, rb, rn)


def power_table_loop(a, m, p):
    """multdep._power_table_mod by its former route: A^e mod p for
    e = -m..m (index m + e), one n x n product per power in a loop."""
    fwd = np.array([[x % p for x in row] for row in a.rows], dtype=np.int64)
    adj, d = _adjugate(a)
    d_inv = pow(d, -1, p)
    inv = np.array([[x * d_inv % p for x in row] for row in adj.rows], dtype=np.int64)
    table = np.empty((2 * m + 1, a.n, a.n), dtype=np.int64)
    table[m] = np.eye(a.n, dtype=np.int64)
    for e in range(1, m + 1):
        table[m + e] = table[m + e - 1] @ fwd % p
        table[m - e] = table[m - e + 1] @ inv % p
    return table


def fingerprint_survivors_full_product(mats, dets, candidates):
    """multdep._fingerprint_survivors by its former route: the whole
    product A_1^{k_1}...A_s^{k_s} mod p of each candidate (s - 1 batched
    products per block of multdep._BLOCK_ENTRIES entries) compared with I
    entry by entry, over loop-built power tables."""
    ks = np.asarray(candidates, dtype=np.int64).reshape(-1, len(mats))
    n = mats[0].n
    p = multdep._fingerprint_prime(n, dets)
    if p is None or not len(ks):
        return [tuple(k) for k in ks.tolist()]
    ms = [int(m) for m in np.abs(ks).max(axis=0)]
    tables = [power_table_loop(a, m, p) for a, m in zip(mats, ms)]
    eye = np.eye(n, dtype=np.int64)
    step = max(1, multdep._BLOCK_ENTRIES // (n * n))
    keep = np.empty(len(ks), dtype=bool)
    for lo in range(0, len(ks), step):
        block = ks[lo : lo + step]
        prod = tables[0][block[:, 0] + ms[0]]
        for j in range(1, len(mats)):
            prod = prod @ tables[j][block[:, j] + ms[j]]
            prod %= p
        keep[lo : lo + step] = (prod == eye).all(axis=(1, 2))
    return [tuple(k) for k in ks[keep].tolist()]


def square_sum_dp(limit):
    """w(n) for 0 <= n <= limit as a tuple, by the dynamic program over n:
    w[n] is the max over totients a <= n of a^2 + w[n - a], read from the
    sieve table.  A Python loop over n, about 8 s at limit = 2^17."""
    vals = np.array(totients_up_to(limit).values, dtype=np.int64)
    squares = vals * vals
    w = np.zeros(limit + 1, dtype=np.int64)
    for n in range(1, limit + 1):
        usable = vals[vals <= n]  # never empty: 1 is a totient, so w[m] >= m
        w[n] = int(np.max(w[n - usable] + squares[: usable.size]))
    return tuple(int(x) for x in w)
