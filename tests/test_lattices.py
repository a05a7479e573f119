"""Integer kernels, reduction, box counts, goodness, and the census."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import minima_oracle
from matstat import kernels, lattices
from matstat.errors import BudgetExceededError
from matstat.lattices import (
    DEFAULT_NODE_CAP,
    Lattice,
    _enumerate_ball,
    _lll,
    _NodeBudget,
    dual_volume_check,
    hnf_with_transform,
    integer_kernel,
    is_k_good,
    is_primitive,
    kbad_census,
    lattice_points_in_box,
    norm_sq,
    orthogonal_lattice,
    points_in_box,
    reduced_basis,
    successive_minima,
)


def _random_primitive(rng, t, h=9):
    while True:
        v = tuple(rng.randint(-h, h) for _ in range(t))
        if any(v) and is_primitive(v):
            return v


def test_lattice_validation():
    lat = Lattice(2, ((1, 0), (0, 1)))
    assert lat.rank == 2 and lat.gram_det() == 1
    with pytest.raises(ValueError):
        Lattice(2, ((1, 1), (2, 2)))  # dependent rows
    empty = Lattice(3, ())
    assert empty.rank == 0 and empty.gram_det() == 1


def test_lattice_membership_roundtrip():
    rng = random.Random(0xAB)
    for _ in range(60):
        t = rng.randint(2, 4)
        r = rng.randint(1, t)
        rows = []
        while len(rows) < r:
            cand = [rng.randint(-4, 4) for _ in range(t)]
            try:
                Lattice(t, rows + [cand])
            except ValueError:
                continue
            rows.append(cand)
        lat = Lattice(t, rows)
        coeffs = [rng.randint(-5, 5) for _ in range(r)]
        v = tuple(
            sum(c * b[i] for c, b in zip(coeffs, lat.basis)) for i in range(t)
        )
        assert lat.contains(v)
        assert lat.coordinates_of(v) == tuple(coeffs)


def test_hnf_transform_is_unimodular():
    rng = random.Random(0xCD)
    from matstat.exact import IntMatrix, det

    for _ in range(60):
        m = rng.randint(1, 4)
        t = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(t)] for _ in range(m)]
        h, u = hnf_with_transform(rows)
        assert abs(det(IntMatrix(u))) == 1
        # U * rows == h
        for i in range(m):
            for j in range(t):
                s = sum(u[i][k] * rows[k][j] for k in range(m))
                assert s == h[i][j]


def test_integer_kernel_examples():
    # 4x + 2y = 0 over Z: kernel generated by (1, -2)
    basis = integer_kernel([[4, 2]], 2)
    assert len(basis) == 1
    assert basis[0] in ((1, -2), (-1, 2))
    # full kernel when there are no constraints
    assert list(integer_kernel([], 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # trivial kernel
    assert list(integer_kernel([[1, 0], [0, 1]], 2)) == []


def test_integer_kernel_properties():
    rng = random.Random(0xEF)
    for _ in range(80):
        t = rng.randint(2, 5)
        m = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(t)] for _ in range(m)]
        basis = integer_kernel(rows, t)
        for v in basis:
            assert all(sum(r[i] * v[i] for i in range(t)) == 0 for r in rows)
        # saturation: every small integer solution lies in the span
        lat = Lattice(t, basis) if basis else None
        for cand in product(range(-3, 4), repeat=t):
            if all(sum(r[i] * cand[i] for i in range(t)) == 0 for r in rows):
                if any(cand):
                    assert lat is not None and lat.contains(cand)


def _int_matrix(max_rows, max_cols, bound):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=150, deadline=None)
@given(_int_matrix(4, 5, 6))
def test_hnf_with_transform_against_sympy(rows):
    h, u = hnf_with_transform(rows)
    a = sympy.Matrix(rows)
    assert abs(sympy.Matrix(u).det()) == 1
    assert sympy.Matrix(u) * a == sympy.Matrix(h)
    # echelon shape: rank nonzero rows on strictly increasing pivots, then zeros
    rank = a.rank()
    lead = [next((j for j, x in enumerate(row) if x), None) for row in h]
    assert all(c is None for c in lead[rank:])
    pivots = lead[:rank]
    assert None not in pivots and pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert h[i][c] > 0
        assert all(0 <= h[k][c] < h[i][c] for k in range(i))


@settings(max_examples=150, deadline=None)
@given(_int_matrix(3, 5, 5))
def test_integer_kernel_against_sympy(rows):
    t = len(rows[0])
    a = sympy.Matrix(rows)
    basis = integer_kernel(rows, t)
    r = len(basis)
    assert r == t - a.rank()
    if not r:
        return
    k = sympy.Matrix(basis)
    assert a * k.T == sympy.zeros(len(rows), r)
    assert k.rank() == r
    # the same span over Q as sympy's nullspace
    assert sympy.Matrix.hstack(k.T, *a.nullspace()).rank() == r
    # saturated: the maximal minors of the basis have gcd 1
    minors = (k.extract(list(range(r)), list(cols)).det() for cols in combinations(range(t), r))
    assert reduce(math.gcd, (abs(int(m)) for m in minors)) == 1


def test_orthogonal_lattice_and_volume():
    # frozen: dual of (1,0,5) has gram det 26 and minima 1, 26
    lat = orthogonal_lattice([(1, 0, 5)])
    assert lat.rank == 2
    assert lat.gram_det() == 26
    minima, vecs = successive_minima(lat)
    assert minima == (1, 26)
    assert all(sum(a * b for a, b in zip(v, (1, 0, 5))) == 0 for v in vecs)
    assert dual_volume_check((1, 0, 5))


def test_dual_volume_identity_random():
    rng = random.Random(0x1234)
    for _ in range(150):
        t = rng.randint(2, 6)
        v = _random_primitive(rng, t)
        assert dual_volume_check(v)


_small_vectors = st.integers(1, 4).flatmap(
    lambda t: st.integers(0, t).flatmap(
        lambda r: st.tuples(
            st.lists(
                st.lists(st.integers(-4, 4), min_size=t, max_size=t),
                min_size=r,
                max_size=r,
            ),
            st.lists(st.integers(-4, 4), min_size=t, max_size=t),
            st.integers(1, 3),
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(_small_vectors)
def test_coordinates_and_contains_on_and_off_span(case):
    rows, w, q = case
    t = len(w)
    assume(sympy.Matrix(rows or [[0] * t]).rank() == len(rows))
    # the first basis vector scaled by q: sum k_i b_i then has first
    # coordinate k_0 / q, a lattice point exactly when q divides k_0
    basis = [[q * x for x in rows[0]]] + rows[1:] if rows else []
    lat = Lattice(t, basis)
    ks = w[: len(rows)]
    v = tuple(sum(k * b[i] for k, b in zip(ks, rows)) for i in range(t))
    expect = tuple(Fraction(k, q if j == 0 else 1) for j, k in enumerate(ks))
    assert lat.coordinates_of(v) == expect
    assert lat.contains(v) == (not ks or ks[0] % q == 0)
    # w lies in the span exactly when appending it keeps the rank
    in_span = sympy.Matrix(rows + [w]).rank() == len(rows)
    coords = lat.coordinates_of(w)
    assert (coords is not None) == in_span
    if coords is not None:
        assert tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(t)) == tuple(w)
    else:
        assert not lat.contains(w)


def _members(basis):
    """Membership in the lattice spanned by the rows of `basis`, as a
    boolean mask over the rows of an int64 array: w = x B has x = w_J M^-1
    for the columns J of a nonsingular minor M of B, by sympy."""
    b = sympy.Matrix(basis)
    cols = list(b.rref()[1])
    minor = b[:, cols]
    adj = np.array(minor.adjugate().tolist(), dtype=np.int64)
    det = int(minor.det())
    barr = np.array(basis, dtype=np.int64)

    def member(grid):
        y = grid[:, cols] @ adj
        ok = (y % det == 0).all(axis=1)
        return ok & ((y // det) @ barr == grid).all(axis=1)

    return member


def _ball_scan(t, bound_sq, member):
    """The nonzero w in Z^t with |w|^2 <= bound_sq that `member` accepts,
    by a scan of the box |w|_inf <= isqrt(bound_sq)."""
    r = math.isqrt(bound_sq)
    grid = np.array(list(product(range(-r, r + 1), repeat=t)), dtype=np.int64)
    grid = grid[((grid * grid).sum(axis=1) <= bound_sq) & member(grid)]
    return {w for w in map(tuple, grid.tolist()) if any(w)}


def _greedy_minima(t, rank, bound_sq, member):
    """Brute force: the lattice vectors of _ball_scan sorted by (|w|^2, w),
    then the greedy independent choice by sympy rank."""
    chosen = []
    for nsq, w in sorted((norm_sq(w), w) for w in _ball_scan(t, bound_sq, member)):
        if sympy.Matrix(chosen + [w]).rank() == len(chosen) + 1:
            chosen.append(w)
        if len(chosen) == rank:
            break
    return tuple(norm_sq(w) for w in chosen), tuple(chosen)


def _fraction_gram_schmidt(basis):
    """Test oracle: mu and |b*_i|^2 by textbook Gram-Schmidt over Fractions."""
    bstar, mu, bsq = [], {}, []
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i, j] = sum(Fraction(x) * y for x, y in zip(b, bstar[j])) / bsq[j]
            v = [x - mu[i, j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        bsq.append(sum(x * x for x in v))
    return mu, bsq


def _random_basis(rng, t, r, kind):
    """r independent vectors in Z^t: small entries, a skewed chain (each
    vector plus a large multiple of the previous one), a common factor, or
    entries scaled by 1, 7 or 50 each (sparse lattices, often full rank)."""
    rows = []
    while len(rows) < r:
        cand = [rng.randint(-6, 6) for _ in range(t)]
        if kind == "scaled":
            cand = [rng.choice((1, 1, 7, 50)) * x for x in cand]
        if kind == "skewed" and rows:
            cand = [x + rng.randint(-60, 60) * y for x, y in zip(cand, rows[-1])]
        if kind == "non-primitive":
            cand = [rng.choice((2, 3, 6)) * x for x in cand]
        try:
            Lattice(t, rows + [cand])
        except ValueError:
            continue
        rows.append(cand)
    return rows


@pytest.mark.parametrize("kind", ["small", "skewed", "non-primitive"])
def test_lll_output_is_reduced_and_spans_the_same_lattice(kind):
    rng = random.Random(f"lll-{kind}")
    for _ in range(40):
        r = rng.randint(1, 6)
        t = rng.randint(r, 6)
        rows = _random_basis(rng, t, r, kind)
        out, d, lam = _lll(rows)
        mu, bsq = _fraction_gram_schmidt(out)
        for i in range(r):
            for j in range(i):
                assert abs(mu[i, j]) <= Fraction(1, 2)  # size-reduced
        for k in range(1, r):
            assert bsq[k] >= (Fraction(99, 100) - mu[k, k - 1] ** 2) * bsq[k - 1]
        # the integral data it returns: d[i+1] = prod |b*_k|^2, lam = d[j+1] mu
        assert d[0] == 1
        for i in range(r):
            assert d[i + 1] == d[i] * bsq[i]
            for j in range(i):
                assert lam[i][j] == d[j + 1] * mu[i, j]
        reduced = Lattice(t, out)
        assert reduced.gram_det() == Lattice(t, rows).gram_det()
        assert all(reduced.contains(v) for v in rows)


def test_lll_rounds_ties_to_even():
    # mu = 5/2 rounds to 2, as round() on a Fraction does (half up gives 3
    # and the basis ((-1, 1), (1, 1)))
    assert _lll([(2, 0), (5, 1)])[0] == [(1, 1), (1, -1)]


def test_enumeration_budget_on_rank_three():
    lat = orthogonal_lattice([(1, 2, 3, 4)])
    # every node of the integer Fincke-Pohst interval fits the bound, so the
    # caps below are exact node counts: 9 for the minima, on half the ball
    # (15 = 2 * 9 - 3 on the full ball, 29 when its intervals had a +-1
    # slack).  The box count charges every row of each layer: 2549 with the
    # box cutting the intervals (6551 when only the covering ball of squared
    # radius 4 * 10^2 did)
    for count, nodes in ((lambda cap: successive_minima(lat, cap), 9),
                         (lambda cap: points_in_box(lat, 10, cap), 2549)):
        for cap in (5, nodes - 1):
            with pytest.raises(BudgetExceededError) as err:
                count(cap)
            assert err.value.budget == cap and err.value.needed > cap
        count(nodes)
    assert successive_minima(lat, 9) == successive_minima(lat)
    assert points_in_box(lat, 10, 2549) == points_in_box(lat, 10)


def test_successive_minima_picks_greedy_vectors():
    # the last minimum bounds every vector a correct greedy scan picks
    rng = random.Random(0x5EED)
    for _ in range(40):
        t = rng.randint(2, 5)
        u = _random_primitive(rng, t, 4)
        minima, vecs = successive_minima(orthogonal_lattice([u]))
        orthogonal = lambda grid, u=u: grid @ np.array(u) == 0
        assert (minima, vecs) == _greedy_minima(t, t - 1, minima[-1], orthogonal)
    # non-primitive bases, every rank; only boxes of up to 10^5 points
    checked = 0
    while checked < 30:
        t = rng.randint(2, 5)
        basis = _random_basis(rng, t, rng.randint(1, t), "non-primitive")
        lat = Lattice(t, basis)
        minima, vecs = successive_minima(lat)
        if (2 * math.isqrt(minima[-1]) + 1) ** t > 10 ** 5:
            continue
        assert (minima, vecs) == _greedy_minima(t, lat.rank, minima[-1], _members(basis))
        checked += 1


def test_ball_search_yields_one_of_each_sign_pair():
    # the last nonzero coefficient is positive, no v comes with -v, and the
    # vectors with their negatives are the whole ball
    rng = random.Random("half-ball")
    for _ in range(60):
        t = rng.randint(1, 4)
        basis = _random_basis(rng, t, rng.randint(1, t), rng.choice(("small", "skewed")))
        red, d, lam = _lll(basis)
        bound = rng.choice((1, 2, 5, 10, 20, 40))
        out = list(_enumerate_ball(red, d, lam, bound, _NodeBudget(DEFAULT_NODE_CAP)))
        vecs = {v for _, v, _ in out}
        assert len(vecs) == len(out)
        for coeffs, v, nsq in out:
            assert [x for x in coeffs if x][-1] > 0
            assert tuple(-x for x in v) not in vecs
            assert v == tuple(sum(c * b[k] for c, b in zip(coeffs, red)) for k in range(t))
            assert nsq == norm_sq(v) <= bound
        negatives = {tuple(-x for x in v) for v in vecs}
        assert vecs | negatives == _ball_scan(t, bound, _members(basis))


def _gram_spans(lat, vectors):
    """The check the minima once went through: their Gram determinant
    equals the lattice's."""
    gram = [[sum(x * y for x, y in zip(v, w)) for w in vectors] for v in vectors]
    return sympy.Matrix(gram).det() == lat.gram_det()


def test_spanning_decided_by_the_coefficient_determinant():
    # |det C| = 1 for the coefficients C of the minima in the LLL basis
    # exactly when their Gram determinant is the lattice's
    # (lattices whose ball search needs more than 2 10^4 nodes are passed over)
    rng = random.Random("spans")
    cases = [Lattice(n, tuple(tuple(2 * (i == j) for j in range(n)) for i in range(n - 1))
                     + ((1,) * n,)) for n in (4, 5, 6)]
    for _ in range(200):
        t = rng.randint(1, 6)
        kind = rng.choice(("small", "skewed", "non-primitive", "scaled"))
        cases.append(Lattice(t, _random_basis(rng, t, rng.randint(1, t), kind)))
    # 2Z^n + Zv for v in {0, +-1}^n of weight w: from w = 5 on only the
    # 2e_i attain the minima; each basis skewed by one unimodular step
    for _ in range(40):
        n = rng.randint(4, 6)
        support = rng.sample(range(n), rng.randint(1, n))
        v = [rng.choice((1, -1)) * (i in support) for i in range(n)]
        basis = [[2 * (i == j) for j in range(n)] for i in range(n) if i != support[0]] + [v]
        a, b = rng.sample(range(n), 2)
        basis[a] = [x + rng.randint(-5, 5) * y for x, y in zip(basis[a], basis[b])]
        cases.append(Lattice(n, basis))
    checked = refused = 0
    for lat in cases:
        try:
            minima, vectors, spans, red = lattices._minima(lat, 2 * 10 ** 4)
        except BudgetExceededError:
            continue
        assert spans == _gram_spans(lat, vectors)
        assert reduced_basis(lat) == (vectors if spans else
                                      tuple(sorted(red, key=lambda v: (norm_sq(v), v))))
        checked += 1
        refused += not spans
    # n = 4: (1, 1, 1, 1) has length 2 too, and the greedy choice spans
    assert [lattices._minima(lat, DEFAULT_NODE_CAP)[2] for lat in cases[:3]] == [True, False, False]
    assert checked >= 200 and refused >= 5, (checked, refused)


def test_successive_minima_against_oracle():
    rng = random.Random(0x777)
    for _ in range(50):
        t = rng.randint(2, 3)
        v = _random_primitive(rng, t, 6)
        lat = orthogonal_lattice([v])
        minima, vecs = successive_minima(lat)
        assert list(minima) == minima_oracle([list(b) for b in lat.basis])
        for m, w in zip(minima, vecs):
            assert norm_sq(w) == m
            assert lat.contains(w)


def test_rank_zero_lattice():
    lat = Lattice(3, ())
    assert successive_minima(lat) == ((), ())
    assert reduced_basis(lat) == ()
    assert lattice_points_in_box(lat, 2) == [(0, 0, 0)]


def test_reduced_basis_falls_back_to_lll_when_minima_do_not_span():
    # L = 2Z^5 + Z(1,1,1,1,1): the minima (4,4,4,4,4) are attained by the
    # +-2e_i only, which span an index-2 sublattice, so LLL's basis is kept
    lat = Lattice(5, tuple(tuple(2 * (i == j) for j in range(5)) for i in range(4))
                  + ((1, 1, 1, 1, 1),))
    assert lat.gram_det() == 256
    assert successive_minima(lat)[0] == (4, 4, 4, 4, 4)
    basis = reduced_basis(lat)
    norms = [norm_sq(v) for v in basis]
    assert norms == sorted(norms) and len(basis) == 5
    assert norms[-1] > 4  # the LLL basis, not the minima
    assert Lattice(5, basis).gram_det() == 256
    assert all(lat.contains(v) for v in basis)
    # rank 7 > 6: no minima search, the LLL basis sorted by length
    z7 = Lattice(7, tuple(tuple(int(i == j) for j in range(7)) for i in range(7)))
    basis = reduced_basis(z7)
    assert sorted(basis) == sorted(z7.basis) and Lattice(7, basis).gram_det() == 1


def test_rank_four_minimal_vectors_need_not_span():
    # in L = 2Z^4 + Z(1,1,1,1) the 2e_i attain every minimum but span
    # index 2: their coefficients in the LLL basis have determinant +-2, so
    # the check refuses them, where some other choice spans
    lat = Lattice(4, ((1, 1, 1, 1), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)))
    doubled = tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4))
    assert successive_minima(lat)[0] == (4, 4, 4, 4) == tuple(map(norm_sq, doubled))
    assert Lattice(4, doubled).gram_det() == 4 * lat.gram_det()
    red = Lattice(4, _lll(lat.basis)[0])
    coeffs = sympy.Matrix([red.coordinates_of(v) for v in doubled])
    assert all(x.is_integer for x in coeffs) and abs(coeffs.det()) == 2
    basis = reduced_basis(lat)
    assert basis != doubled and Lattice(4, basis).gram_det() == lat.gram_det()
    assert [norm_sq(v) for v in basis] == [4, 4, 4, 4]


def test_reduced_basis_achieves_minima():
    rng = random.Random(0x888)
    for _ in range(40):
        t = rng.randint(2, 4)
        v = _random_primitive(rng, t, 7)
        lat = orthogonal_lattice([v])
        basis = reduced_basis(lat)
        minima, _ = successive_minima(lat)
        assert tuple(norm_sq(b) for b in basis) == minima
        assert Lattice(t, basis).gram_det() == lat.gram_det()


def test_points_in_box_matches_scan():
    rng = random.Random(0x999)
    for _ in range(50):
        t = rng.randint(2, 3)
        v = _random_primitive(rng, t, 6)
        lat = orthogonal_lattice([v])
        h = rng.randint(1, 8)
        naive = 0
        for w in product(range(-h, h + 1), repeat=t):
            if lat.contains(w):
                naive += 1
        assert points_in_box(lat, h) == naive
        listed = lattice_points_in_box(lat, h)
        assert len(listed) == naive
        assert len(set(listed)) == naive
        assert all(max(abs(x) for x in w) <= h or not any(w) for w in listed)


def test_points_in_box_frozen():
    assert points_in_box(Lattice(2, ((1, 0), (0, 1))), 1) == 9
    assert points_in_box(Lattice(2, ((2, 0), (0, 2))), 3) == 9
    assert points_in_box(orthogonal_lattice([(1, 1)]), 2) == 5
    assert points_in_box(Lattice(2, ()), 5) == 1  # rank 0: origin only


def test_negative_box_bound_is_refused():
    # no point has sup norm <= -1, not even the origin
    for lat in (Lattice(2, ((1, 0), (0, 1))), Lattice(3, ())):
        for count in (points_in_box, lattice_points_in_box):
            with pytest.raises(ValueError, match="box bound must be >= 0"):
                count(lat, -1)


def test_points_in_box_fractional_bound():
    lat = Lattice(1, ((2,),))
    assert points_in_box(lat, 5) == 5  # -4,-2,0,2,4
    assert points_in_box(lat, 3.9) == 3
    # every bound type is read exactly: float32 and float64, Fraction, numpy ints
    for box in (np.float32(4.5), np.float64(4.5), Fraction(9, 2), np.int64(4), 4):
        assert points_in_box(lat, box) == 5
        assert sorted(lattice_points_in_box(lat, box)) == [(-4,), (-2,), (0,), (2,), (4,)]
    assert is_k_good((1, 2), np.float32(2.25)).good  # floor(2.25^2) = 5
    assert not is_k_good((1, 2), np.float32(2.125)).good  # floor(4.515625) = 4
    with pytest.raises(ValueError, match="box bound must be >= 0"):
        points_in_box(lat, np.float32(-0.5))


def _grid_reference(lat, hf):
    """Box points by the naive scan of every integer point of the box."""
    return {w for w in product(range(-hf, hf + 1), repeat=lat.ambient_dim) if lat.contains(w)}


def _ball_reference(lat, hf):
    """Box points by the route successive_minima keeps: Fincke-Pohst over
    the covering ball of squared radius t hf^2, each v it yields with -v,
    filtered on the sup norm."""
    out = {(0,) * lat.ambient_dim}
    if lat.rank:
        ball = _enumerate_ball(
            *_lll(lat.basis), lat.ambient_dim * hf * hf, _NodeBudget(DEFAULT_NODE_CAP)
        )
        for _, v, _ in ball:
            if max(map(abs, v)) <= hf:
                out |= {v, tuple(-x for x in v)}
    return out


def _box_cases(seed, count):
    """Seeded lattices in Z^1..Z^5 of every rank, with small, skewed and
    non-primitive bases, and box bounds from 0 up, some fractional."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(1, 5)
        r = rng.randint(1, t)
        kind = rng.choice(("small", "skewed", "non-primitive", "scaled"))
        lat = Lattice(t, _random_basis(rng, t, r, kind))
        yield lat, rng.choice((0, 1, 2, Fraction(5, 2), 3.75, 4, 6))


def test_box_listing_matches_grid_scan_and_ball():
    for lat, bound in _box_cases("box-listing", 120):
        hf = math.floor(bound)
        listed = lattice_points_in_box(lat, bound)
        assert len(set(listed)) == len(listed) == points_in_box(lat, bound)
        assert set(listed) == _ball_reference(lat, hf)
        if (2 * hf + 1) ** lat.ambient_dim <= 800:
            assert set(listed) == _grid_reference(lat, hf)


@settings(max_examples=150, deadline=None)
@given(
    _int_matrix(4, 4, 9),
    st.integers(-30, 30),
    st.one_of(st.integers(0, 5), st.fractions(0, 5, max_denominator=4)),
)
def test_box_listing_against_ball_property(rows, skew, bound):
    # skew the basis by adding a multiple of the last row to the first
    t = len(rows[0])
    assume(len(rows) <= t and sympy.Matrix(rows).rank() == len(rows))
    if len(rows) > 1:
        rows = [[x + skew * y for x, y in zip(rows[0], rows[-1])]] + rows[1:]
    lat = Lattice(t, rows)
    listed = lattice_points_in_box(lat, bound)
    assert len(listed) == points_in_box(lat, bound)
    assert set(listed) == _ball_reference(lat, math.floor(bound))


def test_box_listing_charges_no_more_nodes_than_the_ball():
    # every interval of a layer lies inside the one Fincke-Pohst gives the
    # same prefix, so the box listing never needs a larger node cap than
    # the full ball, which charges 2 n - rank nodes for the n of its half
    rng = random.Random("box-nodes")
    cases = list(_box_cases("box-nodes", 80))
    cases += [(Lattice(t, _random_basis(rng, t, t, "scaled")), 12) for t in (3, 4, 5) for _ in range(4)]
    for lat, bound in cases:
        hf = math.floor(bound)
        box, ball = _NodeBudget(DEFAULT_NODE_CAP), _NodeBudget(DEFAULT_NODE_CAP)
        listed = {tuple(w) for blk in lattices._box_blocks(lat.basis, hf, box) for w in blk.tolist()}
        half = {v for _, v, _ in _enumerate_ball(*_lll(lat.basis), lat.ambient_dim * hf * hf, ball)
                if max(map(abs, v)) <= hf}
        inside = half | {tuple(-x for x in v) for v in half}
        assert listed == inside | {(0,) * lat.ambient_dim}
        assert box.cap - box.left <= 2 * (ball.cap - ball.left) - lat.rank


def test_box_count_of_a_sparse_full_rank_lattice():
    # determinant ~1.6e16 in Z^5: the covering ball search needs 2227 nodes
    # at box 60 (1116 on the half that _enumerate_ball visits), a listing by
    # coordinate prefixes (x_0 in [-60, 60], then x_1, ...) more than 2e7
    sparse = Lattice(5, [[2, 50, -2, -14, 100], [-7, 1, 100, 50, -1], [1, 0, 50, 0, 2],
                         [-50, 1, 1, -50, 7], [2, -2, -2, 100, 0]])
    assert points_in_box(sparse, 30, 87) == 5
    assert points_in_box(sparse, 60, 2227) == 213
    assert set(lattice_points_in_box(sparse, 60)) == _ball_reference(sparse, 60)


def test_isqrt_on_both_dtypes():
    # near squares up to 2^62, where float sqrt rounds across an integer
    vals = list(range(20)) + [k * k + e for k in (2**20 + 7, 3 * 2**29 + 1, 2**31 - 1)
                              for e in (-1, 0, 1, 2 * k)]
    assert lattices._isqrt(np.array(vals, dtype=np.int64)).tolist() == list(map(math.isqrt, vals))
    big = [10**40 - 1, 10**40, 3**90]
    assert lattices._isqrt(np.array(big, dtype=object)).tolist() == list(map(math.isqrt, big))


def test_box_listing_in_tiny_blocks_is_unchanged(monkeypatch):
    # blocks of 8 rows split every layer, and even one row's interval,
    # across blocks; counts, point sets and node counts must not move
    cases = list(_box_cases("box-blocks", 60))
    cases.append((orthogonal_lattice([(1, 2, 3, 4)]), 10))

    def run():
        out = []
        for lat, bound in cases:
            budget = _NodeBudget(DEFAULT_NODE_CAP)
            hf = math.floor(bound)
            rows = [tuple(w) for blk in lattices._box_blocks(lat.basis, hf, budget)
                    for w in blk.tolist()]
            out.append((points_in_box(lat, bound), set(lattice_points_in_box(lat, bound)),
                        sorted(rows), budget.cap - budget.left))
        return out

    wide = run()
    monkeypatch.setattr(lattices, "_BOX_BLOCK_ROWS", 8)
    assert run() == wide
    assert any(spent > 8 for *_, spent in wide)


def test_box_listing_int64_guard():
    # answers of the Fincke-Pohst route, pinned; the 2**61 entries would
    # overflow int64 arithmetic, so the layers run on Python ints there
    huge = Lattice(2, ((1, 1), (0, 2)))
    for count in (points_in_box, lattice_points_in_box):
        with pytest.raises(BudgetExceededError):
            count(huge, 10**30)
    wide = Lattice(2, ((1, 2**62), (0, 3)))
    assert points_in_box(wide, 5) == len(lattice_points_in_box(wide, 5)) == 41
    assert set(lattice_points_in_box(wide, 5)) == _grid_reference(wide, 5)
    skew = Lattice(3, ((1, 2**61, 3), (0, 5, 2**61)))
    assert points_in_box(skew, 4) == 1
    assert lattice_points_in_box(skew, 4) == [(0, 0, 0)]
    # a bound past 2**62: x_i in {-2..2}, then {-1, 0, 1}, per coordinate
    coarse = Lattice(2, ((2**61, 0), (0, 2**61)))
    assert points_in_box(coarse, 2**62) == len(lattice_points_in_box(coarse, 2**62)) == 25
    assert points_in_box(coarse, 2**62 - 1) == 9
    # points (-x, x, x): the third coordinate is (x_0 + x_1) 2^70 + x_1
    tilted = Lattice(3, ((1, 0, 2**70), (0, 1, 2**70 + 1)))
    assert set(lattice_points_in_box(tilted, 3)) == {(-x, x, x) for x in range(-3, 4)}
    assert points_in_box(tilted, 3) == 7


def test_box_counts_do_not_enumerate_the_ball(monkeypatch):
    def refuse(*args):
        raise AssertionError("box listing went through the L2 ball")

    monkeypatch.setattr(lattices, "_enumerate_ball", refuse)
    lat = orthogonal_lattice([(1, 2, 3, 4)])
    assert points_in_box(lat, 10) == len(lattice_points_in_box(lat, 10)) == 2193


def test_is_k_good_frozen():
    g = is_k_good((1, 0, 5), 4)
    assert not g.good and g.verdict == "bad"
    assert g.minima_sq == (1, 26)
    assert is_k_good((1, 0, 5), 6).good
    assert is_k_good((1, 1), 2).good
    assert not is_k_good((1, 1), 1).good
    with pytest.raises(ValueError):
        is_k_good((2, 4), 3)  # not primitive
    with pytest.raises(ValueError):
        is_k_good((1, 1), 0.5)


@pytest.mark.parametrize("k,line", [
    *((k, "K must be a finite number")
      for k in ("inf", "nan", "abc", "5/0", float("inf"), np.float32("nan"))),
    *((k, "K must be at most 1.7976931348623157e+308") for k in ("1e400", 10**400)),
])
def test_unreadable_k_is_refused_by_name(k, line):
    for call in (lambda: is_k_good((1, 2), k), lambda: kbad_census(3, 6, k)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == line


def test_k_text_is_read_exactly():
    verdict = is_k_good((1, 2), "5/2")
    assert verdict.bound == 2.5 and verdict.good  # floor(K^2) = 6 >= 5
    assert not is_k_good((1, 2), "2.2").good  # floor(4.84) = 4 < 5
    assert kbad_census(3, 6, "5/2").count == kbad_census(3, 6, Fraction(5, 2)).count


def test_is_k_good_boundary_square():
    # minima_sq of dual of (1,2) in Z^2 is 5; K = sqrt(5) via float
    v = (1, 2)
    assert is_k_good(v, math.sqrt(5) + 1e-9).good
    assert not is_k_good(v, 2).good  # floor(K^2) = 4 < 5
    assert is_k_good(v, np.int64(2**32)).good  # K^2 = 2^64 in Python ints, not wrapped to 0


def test_census_generic_vs_kernel():
    gen = kbad_census(3, 6, 2, method="generic")
    ker = kbad_census(3, 6, 2, method="auto")
    assert gen.count == ker.count == 720
    assert abs(gen.inv_norm_sum - ker.inv_norm_sum) < 1e-9
    assert gen.method == "generic"
    assert ker.method.startswith("kernel-")


def test_census_kernel_alias_is_refused():
    with pytest.raises(ValueError):
        kbad_census(3, 6, 2, method="kernel")


def test_census_kernel_vs_generic_random_fractional_k():
    rng = random.Random(0x3C3)
    for _ in range(5):
        u = Fraction(rng.randint(6, 11), 2)
        den = rng.randint(2, 3)
        k = Fraction(rng.randint(den + 1, int(u) * den), den)
        gen = kbad_census(3, u, k, method="generic")
        ker = kbad_census(3, u, k, method="auto")
        assert gen.count == ker.count, (u, k)
        assert abs(gen.inv_norm_sum - ker.inv_norm_sum) <= (
            gen.sum_error_bound + ker.sum_error_bound), (u, k)


def test_census_norm_sum_matches_full_signed_box():
    # at K = 1 every primitive u is K-bad except the unit vectors, whose
    # dual Z^2 has lambda_2 = 1
    import numpy as np

    uf = 40
    axis = np.arange(-uf, uf + 1, dtype=np.int64)
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    nsq = a * a + b * b + c * c
    bad = (np.gcd(np.gcd(a, b), c) == 1) & (nsq > 1) & (nsq <= uf * uf)
    r = kbad_census(3, uf, 1)
    assert r.count == int(np.count_nonzero(bad))
    want = math.fsum(float(n) ** -1.5 for n in nsq[bad].tolist())
    assert abs(r.inv_norm_sum - want) <= r.sum_error_bound


def test_census_collect_and_fields():
    r = kbad_census(3, 4, 1.9, collect=True, method="generic")
    assert r.bad_vectors is not None
    assert len(r.bad_vectors) == r.count
    assert all(is_primitive(u) for u in r.bad_vectors)
    assert all(norm_sq(u) <= 16 for u in r.bad_vectors)
    # signed census: u and -u are distinct members
    s = set(r.bad_vectors)
    assert all(tuple(-x for x in u) in s for u in s)
    expect = math.fsum(norm_sq(u) ** -1.5 for u in r.bad_vectors)
    assert abs(r.inv_norm_sum - expect) < 1e-12
    assert r.sum_error_bound >= 0


def test_census_empty_when_k_at_least_u():
    for u, k in ((5, 5), (8, 8), (8, 9.5)):
        assert kbad_census(3, u, k).count == 0


@pytest.mark.parametrize("t,method", [(3, "auto"), (3, "generic"), (4, "auto")])
def test_census_refuses_parts_and_threads_below_one_on_every_path(t, method):
    for parts, threads, name in ((0, 1, "parts"), (0, -2, "parts"), (1, -2, "threads")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            kbad_census(t, 3, 1, method=method, parts=parts, threads=threads)


def test_census_parts_threads_invariant(monkeypatch):
    base = kbad_census(3, 12, 3, parts=1, threads=1)
    for parts, threads in ((4, 1), (4, 4), (7, 2)):
        r = kbad_census(3, 12, 3, parts=parts, threads=threads)
        assert r.count == base.count
    a = kbad_census(3, 12, 3, parts=5, threads=1)
    b = kbad_census(3, 12, 3, parts=5, threads=3)
    assert a.inv_norm_sum == b.inv_norm_sum  # fixed parts: bitwise equal
    # any parts: the norm sum is one fsum over per-row sums, bitwise equal
    # however the planes are split (no threshold, so the parts really run)
    monkeypatch.setattr(kernels, "_POOL_MIN_S", 0)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
    runs = [kbad_census(3, 100, 8, parts=parts, threads=2) for parts in (1, 3, 8)]
    assert len({(r.count, r.inv_norm_sum.hex()) for r in runs}) == 1


def test_census_validation():
    with pytest.raises(ValueError):
        kbad_census(2, 5, 2)
    with pytest.raises(ValueError):
        kbad_census(3, 5, 0.5)
    # U is read before K, whose default ceil(sqrt(U)) is 0 at U = 0
    with pytest.raises(ValueError, match="U must be >= 1"):
        kbad_census(3, 0, 0)
    assert kbad_census(3, np.float32(6.5), np.float32(2)).count == kbad_census(3, 6.5, 2).count
    with pytest.raises(BudgetExceededError):
        kbad_census(3, 50, 3, method="generic", node_cap=100)
    with pytest.raises(ValueError):
        kbad_census(3, 20_000, 3)  # past the census kernel's int64 range


def test_census_t4_generic():
    r = kbad_census(4, 3, 1, method="generic")
    assert r.count >= 0  # smoke: generic path supports t > 3
    # every bad vector found must actually fail goodness
    rc = kbad_census(4, 3, 1, collect=True)
    for u in rc.bad_vectors:
        assert not is_k_good(u, 1).good


def _census_by_scan(t, u, k):
    """Brute force: every primitive u in the signed box with |u|^2 <= U^2,
    in box (lexicographic) order, judged by is_k_good."""
    uf, usq = math.floor(Fraction(u)), math.floor(Fraction(u) ** 2)
    bad = [
        v for v in product(range(-uf, uf + 1), repeat=t)
        if any(v) and is_primitive(v) and norm_sq(v) <= usq and not is_k_good(v, k).good
    ]
    return bad, math.fsum(norm_sq(v) ** (-t / 2.0) for v in bad)


@pytest.mark.parametrize(
    "t,u,k", [(4, 3, 2), (4, 3, Fraction(3, 2)), (4, Fraction(7, 2), Fraction(9, 4)),
              (5, Fraction(5, 2), 2), (5, Fraction(5, 2), Fraction(3, 2))])
def test_census_orbits_match_signed_box_scan(t, u, k):
    bad, inv_sum = _census_by_scan(t, u, k)
    assert 0 < len(bad) < kbad_census(t, u, 1).count  # some u good, some bad
    r = kbad_census(t, u, k)
    assert r.method == "generic"
    assert r.count == len(bad)
    assert abs(r.inv_norm_sum - inv_sum) <= r.sum_error_bound
    rc = kbad_census(t, u, k, collect=True)
    assert rc.bad_vectors == tuple(bad)
    assert rc.count == r.count and rc.inv_norm_sum == r.inv_norm_sum


def test_census_box_precheck_is_unchanged():
    # the generic path still refuses a signed box larger than node_cap
    # before reducing any orbit, though it now visits far fewer points
    with pytest.raises(BudgetExceededError) as err:
        kbad_census(4, 3, 2, node_cap=7**4 - 1)
    assert err.value.needed == 7**4
    assert kbad_census(4, 3, 2, node_cap=7**4).count == kbad_census(4, 3, 2).count


def test_census_kernel_charges_its_triples_to_node_cap():
    # the t = 3 kernel refuses C(floor(U)+3, 3) sorted triples above
    # node_cap before it scans, and still checks its U <= 10^4 range first
    with pytest.raises(BudgetExceededError, match="^census kernel") as err:
        kbad_census(3, 2000, 3, node_cap=1)
    assert err.value.needed == math.comb(2003, 3) and err.value.budget == 1
    need = math.comb(63, 3)  # 39711, the benchmark's U = 60
    with pytest.raises(BudgetExceededError):
        kbad_census(3, 60.5, 8, node_cap=need - 1)
    assert kbad_census(3, 60.5, 8, node_cap=need).count == kbad_census(3, 60.5, 8).count
    with pytest.raises(ValueError, match="U must be in"):
        kbad_census(3, 20_000, 3, node_cap=1)


def test_budget_errors_carry_context():
    try:
        kbad_census(3, 50, 3, method="generic", node_cap=10)
    except BudgetExceededError as e:
        assert e.budget == 10 and e.needed > 10
        assert "exceeds budget" in str(e)
    else:
        pytest.fail("expected BudgetExceededError")
