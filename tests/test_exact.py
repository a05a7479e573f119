"""Exact integer/rational linear algebra against cofactor oracles."""

import enum
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    charpoly_oracle,
    det_oracle,
    random_matrix,
    random_nonsingular,
    random_unimodular,
)
from matstat import experiments, lattices, multdep, numtheory
from matstat.errors import NegativePowerOfSingularError, SingularMatrixError
from matstat.lattices import Lattice
from matstat.exact import (
    IntMatrix,
    _adjugate,
    _echelon,
    _rref,
    MonicIntPoly,
    RationalMatrix,
    block_diag,
    mat_mul,
    charpoly,
    companion,
    det,
    inverse_rational,
    mat_pow,
    trace,
)


def test_int_matrix_basic():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.n == 2
    assert a.entry(1, 0) == 3
    assert a.max_abs_entry() == 4
    assert a.in_box(4) and not a.in_box(3)
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert IntMatrix.identity(3).is_identity()
    assert IntMatrix.from_flat(2, [1, 2, 3, 4]) == a
    assert (-a).rows == ((-1, -2), (-3, -4))


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(TypeError):
        IntMatrix([[1.5, 0], [0, 1]])
    with pytest.raises(TypeError):
        IntMatrix([[True, 0], [0, 1]])


def test_int_matrix_stores_exact_ints():
    # an int subclass is accepted and stored as a plain int, so products
    # built unchecked from the rows hold plain ints too
    class Two(enum.IntEnum):
        TWO = 2

    a = IntMatrix([[Two.TWO, 0], [0, 1]])
    assert all(type(x) is int for row in a.rows for x in row)
    assert a.rows == ((2, 0), (0, 1))


def test_integer_routines_refuse_anything_but_an_int_matrix():
    # they read the rows as integers: on diag(1/2, 3) det answered 1 (not
    # 3/2), inverse_rational and mat_pow(., -1) diag(2, 0), charpoly X^2 - 3X + 1
    q = RationalMatrix([[Fraction(1, 2), 0], [0, 3]])
    calls = [det, charpoly, inverse_rational] + [
        lambda a, k=k: mat_pow(a, k) for k in (-2, -1, 0, 1, 2)]
    for call in calls:
        for bad in (q, ((1, 0), (0, 3))):
            with pytest.raises(TypeError, match="IntMatrix"):
                call(bad)


def test_rational_matrix_takes_integers_and_fractions_only():
    for bad in (0.1, True, "1/3", np.float64(1.0), np.True_):
        with pytest.raises(TypeError, match=type(bad).__name__):
            RationalMatrix([[1, 0], [bad, 1]])
    r = RationalMatrix([[np.int64(3), Fraction(1, 3)], [2, np.int8(-1)]])
    assert r.rows == ((3, Fraction(1, 3)), (2, -1))
    assert all(type(x) is Fraction for row in r.rows for x in row)


def test_equality_is_symmetric_across_int_and_rational():
    a, q = IntMatrix([[1, 2], [3, 4]]), RationalMatrix([[1, 2], [3, 4]])
    assert a == q and q == a
    assert not (a != q) and not (q != a)
    assert hash(a) == hash(q)
    half = RationalMatrix([[Fraction(1, 2), 2], [3, 4]])
    assert a != half and half != a
    assert a != ((1, 2), (3, 4))


def test_matmul_and_hash():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    assert (a @ b).rows == ((2, 1), (1, 1))
    assert hash(a) == hash(IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        a @ IntMatrix([[1]])
    # products are stored unchecked, so only exact matrices go in
    q, rows = RationalMatrix([[1, 0], [0, 1]]), ((1, 0), (0, 1))
    for bad in (lambda: a @ q, lambda: mat_mul(a, q), lambda: a @ rows, lambda: q @ rows):
        with pytest.raises(TypeError):
            bad()
    assert RationalMatrix.from_int(a) @ b == a @ b


def test_det_frozen():
    assert det(IntMatrix([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix([[0, 1], [0, 0]])) == 0


def test_det_matches_cofactor_oracle():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(IntMatrix(rows)) == det_oracle(rows)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n, 6)
        b = random_matrix(rng, n, 6)
        assert det(a @ b) == det(a) * det(b)


def test_charpoly_convention():
    # f(X) = det(X*I - A); trace appears negated in the X^{n-1} coefficient
    a = IntMatrix([[1, 2], [3, 4]])
    f = charpoly(a)
    assert f.all_coeffs() == (-2, -5, 1)  # X^2 - 5X - 2
    assert f.degree == 2
    assert f(0) == -2  # det(0*I - A) = det(-A) = det(A) for n = 2
    assert f(1) == det(IntMatrix([[1 - 1, -2], [-3, 1 - 4]]))
    assert charpoly(IntMatrix.identity(3)).all_coeffs() == (-1, 3, -3, 1)


def test_charpoly_matches_oracle():
    rng = random.Random(0xBEEF)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert charpoly(IntMatrix(rows)) == charpoly_oracle(rows)


def test_charpoly_constant_term_is_det():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, 5)
        f = charpoly(a)
        assert f.coeffs[0] == (-1) ** n * det(a)
        assert f.coeffs[n - 1] == -trace(a)


def test_mat_pow_identity_and_inverse():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_unimodular(rng, n)
        assert mat_pow(a, 0).is_identity()
        p = mat_pow(a, 3) @ mat_pow(a, -3)
        assert p.is_identity()
        inv = mat_pow(a, -1)
        assert (inv @ RationalMatrix.from_int(a)).is_identity()


def test_exponents_are_read_as_integers():
    # a numpy exponent is an int: d ** -k must not run (and wrap) in int64
    a = IntMatrix([[10**7, 1], [0, 10**7]])
    assert mat_pow(a, np.int64(-3)) == mat_pow(a, -3)
    assert mat_pow(a, np.int64(-3)).rows[0][0] == Fraction(1, 10**21)
    for bad in (2.0, True, Fraction(2), "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            mat_pow(a, bad)


# Entry points that read integers, each called with x in one slot.  The
# polynomial and lattice entries read through exact._int_arg, which also
# refuses a bool; numtheory reads through operator.index, which takes one.
_INT_READ_BY_INT_ARG = {
    "MonicIntPoly": lambda x: MonicIntPoly((x, 0)),
    "charpoly_target": lambda x: experiments.charpoly_target(2, (x, 0, 1)),
    "Lattice": lambda x: Lattice(2, [(x, 0)]),
    "coordinates_of": lambda x: Lattice(2, [(1, 0)]).coordinates_of((x, 0)),
    "hnf_with_transform": lambda x: lattices.hnf_with_transform([[x, 0]]),
    "orthogonal_lattice": lambda x: lattices.orthogonal_lattice([(x, 1, 0)]),
    "dual_volume_check": lambda x: lattices.dual_volume_check((x, 1, 0)),
    "is_k_good": lambda x: lattices.is_k_good((1, x, 3), 3),
    "construct_torsion_block": lambda x: multdep.construct_torsion_block([x]),
}
_INT_READ_BY_INDEX = {
    "factorize": numtheory.factorize,
    "euler_phi": numtheory.euler_phi,
    "count_smooth_wrt": lambda x: numtheory.count_smooth_wrt(x, 10),
    "cyclotomic": numtheory.cyclotomic,
}


@pytest.mark.parametrize(
    "name, call",
    [*_INT_READ_BY_INT_ARG.items(), *_INT_READ_BY_INDEX.items()],
    ids=[*_INT_READ_BY_INT_ARG, *_INT_READ_BY_INDEX],
)
def test_integer_arguments_are_never_truncated(name, call):
    # int() would read 1.5 as 1, 2.0 as 2 and "2" as 2, and answer for them;
    # call(2) comes first, so a cache keyed by value alone would answer 2.0
    expected = repr(call(2))
    bad = (1.5, 2.0, "2") + ((True,) if name in _INT_READ_BY_INT_ARG else ())
    for x in bad:
        with pytest.raises((TypeError, ValueError)):
            call(x)
    assert repr(call(np.int64(2))) == expected


def test_mat_pow_singular_negative_raises():
    s = IntMatrix([[1, 2], [2, 4]])
    with pytest.raises(NegativePowerOfSingularError):
        mat_pow(s, -1)
    assert mat_pow(s, 0).is_identity()  # nonnegative powers still fine


def _exact_entries(m) -> bool:
    """Every entry a plain int, or a Fraction in lowest terms with a
    positive denominator: what the unchecked constructors must be given."""
    return all(
        type(x) is int
        or type(x) is Fraction and x.denominator > 0
        and math.gcd(x.numerator, x.denominator) == 1
        for row in m.rows
        for x in row
    )


def test_mat_pow_matches_sympy():
    # negative powers go through the integer adjugate; sympy inverts.  The
    # results are built unchecked, so their entries are checked here.
    rng = random.Random(0x90E)
    for n in range(2, 6):
        for _ in range(3):
            a = random_nonsingular(rng, n, 3)
            ref = sympy.Matrix([list(r) for r in a.rows])
            adj, d = _adjugate(a)
            assert _exact_entries(adj) and adj.rows == tuple(
                tuple(int(x) for x in ref.adjugate().row(i)) for i in range(n)
            ) and d == int(ref.det())
            assert _exact_entries(mat_mul(a, adj)) and _exact_entries(inverse_rational(a))
            for k in range(-4, 5):
                want = ref.inv() ** -k if k < 0 else ref ** k
                got = mat_pow(a, k)
                assert got.rows == tuple(
                    tuple(Fraction(int(x.p), int(x.q)) for x in want.row(i))
                    for i in range(n)
                ), (a.rows, k)
                assert _exact_entries(got) and all(
                    type(x) is Fraction for row in got.rows for x in row
                ), (a.rows, k)
    with pytest.raises(NegativePowerOfSingularError):
        mat_pow(IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), -2)


def test_inverse_rational():
    a = IntMatrix([[1, 2], [3, 4]])
    inv = inverse_rational(a)
    assert (inv @ RationalMatrix.from_int(a)).is_identity()
    assert inv.rows[0][0] == Fraction(-2)
    with pytest.raises(SingularMatrixError):
        inverse_rational(IntMatrix([[1, 1], [1, 1]]))


def _int_rows(max_rows, max_cols, min_rows=1, min_cols=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-3, 3), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def _to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(_int_rows(5, 6))
def test_rref_matches_sympy(rows):
    reduced, pivots = _rref(rows)
    ref, ref_pivots = sympy.Matrix(rows).rref()
    assert len(pivots) == sympy.Matrix(rows).rank()
    assert tuple(pivots) == ref_pivots
    assert reduced == [
        [_to_fraction(ref[i, j]) for j in range(ref.cols)] for i in range(len(pivots))
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _int_rows(n, n, n, n)))
def test_inverse_rational_matches_sympy(rows):
    ref = sympy.Matrix(rows)
    if ref.det() == 0:
        with pytest.raises(SingularMatrixError):
            inverse_rational(IntMatrix(rows))
        return
    inv = ref.inv()
    n = len(rows)
    assert inverse_rational(IntMatrix(rows)).rows == tuple(
        tuple(_to_fraction(inv[i, j]) for j in range(n)) for i in range(n)
    )


@settings(max_examples=200, deadline=None)
@given(_int_rows(6, 8), st.integers(-2, 2))
def test_echelon_matches_sympy(rows, c):
    if len(rows) > 1:
        # a rank-deficient variant: the last row joins the span of the others
        rows = rows[:-1] + [[c * x + y for x, y in zip(rows[0], rows[-2])]]
    ref, ref_pivots = sympy.Matrix(rows).rref()
    want = [[_to_fraction(ref[i, j]) for j in range(ref.cols)] for i in range(len(ref_pivots))]
    reduced, pivots, denom, _ = _echelon(rows, full=True)
    assert tuple(pivots) == ref_pivots
    assert all(type(x) is int for row in reduced for x in row) and type(denom) is int
    assert [[Fraction(x, denom) for x in row] for row in reduced] == want
    # the forward pass: same pivots, echelon rows spanning the same row space
    forward, fwd_pivots, _, _ = _echelon(rows, full=False)
    assert fwd_pivots == pivots and len(forward) == len(pivots)
    assert all(not any(row[: p]) and row[p] for row, p in zip(forward, pivots))
    fwd_ref = sympy.Matrix(forward).rref()[0] if forward else sympy.zeros(0, ref.cols)
    assert [[_to_fraction(fwd_ref[i, j]) for j in range(ref.cols)]
            for i in range(len(pivots))] == want


@st.composite
def _square_cases(draw):
    """n x n integer matrices, n <= 6: random ones, permuted triangular ones
    (nonsingular, and elimination must swap rows unless the permutation
    fixes the first pivot) and ones with a row a multiple of another."""
    n = draw(st.integers(1, 6))
    rows = draw(_int_rows(n, n, n, n))
    shape = draw(st.sampled_from(("random", "swapped", "singular")))
    if shape == "swapped":
        diag = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=n, max_size=n))
        tri = [[diag[i] if j == i else x * (j > i) for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
        rows = [tri[i] for i in draw(st.permutations(range(n)))]
    elif shape == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = [draw(st.integers(-2, 2)) * x for x in rows[j]] if i != j else [0] * n
    return rows


@settings(max_examples=120, deadline=None)
@given(_square_cases())
def test_det_and_adjugate_match_sympy(rows):
    ref = sympy.Matrix(rows)
    want = int(ref.det())
    a = IntMatrix(rows)
    assert det(a) == want
    adj, d = _adjugate(a)
    assert d == want
    if want == 0:
        assert adj is None
    else:
        n = len(rows)
        assert adj.rows == tuple(
            tuple(int(x) for x in ref.adjugate().row(i)) for i in range(n)
        )


@settings(max_examples=150, deadline=None)
@given(_int_rows(4, 5), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_lattice_refuses_dependent_bases(rows, coeffs):
    t = len(rows[0])
    if len(rows) > t:
        rows = rows[:t]
    if sympy.Matrix(rows).rank() < len(rows):
        with pytest.raises(ValueError, match="independent"):
            Lattice(t, rows)
        return
    assert Lattice(t, rows).rank == len(rows)
    if len(rows) < t:
        combo = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(t)]
        with pytest.raises(ValueError, match="independent"):
            Lattice(t, rows + [combo])


def test_rational_matrix_integrality():
    r = RationalMatrix([[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]])
    assert r == IntMatrix([[2, 1], [0, 1]])
    half = RationalMatrix([[Fraction(1, 2)]])
    assert half != IntMatrix([[0]]) and half != IntMatrix([[1]])


def test_companion_and_block_diag():
    f = MonicIntPoly((1, 0))  # X^2 + 1
    c = companion(f)
    assert c.rows == ((0, -1), (1, 0))
    assert charpoly(c) == f
    rng = random.Random(41)
    for _ in range(40):
        deg = rng.randint(1, 5)
        f = MonicIntPoly(tuple(rng.randint(-5, 5) for _ in range(deg)))
        assert charpoly(companion(f)) == f
    b = block_diag([IntMatrix([[2]]), IntMatrix([[0, 1], [1, 0]])])
    assert b.rows == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
    assert det(b) == -2


def test_monic_poly_interface():
    f = MonicIntPoly((6, -5))  # X^2 - 5X + 6 = (X-2)(X-3)
    assert f.degree == 2
    assert f(2) == 0 and f(3) == 0 and f(0) == 6
    assert f.all_coeffs() == (6, -5, 1)
    one = MonicIntPoly(())  # degree 0: the constant polynomial 1
    assert one.degree == 0 and one(12345) == 1


def test_charpoly_invariant_under_conjugation():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 3)
        a = random_matrix(rng, n, 4)
        u = random_unimodular(rng, n)
        ui = inverse_rational(u)
        conj = ui @ RationalMatrix.from_int(a) @ RationalMatrix.from_int(u)
        assert all(x.denominator == 1 for row in conj.rows for x in row)
        assert charpoly(IntMatrix([[x.numerator for x in row] for row in conj.rows])) == charpoly(a)
