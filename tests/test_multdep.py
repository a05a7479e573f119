"""Dependence search vs brute force, relation lattices, constructions."""

import random
from itertools import product

import numpy as np
import pytest

from helpers import (
    fingerprint_survivors_full_product,
    kernel_word_matrix_oracle,
    kernel_word_oracle,
    power_table_loop,
    random_nonsingular,
    random_unimodular,
)
from matstat import exact, multdep
from matstat.errors import BudgetExceededError, NegativePowerOfSingularError, SingularMatrixError
from matstat.exact import (
    IntMatrix,
    MonicIntPoly,
    RationalMatrix,
    _adjugate,
    companion,
    det,
    mat_pow,
)
from matstat.multdep import (
    Word,
    alternating_relation_vector,
    check_relation,
    construct_even,
    construct_odd,
    construct_torsion_block,
    det_relation_lattice,
    find_dependence,
    find_kernel_word,
    is_maximal_rank_dependent,
    tuple_rank,
    unipotent_shear_pair,
)
from matstat.numtheory import cyclotomic


ROT4 = IntMatrix([[0, -1], [1, 0]])  # order 4
ROT6 = IntMatrix([[0, -1], [1, 1]])  # order 6 (companion of X^2 - X + 1)


def brute_force_dependence(mats, bound):
    """Plain scan over every k in the box, smallest (linf, l2, lex) first."""
    s = len(mats)
    candidates = [
        k
        for k in product(range(-bound, bound + 1), repeat=s)
        if any(k)
    ]
    candidates.sort(
        key=lambda k: (max(abs(x) for x in k), sum(x * x for x in k), k)
    )
    for k in candidates:
        if check_relation(mats, k):
            return k
    return None


def test_check_relation_fixture():
    # order matters: A^2 B^3 = I but B^2 A^3 is a nontrivial shear
    assert check_relation([ROT4, ROT6], (2, 3))
    assert not check_relation([ROT6, ROT4], (2, 3))
    assert check_relation([ROT4, ROT6], (0, 0))  # empty product
    assert check_relation([ROT4], (4,))
    assert not check_relation([ROT4], (2,))
    with pytest.raises(ValueError):
        check_relation([ROT4], (1, 2))


def test_check_relation_reads_exponents_as_integers():
    # numpy integers are integers; a float is refused, not truncated
    pair = unipotent_shear_pair(4)
    assert check_relation(pair, (np.int64(4), np.int32(-3)))
    assert check_relation(pair, np.array([4, -3]))
    for bad in ((4.5, -3), (4.9, -3.2), (4, -3.0), (True, 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            check_relation(pair, bad)


def test_check_relation_negative_exponents():
    a = IntMatrix([[1, 1], [0, 1]])
    assert check_relation([a, a], (3, -3))
    assert check_relation([a, a @ a], (2, -1))


def test_check_relation_reads_a_singular_matrix_only_at_negative_exponents(monkeypatch):
    # only the matrices with k_i < 0 are eliminated, so a singular one with
    # k_i >= 0 is multiplied as it is
    proj = IntMatrix([[1, 0], [0, 0]])
    assert check_relation([proj, ROT4], (0, 4))
    assert not check_relation([proj, ROT4], (2, 4))
    with pytest.raises(NegativePowerOfSingularError, match="negative power -1"):
        check_relation([ROT4, proj], (4, -1))
    eliminated = []
    adjugate = exact._adjugate

    def spy(m):
        eliminated.append(m)
        return adjugate(m)

    monkeypatch.setattr(multdep, "_adjugate", spy)
    assert check_relation([proj, ROT4, ROT6], (0, -4, 6))
    assert eliminated == [ROT4]


def test_det_relation_lattice_examples():
    lat = det_relation_lattice([IntMatrix([[4]]), IntMatrix([[2]])])
    assert lat.rank == 1
    assert lat.contains((1, -2)) and not lat.contains((1, -1))
    lat0 = det_relation_lattice(
        [IntMatrix([[6]]), IntMatrix([[10]]), IntMatrix([[15]])]
    )
    assert lat0.rank == 0
    full = det_relation_lattice([IntMatrix.identity(2), IntMatrix.identity(2)])
    assert full.rank == 2 and full.gram_det() == 1


def test_det_relation_lattice_sign_parity():
    pos = IntMatrix([[1, 0], [0, 1]])
    neg = IntMatrix([[1, 0], [0, -1]])
    lat = det_relation_lattice([pos, neg])
    assert lat.contains((1, 0))
    assert lat.contains((0, 2))
    assert not lat.contains((0, 1))  # det -1 needs an even exponent
    both = det_relation_lattice([neg, neg])
    assert both.contains((1, 1)) and both.contains((1, -1))
    assert not both.contains((1, 0))


def test_det_relation_is_necessary_condition():
    rng = random.Random(0xABCD)
    for _ in range(40):
        s = rng.randint(1, 3)
        mats = [random_nonsingular(rng, 2, 2) for _ in range(s)]
        lat = det_relation_lattice(mats)
        for _ in range(20):
            k = tuple(rng.randint(-4, 4) for _ in range(s))
            if not any(k):
                continue
            prod_det = 1
            for m, e in zip(mats, k):
                prod_det *= det(m) ** e if e >= 0 else 1
            if check_relation(mats, k):
                assert lat.contains(k)


def test_find_dependence_matches_brute_force():
    rng = random.Random(0x1E57)
    agreements = 0
    for _ in range(60):
        mats = [random_nonsingular(rng, 2, 3) for _ in range(2)]
        bound = 4
        ours = find_dependence(mats, bound)
        brute = brute_force_dependence(mats, bound)
        assert (ours is None) == (brute is None), [m.rows for m in mats]
        if ours is not None:
            assert check_relation(mats, ours)
            # same canonical minimizer as the brute-force ordering
            assert ours == brute, [m.rows for m in mats]
            agreements += 1
    assert agreements >= 5  # random pairs do produce witnesses sometimes


def test_find_dependence_deterministic():
    mats = [ROT4, ROT6]
    first = find_dependence(mats, 6)
    assert first == find_dependence(mats, 6)
    assert first is not None and check_relation(mats, first)


def test_find_dependence_bound_default_and_validation():
    pair = unipotent_shear_pair(3)
    assert find_dependence(pair) is not None  # default bound covers H
    with pytest.raises(ValueError):
        find_dependence(pair, 0)
    with pytest.raises(SingularMatrixError):
        find_dependence([IntMatrix([[1, 0], [0, 0]])])


def test_find_dependence_torsion_singleton():
    # ordering is (|k|_inf, |k|_2, lex), so the negative witness wins ties
    assert find_dependence([ROT4], 6) == (-4,)
    assert find_dependence([IntMatrix.identity(2)], 6) == (-1,)
    assert find_dependence([IntMatrix([[2]])], 64) is None


def test_shear_pair_witness():
    for h in range(2, 7):
        pair = unipotent_shear_pair(h)
        k = find_dependence(pair, h)
        assert k is not None
        assert tuple(abs(x) for x in k) == (h, h - 1)
        assert check_relation(pair, k)
        assert find_dependence(pair, h - 1) is None
    with pytest.raises(ValueError):
        unipotent_shear_pair(1)


def test_tuple_rank():
    pair = unipotent_shear_pair(3)
    assert tuple_rank(pair, 3) == 1  # dependent pair of independent shears
    assert tuple_rank(pair, 2) == 2  # witness out of reach at bound 2
    assert tuple_rank([IntMatrix.identity(2)], 5) == 0
    assert tuple_rank([ROT4, ROT6], 6) == 0  # every singleton is torsion
    a = IntMatrix([[2, 0], [0, 1]])
    b = IntMatrix([[3, 0], [0, 1]])
    assert tuple_rank([a, b], 8) == 2


def test_is_maximal_rank_dependent():
    pair = unipotent_shear_pair(4)
    assert is_maximal_rank_dependent(pair, 4)
    assert not is_maximal_rank_dependent(pair, 3)  # not dependent at all
    assert not is_maximal_rank_dependent([ROT4, ROT6], 6)  # subtuples torsion
    assert is_maximal_rank_dependent([ROT4], 6)  # s = 1: dependent suffices


def test_subtuples_are_searched_in_the_whole_tuples_default_box():
    # S = I_20 + 40 E_12 (infinite order) and T = companion(Phi_66), of
    # order 66: the pair's default box is 80, T's own only 64
    rows = [[int(i == j) for j in range(20)] for i in range(20)]
    rows[0][1] = 40
    s, t = IntMatrix(rows), companion(cyclotomic(66))
    assert find_dependence([t]) is None and find_dependence([t], 80) == (-66,)
    # T^66 = I lies in the pair's box, so the subtuple (T) is dependent
    assert is_maximal_rank_dependent([s, t], None) is False
    assert is_maximal_rank_dependent([s, t], 80) is False
    # an order-2 matrix with an entry 40 in place of S: every singleton is
    # torsion within the pair's box
    flip = [[int(i == j) for j in range(20)] for i in range(20)]
    flip[0][1], flip[1][1] = 40, -1
    assert tuple_rank([IntMatrix(flip), t], None) == tuple_rank([IntMatrix(flip), t], 80) == 0


def test_find_kernel_word_fixture():
    w = find_kernel_word([ROT4, ROT6], 6)
    assert isinstance(w, Word)
    assert len(w) == 4
    assert w.exponent_sums == (4, 0)
    # replay the word
    prod = RationalMatrix.identity(2)
    mats = [ROT4, ROT6]
    for i, sgn in w.letters:
        prod = prod @ mat_pow(mats[i], sgn)
    assert prod.is_identity()


def test_find_kernel_word_none_cases():
    assert find_kernel_word([IntMatrix([[2]])], 8) is None  # det obstruction
    shear = IntMatrix([[1, 1], [0, 1]])
    assert find_kernel_word([shear], 5) is None  # infinite order
    with pytest.raises(BudgetExceededError):
        find_kernel_word([ROT4, ROT6, unipotent_shear_pair(2)[0]], 8, state_cap=10)


def test_find_kernel_word_negative_and_nonunit_dets():
    # letters A (det 2) and B^-1 = adj(B) / -2 (det -2): the denominators
    # must be normalised to q > 0 and reduced for A B^-1 A B^-1 to close
    a = IntMatrix([[-2, -1], [0, -1]])
    b = IntMatrix([[-1, 1], [1, 1]])
    w = find_kernel_word([a, b], 6)
    assert w == Word(((0, 1), (1, -1), (0, 1), (1, -1)), (2, -2))
    assert w == kernel_word_oracle([a, b], 6, 10**6)
    assert find_kernel_word([a, b], 3) is None


def test_find_kernel_word_matches_fraction_route():
    # integer N/q states against Fraction states on tuples with some
    # det != +-1: same word, same None, same state count at the cap
    def outcome(search, mats, max_len, cap):
        try:
            return search(mats, max_len, cap)
        except BudgetExceededError as exc:
            return ("budget", exc.needed)

    rng = random.Random(2024)
    seen = {"word": 0, "none": 0, "budget": 0}
    for _ in range(120):
        n, s = rng.choice((1, 2, 2, 3)), rng.choice((1, 2, 2, 3))
        mats = [random_nonsingular(rng, n, 2) for _ in range(s)]
        if all(abs(det(m)) == 1 for m in mats):
            continue
        max_len, cap = rng.choice((2, 3, 4, 5)), rng.choice((3, 20, 200, 2000))
        got = outcome(find_kernel_word, mats, max_len, cap)
        assert got == outcome(kernel_word_oracle, mats, max_len, cap), mats
        kind = "none" if got is None else "word" if isinstance(got, Word) else "budget"
        seen[kind] += 1
    assert min(seen.values()) >= 10


def test_find_kernel_word_matches_matrix_search():
    # the search on row tuples against the IntMatrix search it replaced,
    # on structured tuples: the same Word or None, and a refusal at the
    # same state count
    def outcome(search, mats, max_len, cap):
        try:
            return search(mats, max_len, cap)
        except BudgetExceededError as exc:
            return ("budget", exc.needed)

    rng = random.Random(0x5EA)
    cases = [(unipotent_shear_pair(h), 2 * h) for h in (2, 3, 4, 5)]
    cases += [
        (construct_even([make(rng, 2) for _ in range(4)]), 4)
        for make in (random_unimodular, lambda r, n: random_nonsingular(r, n, 3))
        for _ in range(3)
    ]
    cases += [
        ((construct_torsion_block((3, 4))[0], construct_torsion_block((4, 6))[0]), 6),
        ((IntMatrix([[-2, -1], [0, -1]]), IntMatrix([[-1, 1], [1, 1]])), 6),  # dets 2, -2
        ((IntMatrix([[3, 1], [1, 2]]), IntMatrix([[-1, 2], [1, 3]])), 4),  # dets 5, -5
    ]
    kinds = set()
    for mats, max_len in cases:
        for cap in (10**6, 40, 5, 1):
            got = outcome(find_kernel_word, mats, max_len, cap)
            assert got == outcome(kernel_word_matrix_oracle, mats, max_len, cap), (mats, cap)
            kinds.add("none" if got is None else "word" if isinstance(got, Word) else "budget")
    assert kinds == {"none", "word", "budget"}
    with pytest.raises(ValueError, match="max_len must be an integer"):
        find_kernel_word(unipotent_shear_pair(4), 7.5)
    assert find_kernel_word(unipotent_shear_pair(4), np.int64(7)) == find_kernel_word(
        unipotent_shear_pair(4), 7
    )


def test_find_kernel_word_mixed():
    # A B with A = B^-1 forces the two-letter word A B (sums (1,1))
    b = random_unimodular(random.Random(5), 2)
    binv = mat_pow(b, -1).to_int_matrix()
    w = find_kernel_word([b, binv], 4)
    assert w is not None and len(w) == 2
    assert sorted(w.exponent_sums) in ([1, 1], [-1, -1])


def test_constructions_satisfy_relations():
    rng = random.Random(0xE0)
    for _ in range(25):
        n = rng.randint(2, 3)
        blocks = [random_unimodular(rng, n) for _ in range(4)]
        even = construct_even(blocks)
        assert len(even) == 4
        assert check_relation(even, alternating_relation_vector(4))
        odd = construct_odd(blocks[:2])
        assert len(odd) == 3
        assert check_relation(odd, alternating_relation_vector(3))
    for s in (2, 6):
        blocks = [random_unimodular(rng, 2) for _ in range(s)]
        built = construct_even(blocks)
        assert check_relation(built, alternating_relation_vector(s))
    blocks6 = [random_unimodular(rng, 2) for _ in range(6)]
    odd7 = construct_odd(blocks6)
    assert len(odd7) == 7
    assert check_relation(odd7, alternating_relation_vector(7))


def test_construction_validation():
    with pytest.raises(ValueError):
        construct_even([IntMatrix.identity(2)])  # odd count
    with pytest.raises(ValueError):
        construct_odd([IntMatrix.identity(2)])
    with pytest.raises(ValueError):
        construct_even([])
    with pytest.raises(ValueError):
        construct_even([IntMatrix.identity(2), IntMatrix.identity(3)])


def test_torsion_block_frozen():
    a, m = construct_torsion_block((3, 4))
    assert a.n == 4  # phi(3) + phi(4)
    assert m == 12
    assert mat_pow(a, 12).is_identity()
    for j in (1, 2, 3, 4, 6):
        assert not mat_pow(a, j).is_identity()


def test_torsion_block_random_orders():
    rng = random.Random(0xE1)
    from matstat.numtheory import euler_phi

    for _ in range(15):
        orders = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        a, m = construct_torsion_block(orders)
        assert a.n == sum(euler_phi(k) for k in orders)
        prod = 1
        for k in orders:
            prod *= k
        assert m == prod
        assert mat_pow(a, m).is_identity()
    with pytest.raises(ValueError):
        construct_torsion_block(())
    with pytest.raises(ValueError):
        construct_torsion_block((0,))


def test_find_dependence_three_matrices():
    # dependent triple built from a relation, found within a small bound
    rng = random.Random(0xE2)
    for _ in range(10):
        blocks = [random_unimodular(rng, 2) for _ in range(2)]
        triple = construct_odd(blocks)
        k = find_dependence(triple, 3)
        assert k is not None
        assert check_relation(triple, k)


def _tiny_prime_pairs():
    # the shear family and the random pairs of the brute-force test
    pairs = [(unipotent_shear_pair(h), h) for h in range(2, 13)]
    rng = random.Random(0x1E57)
    pairs += [([random_nonsingular(rng, 2, 3) for _ in range(2)], 4) for _ in range(60)]
    return pairs


def test_fingerprint_false_positives_do_not_change_answers(monkeypatch):
    # mod 5 or 7 many non-relations look like the identity; the exact
    # check must reject every one of them.  Blocks of 7 candidates make
    # every listing span several blocks.
    monkeypatch.setattr(multdep, "_FINGERPRINT_PRIMES", (5, 7))
    monkeypatch.setattr(multdep, "_BLOCK_ENTRIES", 7 * 4)
    false_survivors = 0
    for mats, bound in _tiny_prime_pairs():
        cands = [k for k in product(range(-bound, bound + 1), repeat=2) if any(k)]
        adjs, dets = multdep._adjugates(mats)
        survivors = multdep._fingerprint_survivors(mats, adjs, dets, cands)
        # find_dependence passes the box listing as an int64 array
        assert multdep._fingerprint_survivors(mats, adjs, dets, np.array(cands)) == survivors
        false_survivors += sum(1 for k in survivors if not check_relation(mats, k))
        assert find_dependence(mats, bound) == brute_force_dependence(mats, bound)
    assert false_survivors > 100


def test_fingerprint_prime_skips_primes_dividing_a_det(monkeypatch):
    first, second = multdep._FINGERPRINT_PRIMES[:2]
    a = IntMatrix([[first, 1], [0, 1]])
    assert multdep._fingerprint_prime(2, [det(a), 1]) == second
    assert find_dependence([a, a], 3) == (-1, 1)
    monkeypatch.setattr(multdep, "_FINGERPRINT_PRIMES", (5, 7))
    b = IntMatrix([[5, 2], [1, 3]])  # det 13
    c = IntMatrix([[5, 0], [0, 2]])  # det 10: 5 is out, 7 is next
    assert multdep._fingerprint_prime(2, [det(b), det(c)]) == 7
    for mats in ([c, c], [b, c], [c, IntMatrix([[2, 0], [0, 5]])]):
        assert find_dependence(mats, 3) == brute_force_dependence(mats, 3)


def test_fingerprint_without_a_prime_keeps_every_candidate(monkeypatch):
    # det divisible by every listed prime: the filter rejects nothing
    big = 1
    for p in multdep._FINGERPRINT_PRIMES:
        big *= p
    a = IntMatrix([[big, 1], [0, 1]])
    assert multdep._fingerprint_prime(2, [det(a)]) is None
    assert find_dependence([a, a], 2) == (-1, 1)
    monkeypatch.setattr(multdep, "_FINGERPRINT_PRIMES", (5, 7))
    b = IntMatrix([[5, 1], [0, 7]])
    c = IntMatrix([[7, 0], [0, 5]])
    for mats in ([b, b], [b, c], [c, b, b]):
        adjs, dets = multdep._adjugates(mats)
        assert multdep._fingerprint_prime(2, dets) is None
        cands = [k for k in product(range(-2, 3), repeat=len(mats)) if any(k)]
        assert multdep._fingerprint_survivors(mats, adjs, dets, cands) == cands
        assert find_dependence(mats, 2) == brute_force_dependence(mats, 2)


def test_find_dependence_checks_few_candidates_exactly(monkeypatch):
    # the fingerprint leaves the exact products to the survivors; without
    # it every one of the 2390 lattice points in the box is checked
    calls = []
    check = multdep._relation_holds

    def counted(mats, adjs, dets, k):
        calls.append(k)
        return check(mats, adjs, dets, k)

    monkeypatch.setattr(multdep, "_relation_holds", counted)
    assert find_dependence(unipotent_shear_pair(24), 24) == (-24, 23)
    assert 1 <= len(calls) <= 200


def _filter_cases():
    # random tuples for s = 1..5 and n = 1..3, and tuples built on a
    # relation in the box, so that true relations are among the candidates
    rng = random.Random(0xF17)
    cases = []
    for s in range(1, 6):
        bound = (3, 3, 2, 1, 1)[s - 1]
        box = list(product(range(-bound, bound + 1), repeat=s))
        for n in (1, 2, 3):
            for _ in range(3):
                cases.append(([random_nonsingular(rng, n, 3) for _ in range(s)], box))
    for n in (2, 3):
        blocks = [random_unimodular(rng, n) for _ in range(4)]
        for mats in (construct_even(blocks[:2]), construct_odd(blocks[:2]),
                     construct_even(blocks), construct_odd(blocks)):
            cases.append((mats, list(product((-1, 0, 1), repeat=len(mats)))))
    return cases


def test_fingerprint_survivors_match_the_full_product(monkeypatch):
    # the comparison with the last factor's inverse powers against the
    # former whole-product filter: the same survivors in the same order,
    # with the default primes and with 5 and 7 (many false survivors), in
    # blocks of 5 candidates so that every listing spans several
    cases = _filter_cases()
    for primes in (multdep._FINGERPRINT_PRIMES, (5, 7)):
        monkeypatch.setattr(multdep, "_FINGERPRINT_PRIMES", primes)
        false_survivors = true_relations = 0
        for mats, box in cases:
            n = mats[0].n
            monkeypatch.setattr(multdep, "_BLOCK_ENTRIES", 5 * n * n)
            adjs, dets = multdep._adjugates(mats)
            want = fingerprint_survivors_full_product(mats, dets, box)
            assert multdep._fingerprint_survivors(mats, adjs, dets, box) == want
            assert multdep._fingerprint_survivors(mats, adjs, dets, np.array(box)) == want
            exact = [k for k in want if check_relation(mats, k)]
            true_relations += len(exact) - 1  # less the origin
            false_survivors += len(want) - len(exact)
        assert true_relations >= 8
        if primes == (5, 7):
            assert false_survivors > 100


def test_power_tables_by_doubling_match_the_loop():
    rng = random.Random(0xD0B)
    for n in (1, 2, 3):
        for p in (multdep._FINGERPRINT_PRIMES[0], 7):
            a = random_nonsingular(rng, n, 4)
            while det(a) % p == 0:
                a = random_nonsingular(rng, n, 4)
            adj, d = _adjugate(a)
            for m in range(71):
                table = multdep._power_table_mod(a, adj, d, m, p)
                assert table.dtype == np.int64
                assert np.array_equal(table, power_table_loop(a, m, p)), (n, p, m)


def test_find_dependence_eliminates_each_matrix_once(monkeypatch):
    # one _adjugate, which gives the determinant too, per matrix in the
    # whole search: the tuple check, the relation lattice, the power tables
    # and the exact checks of negative exponents share it
    rng = random.Random(0x4E)
    mats = construct_even([random_nonsingular(rng, 2, 3) for _ in range(4)])
    eliminations, checks = [], []
    for module, name in ((multdep, "_adjugate"), (multdep, "det"), (exact, "_adjugate")):

        def spy(a, _f=getattr(module, name), _name=name):
            eliminations.append(_name)
            return _f(a)

        monkeypatch.setattr(module, name, spy)
    check = multdep._relation_holds

    def counted(mats, adjs, dets, k):
        checks.append(k)
        return check(mats, adjs, dets, k)

    monkeypatch.setattr(multdep, "_relation_holds", counted)
    k = find_dependence(mats, 2)
    assert any(min(c) < 0 for c in checks), checks
    assert len(eliminations) <= len(mats), eliminations
    monkeypatch.undo()
    assert k == brute_force_dependence(mats, 2)


def test_find_kernel_word_eliminates_each_matrix_once(monkeypatch):
    # one _adjugate per matrix gives both the inverse letter and the
    # determinant that the relation lattice reads (exact._adjugate is the
    # one a negative power through exact would call)
    rng = random.Random(0x4F)
    mats = construct_even([random_nonsingular(rng, 2, 3) for _ in range(4)])
    calls = []
    for module, name in ((multdep, "_adjugate"), (multdep, "det"), (exact, "_adjugate")):

        def spy(*args, _f=getattr(module, name), _name=f"{module.__name__}.{name}"):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, spy)
    word = find_kernel_word(mats, 4)
    assert calls == ["matstat.multdep._adjugate"] * len(mats)
    monkeypatch.undo()
    assert word == kernel_word_oracle(mats, 4, 10**6)
