import math
import random
import tracemalloc

import pytest
from fractions import Fraction

import prime_scope.numberfield as numberfield_module
from prime_scope.config import Config
from prime_scope.dense import ud_witness

from prime_scope.errors import InvariantViolated, Negative, NoneWithinBound, PreconditionViolated
from prime_scope.ffield import FF, ff_is_square, is_prime, reduce_qpoly_mod_p
from prime_scope.numberfield import KPoly, NumberField, elements_by_height, square_root
from prime_scope.primes import primes_above, valuation
from prime_scope.qpoly import parse_poly
from prime_scope.squares import (
    KochenValue,
    SquareDecomposition,
    _three_squares,
    d_sos_witness,
    four_squares,
    kochen,
    level_finite_field,
    no_short_representation_check,
    r_infinity_member,
)

from oracles import irreducible_poly

Q = NumberField(parse_poly("X"))
GAUSS = NumberField(parse_poly("X^2+1"))
SQRT2 = NumberField(parse_poly("X^2-2"))
SQRT5 = NumberField(parse_poly("X^2-5"))
SQRT_M2 = NumberField(parse_poly("X^2+2"))


def kp(K, text):
    qp = parse_poly(text)
    return KPoly(K, [K.rational(c) for c in qp.coeffs])


# ---------------------------------------------------------------------------
# four squares
# ---------------------------------------------------------------------------


def test_four_squares_seven():
    assert four_squares(7).parts == (2, 1, 1, 1)


def test_four_squares_zero_is_empty():
    assert four_squares(0).parts == ()


def test_four_squares_half():
    assert four_squares(Fraction(1, 2)).parts == (
        Fraction(1, 2),
        Fraction(1, 2),
        0,
        0,
    )


def test_four_squares_negative():
    with pytest.raises(Negative):
        four_squares(-3)


def test_four_squares_exact_small_integers():
    for n in range(0, 400):
        dec = four_squares(n)
        assert sum(c * c for c in dec.parts) == n
        assert len(dec.parts) in (0, 4)
        assert list(dec.parts) == sorted(dec.parts, reverse=True)


def test_four_squares_random_rationals():
    rng = random.Random(5)
    for _ in range(60):
        q = Fraction(rng.randrange(0, 500), rng.randrange(1, 60))
        dec = four_squares(q)
        assert sum(c * c for c in dec.parts) == q


def test_four_squares_large_uses_descent_and_stays_exact():
    n = 10**6 + 7
    dec = four_squares(n)
    assert sum(c * c for c in dec.parts) == n
    again = four_squares(n)
    assert dec.parts == again.parts


def _brute_descent(n):
    """The descent without Legendre's test: every remainder is scanned."""

    def two(r, y_top):
        for y in range(min(y_top, math.isqrt(r)), -1, -1):
            z2 = r - y * y
            if z2 > y * y:
                return None
            z = math.isqrt(z2)
            if z * z == z2:
                return (y, z)
        return None

    def three(m):
        for x in range(math.isqrt(m), -1, -1):
            tail = two(m - x * x, x)
            if tail is not None:
                return (x,) + tail
        return None

    for w in range(math.isqrt(n), -1, -1):
        tail = three(n - w * w)
        if tail is not None:
            return tuple(sorted((w,) + tail, reverse=True))


def test_four_squares_small_integers_match_the_brute_descent():
    for n in range(1, 10**4 + 1):
        assert four_squares(n).parts == _brute_descent(n), n


def test_three_squares_none_exactly_on_legendre_shape():
    sums = {x * x + y * y + z * z for x in range(55) for y in range(55) for z in range(55)}
    for m in range(3000):
        k = m
        while k and k % 4 == 0:
            k //= 4
        assert (k % 8 == 7) == (m not in sums), m
        got = _three_squares(m)
        assert (got is None) == (m not in sums), m
        if got is not None:
            assert sum(c * c for c in got) == m and list(got) == sorted(got, reverse=True)


@pytest.mark.parametrize("digits", [20, 30])
def test_four_squares_large_integers_finish(digits, wall_clock_limit):
    rng = random.Random(digits)
    draws = [rng.randrange(10**digits, 10 ** (digits + 1)) for _ in range(20)]
    with wall_clock_limit(2):
        for n in draws:
            dec = four_squares(n)
            assert sum(c * c for c in dec.parts) == n
            assert len(dec.parts) == 4


def test_square_decomposition_guards_its_invariant():
    with pytest.raises(AssertionError):
        SquareDecomposition(Fraction(5), (1, 1))


def test_square_decomposition_json():
    js = four_squares(Fraction(1, 2)).to_json()
    assert js == {"input": "1/2", "parts": ["1/2", "1/2", "0", "0"]}


# ---------------------------------------------------------------------------
# total nonnegativity
# ---------------------------------------------------------------------------


def test_r_infinity_sqrt2_examples():
    a = SQRT2.gen()
    assert r_infinity_member(SQRT2, SQRT2.rational(2) - a) is True
    assert r_infinity_member(SQRT2, a) is False


def test_r_infinity_rationals():
    assert r_infinity_member(Q, Q.rational(-1)) is False
    assert r_infinity_member(Q, Q.rational(Fraction(3, 7))) is True
    assert r_infinity_member(Q, Q.zero()) is True


def test_r_infinity_squares_always_pass():
    rng = random.Random(11)
    for K in (Q, SQRT2, GAUSS):
        for _ in range(20):
            x = K.element([Fraction(rng.randrange(-9, 10)) for _ in range(K.degree)])
            assert r_infinity_member(K, x * x) is True


def test_r_infinity_totally_imaginary_field_is_trivial():
    # X^2+1 has no real root, so there are no orderings and everything passes
    assert GAUSS.orderings() == []
    assert r_infinity_member(GAUSS, GAUSS.rational(-17)) is True


# ---------------------------------------------------------------------------
# gamma operator
# ---------------------------------------------------------------------------


def test_kochen_pinned_values():
    P3 = primes_above(Q, 3)[0]
    v = kochen(3, Q.rational(2))
    assert v.is_defined and v.value == Q.rational(Fraction(2, 35))
    assert valuation(P3, v.value) == 0

    v = kochen(3, Q.rational(1))
    assert v.is_defined and v.value.is_zero

    v = kochen(3, Q.rational(Fraction(1, 3)))
    assert v.value == Q.rational(Fraction(72, 665))
    assert valuation(P3, v.value) == 2


def test_kochen_undefined_on_unit_difference():
    # x^2 - x = 1 for x = (1 + sqrt 5)/2, so gamma_2 has no value there
    x = SQRT5.element([Fraction(1, 2), Fraction(1, 2)])
    v = kochen(2, x)
    assert not v.is_defined
    assert v.to_json() == {"defined": False}


def test_kochen_rejects_bad_p():
    with pytest.raises(ValueError):
        kochen(1, Q.rational(2))


def test_kochen_integrality_over_rationals():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        P = primes_above(Q, p)[0]
        for _ in range(80):
            x = Q.rational(Fraction(rng.randrange(-40, 41), rng.randrange(1, 30)))
            v = kochen(p, x)
            if v.is_defined and not v.value.is_zero:
                assert valuation(P, v.value) >= 0


def test_kochen_json_roundtrips_value():
    js = kochen(3, Q.rational(2)).to_json()
    assert js == {"defined": True, "value": "2/35"}


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def test_level_pinned_values():
    assert level_finite_field(3, 1) == 2
    assert level_finite_field(5, 1) == 1
    assert level_finite_field(3, 2) == 1
    assert level_finite_field(2, 1) == 1
    assert level_finite_field(2, 5) == 1
    assert level_finite_field(7, 1) == 2


def test_level_mod_four_law_small():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert (level_finite_field(p, 1) == 1) == (p % 4 == 1)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_level_matches_the_square_test_in_the_field(f):
    for p in filter(is_prime, range(2, 60)):
        F = FF(p, reduce_qpoly_mod_p(irreducible_poly(p, f), p))
        want = 1 if ff_is_square(F.element([-1])) else 2
        assert level_finite_field(p, f) == want, (p, f)


@pytest.mark.parametrize("p, f", [(0, 1), (1, 1), (4, 1), (9, 1), (2, 0), (3, 0)])
def test_level_rejects_bad_p_and_f(p, f):
    with pytest.raises(ValueError):
        level_finite_field(p, f)


def test_level_squares_collapse():
    # every prime square field contains i or -1 is already a square
    for p in (3, 7, 11):
        assert level_finite_field(p, 2) == 1


# ---------------------------------------------------------------------------
# no short representation
# ---------------------------------------------------------------------------


def test_no_short_certifies_pinned_case():
    P3 = primes_above(Q, 3)[0]
    r = no_short_representation_check(P3, kp(Q, "X^2+1"), Q.rational(3), 2, 1000)
    assert r.status == "Certified"
    assert r.tuple is None
    assert r.searched > 0


def test_no_short_level_precondition():
    P5 = primes_above(Q, 5)[0]
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P5, kp(Q, "X^2+2"), Q.rational(5), 2)
    assert exc.value.clause == "level"


def test_no_short_rootless_precondition():
    P3 = primes_above(Q, 3)[0]
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, kp(Q, "X-1"), Q.rational(3), 2)
    assert exc.value.clause == "rootless-reduction"


def test_no_short_integrality_precondition():
    P3 = primes_above(Q, 3)[0]
    g = KPoly(Q, [Q.one(), Q.zero(), Q.rational(Fraction(1, 3))])
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, g, Q.rational(3), 2)
    assert exc.value.clause == "p-integral-coefficients"


def test_no_short_leading_unit_precondition():
    # 9X^2+1 reduces to the rootless constant 1 at the prime above 3, but the
    # degree drop lets g(i/3) vanish; the leading-coefficient clause blocks it
    P3 = primes_above(GAUSS, 3)[0]
    g = KPoly(GAUSS, [GAUSS.one(), GAUSS.zero(), GAUSS.rational(9)])
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, g, GAUSS.rational(3), 2)
    assert exc.value.clause == "unit-leading-coefficient"


def test_no_short_epsilon_precondition():
    P3 = primes_above(Q, 3)[0]
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, kp(Q, "X^2+1"), Q.rational(2), 2)
    assert exc.value.clause == "epsilon-valuation"
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, kp(Q, "X^2+1"), Q.zero(), 2)
    assert exc.value.clause == "epsilon-valuation"


def test_no_short_s_range_precondition():
    P3 = primes_above(Q, 3)[0]
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(P3, kp(Q, "X^2+1"), Q.rational(3), 1)
    assert exc.value.clause == "s-range"


def test_no_short_ordering_rejected():
    ordering = Q.orderings()[0]
    with pytest.raises(PreconditionViolated) as exc:
        no_short_representation_check(ordering, kp(Q, "X^2+1"), Q.rational(3), 2)
    assert exc.value.clause == "p-adic-prime"


def test_no_short_never_finds_counterexamples_on_valid_inputs():
    P3 = primes_above(Q, 3)[0]
    P7 = primes_above(Q, 7)[0]
    cases = [
        (P3, "X^2+1", 9),
        (P3, "X^2+X+2", 3),
        (P7, "X^2+1", 7),
        (P3, "X^4+X+2", 3),
    ]
    for P, text, e in cases:
        r = no_short_representation_check(P, kp(Q, text), Q.rational(e), 2, 60)
        assert r.status == "Certified", (text, e)


def test_no_short_general_field_path():
    # 7 splits in Q(sqrt 2) with residue field F_7 of level 2
    P7 = primes_above(SQRT2, 7)[0]
    assert P7.f == 1 and level_finite_field(7, 1) == 2
    r = no_short_representation_check(P7, kp(SQRT2, "X^2+1"), SQRT2.rational(7), 2, 6)
    assert r.status == "Certified"
    assert r.searched > 0


def test_no_short_rejects_an_empty_search_box():
    P3 = primes_above(Q, 3)[0]
    M3 = primes_above(SQRT_M2, 3)[0]
    for P, K in ((P3, Q), (M3, SQRT_M2)):
        for bound in (0, -3):
            with pytest.raises(PreconditionViolated) as exc:
                no_short_representation_check(P, kp(K, "X^2+1"), K.rational(3), 2, bound)
            assert exc.value.clause == "height-bound"


def _pool_search(P, g, eps, bound):
    """(status, searched) of the general-field search the streaming check
    replaced: every element of height <= bound in a list, their squares in a
    dict, one lookup of eps^2 - g(x)^2 per x of the list."""
    pool = []
    for y in elements_by_height(P.field):
        if y.height() > bound:
            break
        pool.append(y)
    square_of = {(y * y).coords: y for y in pool}
    target = eps * eps
    for searched, x in enumerate(pool, 1):
        if (target - g(x) * g(x)).coords in square_of:
            return "CounterexampleFound", searched
    return "Certified", len(pool)


def test_no_short_streaming_agrees_with_the_pool_search():
    cube_root2 = NumberField(parse_poly("X^3-2"))
    places = [(K, p, 4) for K in (GAUSS, SQRT2, SQRT5, SQRT_M2) for p in (3, 7, 11)]
    # degree 3 at the inert 7 (residue field F_343): 7^3 elements at height 2
    places.append((cube_root2, 7, 2))
    met = set()
    for K, p, top in places:
        g_choices = [kp(K, "X^2+1"), KPoly(K, [K.rational(2), K.gen(), K.one()])]
        for P in primes_above(K, p):
            for i, g in enumerate(g_choices):
                eps = K.rational(Fraction(p, 2) if (P.index + i) % 2 else p)
                try:
                    no_short_representation_check(P, g, eps, 2, 1)
                except PreconditionViolated:
                    continue
                met.add((K.poly, p))
                for bound in range(1, top + 1):
                    r = no_short_representation_check(P, g, eps, 2, bound)
                    assert (r.status, r.searched) == _pool_search(P, g, eps, bound), (
                        K, p, P.index, i, bound)
    assert {(SQRT2.poly, 7), (SQRT_M2.poly, 3), (cube_root2.poly, 7)} <= met


def test_no_short_rejects_a_forged_square_root(monkeypatch):
    # a square root that does not square back must not become a counterexample
    import prime_scope.squares as squares

    P3 = primes_above(SQRT_M2, 3)[0]
    monkeypatch.setattr(squares, "_nonsquare_somewhere", lambda coords, filters: False)
    monkeypatch.setattr(squares, "square_root", lambda r: r.field.one())
    with pytest.raises(InvariantViolated):
        no_short_representation_check(P3, kp(SQRT_M2, "X^2+1"), SQRT_M2.rational(3), 2, 1)


def test_no_short_height_8_streams_fast_in_constant_memory(wall_clock_limit):
    P3 = primes_above(SQRT_M2, 3)[0]
    g, eps = kp(SQRT_M2, "X^2+1"), SQRT_M2.rational(3)
    with wall_clock_limit(2):
        r = no_short_representation_check(P3, g, eps, 2, 8)
    assert r.status == "Certified" and r.searched == 7569
    tracemalloc.start()
    try:
        no_short_representation_check(P3, g, eps, 2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


# ---------------------------------------------------------------------------
# exact square roots in K
# ---------------------------------------------------------------------------

# (field, rationals that are not squares in it)
SQUARE_FIELDS = [
    ("X^2+2", (2, -1, 3)),
    ("X^2-2", (3, -1, -2)),
    ("X^3-2", (2, -1, 3)),
    ("X^4+1", (3, 5, -3)),
    ("X^2+1/2*X+1/3", (2, 3, -1)),  # Q(sqrt -39), non-integral coefficients
]


@pytest.mark.parametrize("text,nonsquares", SQUARE_FIELDS)
def test_square_root_recognises_squares(text, nonsquares):
    K = NumberField(parse_poly(text))
    rng = random.Random(text)
    for trial in range(24):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(K.degree)]
        if trial % 3 == 0:
            coords[-1] = Fraction(rng.randint(51, 10**6), rng.randint(1, 50))
        y = K.element(coords)
        if y.is_zero:
            continue
        r = y * y
        root = square_root(r)
        assert root is not None and root * root == r, (text, y)
        assert root in (y, -y)
        c = K.rational(nonsquares[trial % len(nonsquares)])
        assert square_root(c * r) is None, (text, y, c)


def test_square_root_of_large_heights():
    for text, _ in SQUARE_FIELDS:
        K = NumberField(parse_poly(text))
        y = K.element([Fraction(10**12 + 39 * k, 97 + k) for k in range(K.degree)])
        assert y.height() > 50
        assert square_root(y * y) in (y, -y)


def test_square_root_of_zero_and_rationals():
    expected = {
        "X^2+2": {-2: True, 2: False, -8: True, Fraction(-1, 2): True, 9: True},
        "X^2-2": {2: True, -2: False, Fraction(1, 2): True, 3: False, 9: True},
        "X^3-2": {2: False, 4: True, -1: False, Fraction(9, 4): True},
        "X^4+1": {-1: True, 2: True, -2: True, 3: False, Fraction(1, 4): True},
        "X^2+1/2*X+1/3": {-39: True, 39: False, Fraction(-13, 12): True, 2: False},
    }
    for text, table in expected.items():
        K = NumberField(parse_poly(text))
        assert square_root(K.zero()) == K.zero()
        for q, is_square in table.items():
            root = square_root(K.rational(q))
            assert (root is not None) == is_square, (text, q)
            if root is not None:
                assert root * root == K.rational(q)


# ---------------------------------------------------------------------------
# d_sos_witness
# ---------------------------------------------------------------------------


def test_d_sos_pinned_bisection_value():
    w = d_sos_witness(Q, kp(Q, "X^3-2"), Q.one())
    assert w.witness == Q.rational(Fraction(5, 4))
    assert w.search_stats["steps"] == 4


def test_d_sos_zero_polynomial_root():
    w = d_sos_witness(Q, kp(Q, "X"), Q.one())
    assert w.witness == Q.zero()


def test_d_sos_two_orderings():
    a = SQRT2.gen()
    g = KPoly(SQRT2, [-a, SQRT2.zero(), SQRT2.zero(), SQRT2.one()])
    w = d_sos_witness(SQRT2, g, SQRT2.one())
    value = SQRT2.one() - g(w.witness) * g(w.witness)
    assert r_infinity_member(SQRT2, value)
    assert len(w.verified_at) == 2
    assert all(sign >= 0 for _, sign in w.verified_at)


def test_d_sos_result_is_totally_nonnegative():
    for text, e in (("X^3-2", 1), ("X^3+X-11", 3), ("X^5-7", 2)):
        eps = Q.rational(e)
        w = d_sos_witness(Q, kp(Q, text), eps)
        g = kp(Q, text)
        assert r_infinity_member(Q, eps * eps - g(w.witness) * g(w.witness))


def test_d_sos_requires_odd_degree():
    with pytest.raises(PreconditionViolated) as exc:
        d_sos_witness(Q, kp(Q, "X^2+1"), Q.one())
    assert exc.value.clause == "odd-degree"
    # the zero polynomial has degree -1, which is odd only to Python's %
    with pytest.raises(PreconditionViolated) as exc:
        d_sos_witness(Q, KPoly(Q, []), Q.one())
    assert exc.value.clause == "odd-degree"


def test_d_sos_requires_nonzero_eps():
    with pytest.raises(PreconditionViolated) as exc:
        d_sos_witness(Q, kp(Q, "X^3-2"), Q.zero())
    assert exc.value.clause == "epsilon-nonzero"


def test_d_sos_json_witness():
    w = d_sos_witness(Q, kp(Q, "X^3-2"), Q.one())
    assert w.to_json()["witness"] == "5/4"


SMALL = Config(height_bound=100)


def test_d_sos_is_ud_witness_over_the_orderings():
    rng = random.Random(24)
    fields = [NumberField(parse_poly(t)) for t in ("X", "X^2-2", "X^3-2", "X^3-3*X+1", "X^2+1")]
    for _ in range(40):
        K = rng.choice(fields)
        deg = rng.choice((1, 3))
        g = KPoly(K, [K.element([rng.randint(-4, 4) for _ in range(K.degree)])
                      for _ in range(deg)] + [K.one()])
        eps = K.rational(Fraction(1, rng.randint(1, 8)))
        try:
            ud = ud_witness(K, K.orderings(), g, eps, SMALL)
        except NoneWithinBound:
            with pytest.raises(NoneWithinBound):
                d_sos_witness(K, g, eps, SMALL)
            continue
        sos = d_sos_witness(K, g, eps, SMALL)
        assert sos.witness == ud.witness, (K, g)
        assert sos.verified_at == ud.verified_at
        assert sos.search_stats == ud.search_stats


def test_d_sos_decides_each_ordering_once(monkeypatch):
    sturm = numberfield_module.sturm_sequence
    calls = []

    def counted(p, q):
        calls.append(p)
        return sturm(p, q)

    monkeypatch.setattr(numberfield_module, "sturm_sequence", counted)
    a = SQRT2.gen()
    d_sos_witness(SQRT2, KPoly(SQRT2, [-a, SQRT2.zero(), SQRT2.zero(), SQRT2.one()]), SQRT2.one())
    assert len(calls) == 2
