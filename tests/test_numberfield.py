"""Number field construction, element arithmetic, orderings, KPoly."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
import sympy

import prime_scope.numberfield as numberfield_module
import prime_scope.qpoly as qpoly_module
from prime_scope.errors import DivisionByZero, NotMonic, Reducible
from prime_scope.ffield import factor_fpoly, fred
from prime_scope.numberfield import (
    FieldElement,
    KPoly,
    elements_by_height,
    format_element,
    nf_create,
    parse_element,
)
from prime_scope.qpoly import QPoly, parse_poly, rationals_by_height, sign_changes, sturm_sequence
from prime_scope.suite import FIELD_CORPUS

from oracles import oracle_distinct_real_root_count, oracle_is_irreducible_over_q


# --- creation and certification -------------------------------------------

def test_create_gaussian_field():
    K = nf_create("X^2+1")
    assert K.degree == 2


def test_create_rational_field():
    K = nf_create("X")
    assert K.degree == 1
    assert K.gen().as_fraction() == 0


def test_reducible_is_refused_with_witness():
    with pytest.raises(Reducible) as exc:
        nf_create("X^2-1")
    assert "X" in str(exc.value)


def test_nonmonic_is_refused():
    with pytest.raises(NotMonic):
        nf_create("2*X^2+1")


def test_repeated_factor_is_refused():
    with pytest.raises(Reducible):
        nf_create(parse_poly("X^2+2*X+1"))


@pytest.mark.parametrize(
    "f, detail",
    [
        (parse_poly("X^2+2X+1"), "repeated factor: 1 + X"),
        (parse_poly("X^2+1") * parse_poly("X^2+1"), "repeated factor: 1 + X^2"),
    ],
)
def test_repeated_factor_detail_is_pinned(f, detail):
    with pytest.raises(Reducible) as exc:
        nf_create(f)
    assert exc.value.detail == detail


def test_squarefree_polynomial_with_bad_small_primes_certifies(monkeypatch):
    # X^2 - 2310 has repeated factors mod 2, 3, 5, 7 and 11 = the first
    # _GOOD_PRIMES primes, so the rational gcd(f, f') runs once and finds f
    # squarefree; the search goes on and stops at 23, where f is irreducible
    f = parse_poly("X^2-2310")
    fz = [int(c) for c in f.coeffs]
    for p in (2, 3, 5, 7, 11):
        assert any(e > 1 for _, e in factor_fpoly(fred(fz, p), p))
    assert factor_fpoly(fred(fz, 23), 23) == [(fred(fz, 23), 1)]
    gcds = []
    gcd = qpoly_module.poly_gcd

    def counted(a, b):
        gcds.append(a)
        return gcd(a, b)

    monkeypatch.setattr(qpoly_module, "poly_gcd", counted)
    nf_create("X^2+1")  # irreducible mod 3: no rational gcd at all
    assert gcds == []
    nf_create(f)
    assert gcds == [f]


@pytest.mark.parametrize(
    "text",
    [
        "X^2+1", "X^2-2", "X^3-2", "X^4+1", "X^4-10*X^2+1", "X^3+X+1",
        "X^2-1000000000000000000000000000001",  # 10^30 + 1 has no small divisor
        "X^8+1",  # reducible mod every prime
        "X^8-40*X^6+352*X^4-960*X^2+576",  # Swinnerton-Dyer: sqrt2+sqrt3+sqrt5
        "X^3-1/2",  # integral form X^3 - 4
    ],
)
def test_known_irreducibles_certify(text, wall_clock_limit):
    with wall_clock_limit(2.0):
        nf_create(text)  # must not raise


def test_certification_does_not_hide_reduction_errors(monkeypatch):
    def broken(g, p):
        raise TypeError("broken reduction")

    monkeypatch.setattr(numberfield_module, "reduce_qpoly_mod_p", broken)
    with pytest.raises(TypeError, match="broken reduction"):
        nf_create("X^4+1")


def test_certification_agrees_with_oracle_on_random_polys():
    rng = random.Random(991)

    def monic(deg):
        return QPoly([rng.randint(-6, 6) for _ in range(deg)] + [1])

    for i in range(200):
        deg = rng.randint(2, 8)
        if i % 3 == 0:
            k = rng.randint(1, deg - 1)
            f = monic(k) * monic(deg - k)
        else:
            f = monic(deg)
        coeffs = [int(c) for c in f.coeffs]
        want = oracle_is_irreducible_over_q(coeffs)
        try:
            nf_create(f)
            got = True
        except Reducible:
            got = False
        assert got == want, f"{coeffs}"


def _witness_factors(exc) -> list[QPoly]:
    """The two factors named by a Reducible detail "(g)(h)"."""
    g, h = exc.value.detail[1:-1].split(")(")
    return [parse_poly(g), parse_poly(h)]


@pytest.mark.parametrize(
    "text",
    [
        "X^8+4",
        "X^12+1",
        "X^2-1/4",  # the witness maps back through X -> 2X
        "X^3-1/8",
        "X^2-1000000000000000000000000000000",
    ],
)
def test_reducible_witness_multiplies_back(text, wall_clock_limit):
    f = parse_poly(text)
    with wall_clock_limit(2.0), pytest.raises(Reducible) as exc:
        nf_create(f)
    g, h = _witness_factors(exc)
    assert g.degree >= 1 and h.degree >= 1
    assert g * h == f


def test_reducible_sextic_names_both_cubics(wall_clock_limit):
    g, h = parse_poly("X^3+5*X^2-7*X+11"), parse_poly("X^3-6*X+13")
    with wall_clock_limit(2.0), pytest.raises(Reducible) as exc:
        nf_create(g * h)
    assert set(_witness_factors(exc)) == {g, h}


# --- element arithmetic -----------------------------------------------------

def test_scalar_on_the_left_of_a_kpoly():
    # an operand FieldElement cannot take is left to KPoly's reflected methods
    K = nf_create("X^2+1")
    i = K.element([0, 1])
    g = KPoly(K, [K.rational(2), i, K.one()])
    assert i * g == g * i == KPoly(K, [2 * i, -K.one(), i])
    assert i + g == g + i
    assert i - g == -(g - i)
    assert 3 - i == -(i - 3) and 1 / i == -i
    with pytest.raises(TypeError):
        i * "x"
    with pytest.raises(ValueError):
        i + nf_create("X^2-2").element([0, 1])


def test_gaussian_inverse():
    K = nf_create("X^2+1")
    one_plus_i = K.element([1, 1])
    inv = one_plus_i.inverse()
    assert inv == K.element([Fraction(1, 2), Fraction(-1, 2)])
    assert one_plus_i * inv == K.one()


def test_inverse_of_zero_raises():
    K = nf_create("X^2+1")
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_field_axioms_random():
    K = nf_create("X^3-2")
    rng = random.Random(5)

    def rand_elem():
        return K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])

    for _ in range(80):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == K.one()
            assert (a ** 3) * (a ** -3) == K.one()


def _seeded_rationals(seed, count):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(count)]


@pytest.mark.parametrize("text", ["X", "X+5"])
def test_degree_one_arithmetic_agrees_with_fraction(text):
    K = nf_create(text)
    assert K.gen().as_fraction() == Fraction(-K.poly.coeff(0))
    qs = _seeded_rationals(17, 60)
    for a, b in zip(qs, qs[1:]):
        x, y = K.rational(a), K.rational(b)
        assert (x * y).coords == (a * b,)
        assert (x * b).coords == (b * x).coords == (a * b,)
        assert (x + y).coords == (a + b,) and (x - y).coords == (a - b,)
        if b:
            assert (x / y).coords == (x / b).coords == (a / b,)
            assert y.inverse().coords == (1 / b,)
            assert (a / y).coords == (a / b,)
            for k in range(-4, 5):
                assert (y ** k).coords == (b ** k,)
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_degree_one_multiply_and_inverse_skip_the_polynomial_ring(monkeypatch):
    # Q computes on its one rational coordinate: no QPoly product, no
    # remainder chain; Q(i) still takes both
    def refuse(*args):
        raise AssertionError("polynomial machinery reached")

    monkeypatch.setattr(QPoly, "__mul__", refuse)
    monkeypatch.setattr(numberfield_module, "remainder_chain", refuse)
    for text in ("X", "X+5"):
        K = nf_create(text)
        for b in _seeded_rationals(23, 20):
            y = K.rational(b)
            assert (y * y).coords == (b * b,)
            if b:
                assert (y ** -3).coords == (b ** -3,)
                assert (K.one() / y).coords == (1 / b,)
    i = nf_create("X^2+1").gen()
    with pytest.raises(AssertionError, match="polynomial machinery"):
        i * i
    with pytest.raises(AssertionError, match="polynomial machinery"):
        i.inverse()


def test_generator_satisfies_defining_polynomial():
    K = nf_create("X^3-2")
    alpha = K.gen()
    assert alpha ** 3 == K.rational(2)


def test_element_literals_roundtrip():
    K = nf_create("X^2+1")
    x = K.element([Fraction(1, 2), -3])
    assert parse_element(K, format_element(x)) == x
    assert parse_element(K, "7") == K.rational(7)
    assert parse_element(K, "-2/3") == K.rational(Fraction(-2, 3))


# --- orderings ---------------------------------------------------------------

def test_real_embedding_counts():
    assert len(nf_create("X^2-2").orderings()) == 2
    assert len(nf_create("X^2+1").orderings()) == 0
    assert len(nf_create("X").orderings()) == 1
    assert len(nf_create("X^3-2").orderings()) == 1
    assert len(nf_create("X^4-10*X^2+1").orderings()) == 4


def test_sign_at_sqrt2():
    K = nf_create("X^2-2")
    negs, poss = K.orderings()
    alpha = K.gen()
    # orderings sorted by root: first sends alpha to -sqrt2
    assert negs.sign(alpha) == -1
    assert poss.sign(alpha) == 1
    # 2 - alpha is positive in both (|sqrt2| < 2)
    two_minus = K.rational(2) - alpha
    assert negs.sign(two_minus) == 1
    assert poss.sign(two_minus) == 1
    assert poss.sign(K.zero()) == 0


def test_sign_at_close_call():
    # 99/70 and 577/408 are convergents of sqrt2: alpha - r is tiny but has a sign
    K = nf_create("X^2-2")
    _, pos = K.orderings()
    for r in (Fraction(99, 70), Fraction(577, 408)):
        x = K.gen() - K.rational(r)
        assert pos.sign(x) == -1
        assert pos.sign(-x) == 1


def test_sign_consistency_with_square():
    K = nf_create("X^3-2")
    (P,) = K.orderings()
    rng = random.Random(11)
    for _ in range(40):
        x = K.element([rng.randint(-5, 5) for _ in range(3)])
        if x.is_zero:
            continue
        assert P.sign(x * x) == 1
        assert P.sign(x) * P.sign(-x) == -1


# the Swinnerton-Dyer polynomial of sqrt2 + sqrt3 + sqrt5: eight real roots
SWINNERTON_DYER_8 = "X^8-40*X^6+352*X^4-960*X^2+576"


def variations(seq, x):
    """Sign variations of a QPoly sequence at the rational x."""
    return sign_changes([p.sign_at(x) for p in seq])


def _refined_sign(O, x):
    """The sign of x at O by interval refinement, kept as the reference:
    halve a copy of O's interval until the Sturm chain of x's polynomial sees
    no root in it or at its ends, then read the sign at an end."""
    g, f = x.as_qpoly(), O.field.poly
    if g.degree < 1:
        return (g.coeff(0) > 0) - (g.coeff(0) < 0)
    seq = sturm_sequence(g, g.derivative())
    lo, hi = O.interval
    while g(lo) == 0 or g(hi) == 0 or variations(seq, lo) != variations(seq, hi):
        mid = (lo + hi) / 2
        while f(mid) == 0:
            mid = (lo + mid) / 2
        lo, hi = (lo, mid) if f.sign_at(lo) * f.sign_at(mid) < 0 else (mid, hi)
    return g.sign_at(lo)


def _root_within(O, eps):
    """A rational within eps of the root of O, by exact bisection."""
    f = O.field.poly
    lo, hi = O.interval
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if f(mid) == 0:
            return mid
        lo, hi = (lo, mid) if f.sign_at(lo) * f.sign_at(mid) < 0 else (mid, hi)
    return lo


# near-root elements pinned per field: the convergents 99/70 and 577/408 of
# sqrt2, and cbrt(2)^2 - 1587/1000 (cbrt(2)^2 = 1.5874...)
NEAR_ROOTS = {
    "X^2-2": [[Fraction(-99, 70), 1], [Fraction(-577, 408), 1]],
    "X^3-2": [[Fraction(-1587, 1000), 0, 1]],
}


def test_sign_agrees_with_interval_refinement():
    rng = random.Random(1729)
    disagreements, checked = [], 0
    for text in FIELD_CORPUS + [SWINNERTON_DYER_8]:
        K = nf_create(text)
        a = K.gen()
        for O in K.orderings():
            interval = lo, hi = O.interval
            root = _root_within(O, Fraction(1, 2**40))
            xs = [K.element(c) for c in NEAR_ROOTS.get(text, [])]
            # gen - r with r inside the interval, and just beside the root
            xs += [a - (lo + (hi - lo) * Fraction(k, 8)) for k in range(1, 8)]
            xs += [a - root - Fraction(s, 2**k) for k in (8, 20, 32) for s in (1, -1)]
            # y^2 - q with q the value of y^2 rounded to 1, 3 and 6 digits;
            # fewer draws at degree 8, where the reference is slow
            for _ in range(12 if K.degree < 8 else 4):
                y = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)])
                value = (y * y).as_qpoly()(root)
                xs += [y, -y]
                xs += [y * y - Fraction(round(value * 10**k), 10**k) for k in (1, 3, 6)]
            for x in xs:
                checked += 1
                if O.sign(x) != _refined_sign(O, x):
                    disagreements.append((K, O.index, x))
            assert O.interval == interval
    assert checked > 1400
    assert not disagreements


# --- KPoly -------------------------------------------------------------------

def test_kpoly_divmod_and_gcd():
    K = nf_create("X^2-2")
    alpha = K.gen()
    # (Y - alpha)(Y + alpha) = Y^2 - 2
    f = KPoly(K, [K.rational(-2), K.zero(), K.one()])
    g = KPoly(K, [-alpha, K.one()])
    q, r = divmod(f, g)
    assert r.is_zero
    assert q == KPoly(K, [alpha, K.one()])
    assert f.gcd(g) == g.monic()


def test_kpoly_resultant_agrees_with_rational_resultant():
    K = nf_create("X^2+1")
    rng = random.Random(17)

    def rand_qpoly():
        return QPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(4))])

    three, f = QPoly([3]), QPoly([1, 0, 1])
    pairs = [(f, QPoly()), (QPoly(), f), (QPoly(), QPoly()), (three, f), (f, three), (three, QPoly([5]))]
    pairs += [(rand_qpoly(), rand_qpoly()) for _ in range(40)]
    for a, b in pairs:
        want = a.resultant(b)
        got = KPoly.from_qpoly(K, a).resultant(KPoly.from_qpoly(K, b))
        assert type(want) is Fraction and type(got) is FieldElement
        assert got == K.rational(want), (a, b)
    # Res(c, g) = c^deg g and Res(f, c) = c^deg f
    assert three.resultant(f) == f.resultant(three) == 9
    assert three.resultant(QPoly([5])) == 1
    # non-rational operands: Res(Y - i, g) = g(i)
    i = K.gen()
    lin = KPoly(K, [-i, K.one()])
    g = KPoly(K, [K.rational(3), K.zero(), K.one()])
    assert lin.resultant(g) == g.resultant(lin) == K.rational(2)
    assert lin.resultant(KPoly(K, [K.rational(-2), K.one()])) == i - 2


def test_kpoly_root_count_in_ordering():
    K = nf_create("X^2-2")
    neg, pos = K.orderings()
    alpha = K.gen()
    # Y^2 - alpha: root in the real closure iff alpha > 0 there
    f = KPoly(K, [-alpha, K.zero(), K.one()])
    assert f.count_roots_in_ordering(pos, None, None) > 0
    assert not f.count_roots_in_ordering(neg, None, None) > 0
    assert f.count_roots_in_ordering(pos, None, None) == 2


def test_kpoly_root_count_with_repeated_roots_matches_sympy():
    # -(Y^2-2)^2 (Y+1)^3 over Q and over Q(sqrt2), and -(Y-a)^2 (Y^2-a)^3
    # over Q(sqrt2) with a^2 = 2, whose count depends on the ordering
    rational = -QPoly([-2, 0, 1]) ** 2 * QPoly([1, 1]) ** 3
    want = oracle_distinct_real_root_count(rational.coeffs)
    for K in (nf_create("X"), nf_create("X^2-2")):
        g = KPoly.from_qpoly(K, rational)
        for P in K.orderings():
            assert g.count_roots_in_ordering(P, None, None) == want
    K = nf_create("X^2-2")
    a, one = K.gen(), K.one()
    lin = KPoly(K, [-a, one])
    quad = KPoly(K, [-a, K.zero(), one])
    g = KPoly(K, [-one]) * lin * lin * quad * quad * quad
    for P, root2 in zip(K.orderings(), (-sympy.sqrt(2), sympy.sqrt(2))):
        image = [c.coords[0] + c.coords[1] * root2 for c in g.coeffs]
        want = oracle_distinct_real_root_count(image)
        assert want == (1 if root2 < 0 else 3)
        assert g.count_roots_in_ordering(P, None, None) == want


# canonical isolating intervals of the real fields of the suite corpus
CORPUS_ORDERINGS = {
    "X": [(-1, 1)],
    "X^2-2": [(-3, 0), (0, 3)],
    "X^2-3": [(-4, 0), (0, 4)],
    "X^2-5": [(-6, 0), (0, 6)],
    "X^2-X-1": [(-2, 0), (0, 2)],
    "X^3-2": [(-3, 3)],
    "X^3-3": [(-4, 4)],
    "X^3+X+1": [(-2, 2)],
    "X^3-X-1": [(-2, 2)],
    "X^3+2X+1": [(-3, 3)],
    "X^3+X^2+1": [(-2, 2)],
    "X^4-X-1": [(-2, 0), (0, 2)],
}


def test_corpus_ordering_intervals_are_pinned():
    for text in FIELD_CORPUS:
        got = [O.interval for O in nf_create(text).orderings()]
        assert got == CORPUS_ORDERINGS.get(text, []), text


def test_kpoly_eval_and_shift():
    K = nf_create("X^2+1")
    i = K.gen()
    f = KPoly(K, [K.one(), K.zero(), K.one()])  # Y^2 + 1
    assert f(i).is_zero
    g = f.shift_scale(i, K.one())  # f(i + Y) = Y^2 + 2iY
    assert g.coeff(0).is_zero
    assert g.coeff(1) == i + i


# --- enumeration -------------------------------------------------------------

def test_rational_enumeration_degree_one():
    K = nf_create("X")
    got = []
    for x in elements_by_height(K):
        got.append(x.as_fraction())
        if len(got) == 7:
            break
    assert got == [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]


def test_enumeration_degree_two_hits_everything_small():
    K = nf_create("X^2+1")
    seen = set()
    for x in elements_by_height(K):
        seen.add(x.coords)
        if len(seen) == 200:
            break
    # every vector with coordinates in {0, +-1} must appear early
    for a in (0, 1, -1):
        for b in (0, 1, -1):
            assert (Fraction(a), Fraction(b)) in seen
    # zero, then the height-1 block in lexicographic order over 0, 1, -1
    first = [x.coords for x in itertools.islice(elements_by_height(K), 9)]
    assert first == [(0, 0), (0, 1), (0, -1), (1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1)]


def test_enumeration_depth_does_not_grow_with_height():
    # each height level once added a generator frame to every next(); with
    # 60 spare frames, Q through height 150 raised RecursionError
    K = nf_create("X")
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    got = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        for x in elements_by_height(K):
            q = x.as_fraction()
            if max(abs(q.numerator), q.denominator) > 150:
                break
            got.append(q)
    finally:
        sys.setrecursionlimit(limit)
    assert got == list(itertools.islice(rationals_by_height(), len(got)))
    assert got[-1] == Fraction(-149, 150)


def test_enumeration_no_duplicates():
    K = nf_create("X^2-2")
    seen = []
    for x in elements_by_height(K):
        seen.append(x.coords)
        if len(seen) == 300:
            break
    assert len(set(seen)) == len(seen)
