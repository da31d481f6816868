"""Exact rational polynomial layer."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import islice

import pytest

import prime_scope.ffield as ffield
import prime_scope.localdata as localdata
from prime_scope.ffield import FF, FFElem, fadd, fdivmod, fgcd, fmod, fmul, fpowmod, fred, fsub
from prime_scope.formulas import MPoly
from prime_scope.numberfield import FieldElement, KPoly, Ordering, nf_create
from prime_scope.qpoly import (
    QPoly,
    cyclotomic,
    format_poly,
    integer_sturm_chain,
    parse_poly,
    poly_resultant,
    power,
    rationals_by_height,
    sign_changes,
    sturm_sequence,
)
from prime_scope.suite import FIELD_CORPUS

from oracles import (
    oracle_distinct_real_root_count,
    oracle_real_root_count,
    oracle_resultant,
    sym_poly,
)


def P(*cs):
    return QPoly(cs)


def test_ring_ops_basic():
    f = P(1, 0, 1)  # 1 + X^2
    g = P(-1, 1)  # X - 1
    assert f + g == P(0, 1, 1)
    assert f - g == P(2, -1, 1)
    assert f * g == P(-1, 1, -1, 1)
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree == 0


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a = P(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        b = P(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        c = P(*[rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def test_gcd_and_squarefree():
    f = P(-1, 0, 1)  # (X-1)(X+1)
    g = P(1, 1)
    assert f.gcd(g) == P(1, 1)
    sq = (P(-1, 1) ** 2 * P(1, 1)).squarefree_part()
    assert sq == P(-1, 0, 1)


def test_resultant_and_discriminant():
    assert P(1, 0, 1).resultant(P(-2, 1)) == 5  # X^2+1 against X-2
    assert P(1, 0, 1).discriminant() == -4
    assert P(-2, 0, 1).discriminant() == 8
    # Res(f,g) = lc(f)^deg g * prod g(roots of f): X^2-1 vs X-3 -> (3-1)(3+1)... sign per convention
    assert P(-1, 0, 1).resultant(P(-3, 1)) == (-3 + 1) * (-3 - 1) * 1  # g(1)*g(-1) = (-2)(-4)


# --- readings of the remainder chain against independent references ----------

def _random_qpoly(rng, degree):
    """Degree `degree` (-1 for zero), non-monic, small rational coefficients."""
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)]
    return P(*cs, Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 2))) if degree >= 0 else P()


def test_resultant_agrees_with_the_sympy_oracle():
    rng = random.Random(29)
    pairs = [(_random_qpoly(rng, df), _random_qpoly(rng, dg)) for df in range(6) for dg in range(6)]
    pairs += [(_random_qpoly(rng, rng.randint(0, 5)), _random_qpoly(rng, rng.randint(0, 5)))
              for _ in range(40)]
    for _ in range(10):  # a shared factor: the resultant is 0
        h = _random_qpoly(rng, rng.randint(1, 2))
        pairs.append((h * _random_qpoly(rng, rng.randint(0, 3)), h * _random_qpoly(rng, rng.randint(0, 3))))
    pairs += [(P(3), P(5)), (P(Fraction(-2, 3)), P(1, 0, 2)), (P(1, 1, 1), P()), (P(), P(2, 1))]
    for f, g in pairs:
        assert poly_resultant(f, g) == oracle_resultant(f.coeffs, g.coeffs), (f, g)


def _negated_remainder_sturm(p, q):
    """The signed remainder sequence as a loop that negates each remainder."""
    seq = [p, q]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def test_sturm_sequence_agrees_with_the_negated_remainder_loop():
    rng = random.Random(31)
    K = nf_create("X^2-2")
    for _ in range(40):
        f = _random_qpoly(rng, rng.randint(1, 6))
        g = rng.choice([f.derivative(), _random_qpoly(rng, rng.randint(0, 5))])
        assert sturm_sequence(f, g) == _negated_remainder_sturm(f, g)
        kf, kg = (KPoly(K, [K.element([c, rng.randint(-2, 2)]) for c in h.coeffs]) for h in (f, g))
        assert sturm_sequence(kf, kg) == _negated_remainder_sturm(kf, kg)


# --- one polynomial class over Q, K and F_q --------------------------------

GAUSS = nf_create("X^2+1")
F9 = FF(3, (1, 0, 1))  # F_3[y]/(y^2 + 1)

# the ring methods QPoly holds for every coefficient ring
RING_METHODS = (
    "degree", "is_zero", "lc", "coeff", "is_monic", "__bool__", "__eq__",
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__divmod__", "__mod__", "__floordiv__", "exact_div", "__pow__", "monic",
    "derivative", "gcd", "squarefree_part", "resultant",
)


def test_kpoly_inherits_the_ring_methods_of_qpoly():
    assert issubclass(KPoly, QPoly)
    own = set(vars(KPoly))
    assert not own & set(RING_METHODS)
    assert "eval_fraction" not in own
    assert all(name in vars(QPoly) for name in RING_METHODS)


_QP = QPoly([1, 2])
_KP = KPoly(GAUSS, [GAUSS.gen(), GAUSS.one()])
_SQRT2 = nf_create("X^2-2")

UNSUPPORTED_OPERANDS = {
    "str - QPoly": lambda: "x" - _QP,
    "QPoly - str": lambda: _QP - "x",
    "QPoly + str": lambda: _QP + "x",
    "QPoly * str": lambda: _QP * "x",
    "divmod(QPoly, str)": lambda: divmod(_QP, "x"),
    "QPoly % str": lambda: _QP % "x",
    "QPoly // str": lambda: _QP // "x",
    "QPoly.gcd(str)": lambda: _QP.gcd("x"),
    "QPoly.resultant(str)": lambda: _QP.resultant("x"),
    "QPoly.exact_div(str)": lambda: _QP.exact_div("x"),
    "KPoly + int": lambda: _KP + 1,
    "KPoly - int": lambda: _KP - 1,
    "KPoly * int": lambda: _KP * 1,
    "int - KPoly": lambda: 1 - _KP,
    "KPoly + QPoly": lambda: _KP + _QP,
    "QPoly * KPoly": lambda: _QP * _KP,
    "divmod(KPoly, QPoly)": lambda: divmod(_KP, _QP),
    "KPoly.gcd(QPoly)": lambda: _KP.gcd(_QP),
    "KPoly - KPoly of another field": lambda: _KP - KPoly(_SQRT2, [_SQRT2.gen()]),
    "KPoly * element of another field": lambda: _KP * _SQRT2.gen(),
    "KPoly + FFElem": lambda: _KP + F9.one(),
    "KPoly % str": lambda: _KP % "x",
}


@pytest.mark.parametrize("op", list(UNSUPPORTED_OPERANDS.values()), ids=list(UNSUPPORTED_OPERANDS))
def test_unsupported_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op()


def test_kpoly_takes_an_element_of_its_field_in_add_sub_and_mul():
    i, one = GAUSS.gen(), GAUSS.one()
    g = KPoly(GAUSS, [one, one])  # Y + 1
    assert g + i == KPoly(GAUSS, [one + i, one])
    assert g - i == KPoly(GAUSS, [one - i, one])
    assert g * i == KPoly(GAUSS, [i, i])
    y = F9.element([0, 1])
    h = KPoly(F9, [F9.one(), F9.one()])
    assert h + y == KPoly(F9, [F9.one() + y, F9.one()])
    assert h - y == KPoly(F9, [F9.one() - y, F9.one()])
    assert h * y == KPoly(F9, [y, y])


def test_kpoly_over_a_finite_field_is_monic_and_stays_over_its_field():
    # FFElem == 1 is False: is_monic must compare against the field's one
    y, one, zero = F9.element([0, 1]), F9.one(), F9.zero()
    g = KPoly(F9, [y, zero, one])  # Z^2 + y
    h = KPoly(F9, [one, y + one])  # (y + 1) Z + 1
    assert g.is_monic and not h.is_monic and h.monic().is_monic
    q, r = divmod(g, h)
    assert q * h + r == g and r.degree < h.degree
    for result in (h.monic(), g ** 3, g ** 0, q, r, g.gcd(h), g % h, g // h):
        assert type(result) is KPoly and result.field is F9
    assert g ** 0 == KPoly(F9, [one])


def _pairs_with_shared_factors(rng, draw):
    """Every degree pair 0-5 from draw(rng, degree), then ten pairs with a
    common factor of degree 1 or 2."""
    pairs = [(draw(rng, df), draw(rng, dg)) for df in range(6) for dg in range(6)]
    for _ in range(10):
        h = draw(rng, rng.randint(1, 2))
        pairs.append((h * draw(rng, rng.randint(0, 3)), h * draw(rng, rng.randint(0, 3))))
    return pairs


def test_embedding_into_a_number_field_commutes_with_the_ring_methods():
    rng = random.Random(41)

    def emb(p):
        return KPoly.from_qpoly(GAUSS, p)

    for f, g in _pairs_with_shared_factors(rng, _random_qpoly):
        F, G = emb(f), emb(g)
        assert F + G == emb(f + g) and F - G == emb(f - g) and F * G == emb(f * g), (f, g)
        assert F.monic() == emb(f.monic()) and F.derivative() == emb(f.derivative())
        assert F.squarefree_part() == emb(f.squarefree_part())
        assert F.gcd(G) == emb(f.gcd(g)), (f, g)
        assert F.resultant(G) == GAUSS.rational(f.resultant(g)), (f, g)
        q, r = divmod(F, G)
        assert (q, r) == tuple(map(emb, divmod(f, g))), (f, g)


def _random_int_poly(rng, degree):
    return QPoly([rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-4, -3, -1, 1, 2, 5])])


@pytest.mark.parametrize("p", [2, 3, 7])
def test_kpoly_over_f_p_agrees_with_the_integer_kernel(p):
    Fp = FF(p, (0, 1))
    rng = random.Random(50 + p)

    def emb(f):
        return KPoly(Fp, [Fp.element([int(c)]) for c in f.coeffs])

    def ints(F):
        return tuple(c.coeffs[0] for c in F.coeffs)

    for f, g in _pairs_with_shared_factors(rng, _random_int_poly):
        a, b = fred([int(c) for c in f.coeffs], p), fred([int(c) for c in g.coeffs], p)
        F, G = emb(f), emb(g)
        assert ints(F + G) == fadd(a, b, p) and ints(F - G) == fsub(a, b, p)
        assert ints(F * G) == fmul(a, b, p)
        assert ints(F.gcd(G)) == fgcd(a, b, p), (f, g)
        if b:
            assert tuple(map(ints, divmod(F, G))) == fdivmod(a, b, p), (f, g)


def test_equality_across_classes_and_fields_and_hashing():
    q = QPoly([1, 0, 1])
    k = KPoly.from_qpoly(GAUSS, q)
    assert (q == k) is False and (k == q) is False
    assert q != k and k != q
    other = KPoly.from_qpoly(_SQRT2, q)
    assert (k == other) is False and (other == k) is False and k != other
    assert k == KPoly.from_qpoly(nf_create("X^2+1"), q)  # an equal field
    F3 = FF(3, (0, 1))
    over_f9 = KPoly(F9, [F9.one(), F9.zero(), F9.one()])
    assert (over_f9 == KPoly(F3, [F3.one(), F3.zero(), F3.one()])) is False
    assert (over_f9 == k) is False
    with pytest.raises(TypeError):
        hash(k)
    assert hash(q) == hash(parse_poly("1 + X^2"))
    assert {GAUSS: "gauss"}[nf_create("X^2+1")] == "gauss"


def test_cyclotomic_pinned():
    assert cyclotomic(1) == P(-1, 1)
    assert cyclotomic(4) == P(1, 0, 1)
    assert cyclotomic(6) == P(1, -1, 1)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        prod = QPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == QPoly.monomial(1, n) - QPoly.one()


def test_parse_and_format_roundtrip():
    for text, coeffs in [
        ("X^2+1", (1, 0, 1)),
        ("1 + 2*X - 1/2*X^3", (1, 2, 0, Fraction(-1, 2))),
        ("-X", (0, -1)),
        ("7", (7,)),
        ("X", (0, 1)),
    ]:
        p = parse_poly(text)
        assert p == QPoly(coeffs)
        assert parse_poly(format_poly(p)) == p


def test_format_is_ascending_and_sparse():
    assert format_poly(P(1, 0, 1)) == "1 + X^2"
    assert format_poly(P(0, Fraction(-1, 2))) == "-1/2*X"
    assert format_poly(QPoly.zero()) == "0"


@pytest.mark.parametrize(
    "coeffs",
    [(1, 0, 1), (-2, 0, 1), (0, -1, 0, 1), (-1, -1, 1, 1, 0, 1), (2, -3, 0, 0, 1)],
)
def test_real_root_count_matches_sympy(coeffs):
    assert len(QPoly(coeffs).isolate_real_roots()) == oracle_real_root_count(coeffs)


@pytest.mark.parametrize(
    "f",
    [
        -P(-2, 0, 1) ** 2 * P(1, 1) ** 3,  # -(X^2-2)^2 (X+1)^3
        P(-3) * P(-2, 0, 0, 1) ** 2 * P(-3, 1),  # -3 (X^3-2)^2 (X-3)
        -P(-1, 1) ** 4 * P(0, 1) ** 2 * P(1, 0, 1),  # -(X-1)^4 X^2 (X^2+1)
        P(Fraction(-1, 2)) * P(-1, 2) ** 3 * P(-3, 0, 1) * P(-2, 0, 1) ** 2,
    ],
)
def test_isolation_of_repeated_roots_matches_sympy(f):
    # one Sturm chain of f and f' counts distinct roots, with no squarefree step
    ivs = f.isolate_real_roots()
    assert len(ivs) == oracle_distinct_real_root_count(f.coeffs)
    roots = sorted(set(sym_poly(f.coeffs).real_roots()))
    for (lo, hi), r in zip(ivs, roots):
        assert f(lo) != 0 and f(hi) != 0
        assert lo < r < hi


def test_isolation_intervals_are_isolating():
    f = P(-2, 0, 1) * P(-3, 0, 1) * P(5, 1)  # roots +-sqrt2, +-sqrt3, -5
    ivs = f.isolate_real_roots()
    assert len(ivs) == 5
    roots = sorted(float(r) for r in
                   [-(5), -(3 ** 0.5), -(2 ** 0.5), 2 ** 0.5, 3 ** 0.5])
    for (lo, hi), r in zip(ivs, roots):
        assert float(lo) < r < float(hi)
    # pairwise disjoint and ascending
    for i in range(len(ivs) - 1):
        assert ivs[i][1] <= ivs[i + 1][0]


def test_isolation_of_roots_far_apart_in_scale(wall_clock_limit):
    # 10^200 -+ sqrt2 inside a Cauchy box about 10^400 wide: about 1330
    # halvings separate them, deeper than the default stack allows for one
    # Python frame per halving
    c = 10**200
    f = P(c * c - 2, -2 * c, 1)
    with wall_clock_limit(2.0):
        ivs = f.isolate_real_roots()
    assert len(ivs) == 2
    (_, hi0), (lo1, _) = ivs
    assert c - 2 < hi0 <= lo1 < c + 2  # a cut between the roots
    for lo, hi in ivs:
        assert f(lo) * f(hi) < 0


def test_random_eval_consistency_with_sympy():
    import sympy

    rng = random.Random(3)
    for _ in range(50):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        mine = QPoly(coeffs)(x)
        theirs = sym_poly(coeffs).as_expr().subs(
            sympy.Symbol("x"), sympy.Rational(x.numerator, x.denominator)
        )
        assert sympy.Rational(mine.numerator, mine.denominator) == theirs


def test_integer_sign_matches_fraction_horner():
    # non-integral coefficients at points whose denominators are not powers
    # of two; every third polynomial gets a factor (X - x), so x is a root
    rng = random.Random(8080)
    for i in range(500):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 7))]
        x = Fraction(rng.randint(-40, 40), rng.choice([3, 5, 6, 7, 9, 10, 11, 12, 15, 21]))
        f = QPoly(coeffs) * QPoly([-x, 1]) if i % 3 == 0 else QPoly(coeffs)
        v = Fraction(0)
        for c in reversed(f.coeffs):
            v = v * x + c
        assert f.sign_at(x) == (v > 0) - (v < 0), (f, x)


# --- Sturm chains over Q on integers ----------------------------------------

def variations(seq, x):
    """Sign variations of a QPoly sequence at the rational x."""
    return sign_changes([p.sign_at(x) for p in seq])


def _fraction_chain_isolation(f):
    """isolate_real_roots on the Fraction chain sturm_sequence(f, f'), kept
    as the reference for the integer chain."""
    if f.degree < 1:
        return []
    seq = sturm_sequence(f, f.derivative())
    b = f.root_bound()
    lo, hi = -b, b
    out, stack = [], [(lo, hi, variations(seq, lo) - variations(seq, hi))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 1:
            out.append((lo, hi))
        if n <= 1:
            continue
        mid = (lo + hi) / 2
        while f.sign_at(mid) == 0:
            mid = (lo + mid) / 2
        nl = variations(seq, lo) - variations(seq, mid)
        stack.append((mid, hi, n - nl))
        stack.append((lo, mid, nl))
    return out


def _random_real_rooted(rng):
    """A rational polynomial of degree 1-8: a product of rational linear
    factors, some repeated, and random factors with non-integer
    coefficients, so that some roots are rational, close together or
    repeated."""
    f = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) or 1])
    while f.degree < rng.randint(1, 8):
        if rng.random() < 0.5:
            r = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4, 3, 7]))
            f = f * QPoly([-r, 1]) ** rng.choice([1, 1, 2])
        else:
            d = rng.randint(1, 3)
            f = f * QPoly([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)]
                          + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))])
    return f


def test_integer_chain_isolates_exactly_like_the_fraction_chain(wall_clock_limit):
    polys = [parse_poly(text) for text in FIELD_CORPUS]
    rng = random.Random(2121)
    polys += [_random_real_rooted(rng) for _ in range(2000)]
    assert sum(any(c.denominator > 1 for c in f.coeffs) for f in polys) > 500
    # a chain with a wrong sign can make the bisection run forever
    with wall_clock_limit(60):
        for f in polys:
            assert f.isolate_real_roots() == _fraction_chain_isolation(f), f


def test_integer_chain_is_a_positive_multiple_of_the_sturm_sequence():
    rng = random.Random(2222)
    for i in range(400):
        f = _random_real_rooted(rng) if i % 2 else _random_qpoly(rng, rng.randint(1, 7))
        g = f.derivative() if i % 3 else _random_qpoly(rng, rng.randint(0, 6))
        if g.is_zero:
            continue
        chain, seq = integer_sturm_chain(f, g), sturm_sequence(f, g)
        assert len(chain) == len(seq)
        for P, S in zip(chain, seq):
            assert all(isinstance(c, int) for c in P) and math.gcd(*P) == 1
            c = P[-1] / S.lc
            assert c > 0 and QPoly(P) == S * c, (f, g)


def test_isolation_and_signs_divide_no_polynomial(monkeypatch):
    # both read the integer chain; no Fraction division by a QPoly is left
    rng = random.Random(2323)
    fields = [nf_create(text) for text in FIELD_CORPUS]
    elements = [[K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(K.degree)]) for _ in range(6)] for K in fields]
    divisions = _count_calls(monkeypatch, QPoly, "__divmod__")
    signs = []
    for K, xs in zip(fields, elements):
        orderings = [Ordering(K, i, lo, hi)
                     for i, (lo, hi) in enumerate(K.poly.isolate_real_roots())]
        signs += [(O, x, O.sign(x)) for O in orderings for x in xs]
    assert not divisions and len(signs) > 100
    monkeypatch.undo()
    for O, x, sign in signs:
        # the Cauchy index on the Fraction chain, times the sign of f at hi
        f, g = O.field.poly, x.as_qpoly()
        if g.degree < 1:
            assert sign == (g.coeff(0) > 0) - (g.coeff(0) < 0)
            continue
        seq = sturm_sequence(f, g)
        index = variations(seq, O.interval[0]) - variations(seq, O.interval[1])
        assert sign == index * f.sign_at(O.interval[1])


def test_rational_enumeration_prefix():
    got = list(islice(rationals_by_height(), 13))
    expect = [
        Fraction(0), Fraction(1), Fraction(-1),
        Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2),
        Fraction(3), Fraction(-3), Fraction(3, 2), Fraction(-3, 2),
        Fraction(1, 3), Fraction(-1, 3),
    ]
    assert got == expect


def test_rational_enumeration_hits_one_fifth_late():
    # at p=5 the first element with negative 5-adic value must be 1/5
    seen = []
    for q in islice(rationals_by_height(), 60):
        if q != 0 and (q.denominator % 5 == 0):
            seen.append(q)
            break
        seen.append(None)
    assert Fraction(1, 5) in seen


# --- the one powering loop --------------------------------------------------

def _products(k):
    """floor(log2 k) + popcount(k) - 1: left-to-right binary powering."""
    return k.bit_length() + bin(k).count("1") - 2 if k else 0


def _repeated(x, k, one, mul):
    acc = one
    for _ in range(k):
        acc = mul(acc, x)
    return acc


_RATIONALS, _CBRT2 = nf_create("X"), nf_create("X^3-2")
_F9_Y = F9.element([0, 1])
# F_(3^4) = F_3[Y]/(Y^4 + Y + 2), for fpowmod's fused product-and-reduce
_M81 = (2, 1, 0, 0, 1)
# (x, one, product) for each ring the kernel serves
_RINGS = {
    "Q": (_RATIONALS.rational(Fraction(-3, 2)), _RATIONALS.one(), operator.mul),
    "Q(i)": (GAUSS.element([1, 1]), GAUSS.one(), operator.mul),
    "Q(cbrt 2)": (_CBRT2.element([1, Fraction(1, 2), -1]), _CBRT2.one(), operator.mul),
    "QPoly": (P(1, Fraction(-2, 3), 1), P(1), operator.mul),
    "KPoly over F_9": (KPoly(F9, [_F9_Y, F9.one(), _F9_Y]), KPoly(F9, [F9.one()]), operator.mul),
    "MPoly": (MPoly(2, {(1, 0): 1, (0, 1): Fraction(-2)}), MPoly.const(2, 1), operator.mul),
    "fpowmod": ((2, 1, 2), (1,), lambda a, b: fmod(fmul(a, b, 3), _M81, 3)),
}


@pytest.mark.parametrize("name", list(_RINGS))
def test_power_matches_repeated_products_with_the_binary_count(name):
    x, one, mul = _RINGS[name]
    for k in range(65):
        calls = []

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        got = power(x, k, one, counted)
        assert got == _repeated(x, k, one, mul), (name, k)
        assert len(calls) == _products(k), (name, k)
    assert power(x, 0, one) is one


def _count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("name,owner,attr", [
    ("Q", FieldElement, "__mul__"),
    ("Q(i)", FieldElement, "__mul__"),
    ("Q(cbrt 2)", FieldElement, "__mul__"),
    ("QPoly", QPoly, "__mul__"),
    ("KPoly over F_9", QPoly, "__mul__"),
    ("MPoly", MPoly, "__mul__"),
    ("fpowmod", ffield, "_fmulmod_monic"),
])
def test_each_pow_runs_the_kernel(name, owner, attr, monkeypatch):
    x, one, mul = _RINGS[name]
    expect = [_repeated(x, k, one, mul) for k in range(65)]
    calls = _count_calls(monkeypatch, owner, attr)
    for k in range(65):
        calls.clear()
        got = fpowmod(x, k, _M81, 3) if name == "fpowmod" else x ** k
        assert got == expect[k], (name, k)
        assert len(calls) == _products(k), (name, k)


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(cbrt 2)"])
def test_negative_powers_of_field_elements_invert(name):
    x, one, _ = _RINGS[name]
    for k in range(1, 9):
        assert x ** -k == (x ** k).inverse()
        assert x ** -k * x ** k == one


@pytest.mark.parametrize("name", ["QPoly", "KPoly over F_9", "MPoly"])
def test_negative_powers_of_polynomials_raise(name):
    x = _RINGS[name][0]
    with pytest.raises(ValueError):
        x ** -1
    with pytest.raises(ValueError):
        power(x, -2, _RINGS[name][1])


_F243 = FF(3, (1, 2, 0, 0, 0, 1))  # F_3[Y]/(Y^5 + 2Y + 1)


def test_divmod_inverts_the_leading_coefficient_only_when_not_one(monkeypatch):
    F = _F243
    y, one = F.element([0, 1]), F.one()
    a = KPoly(F, [y, one, y, y + one, one, y, one])
    inverses = _count_calls(monkeypatch, FFElem, "inverse")
    for lc, expect in ((one, 0), (y, 1)):
        inverses.clear()
        g = KPoly(F, [one + y, y, lc])
        q, r = divmod(a, g)
        assert q * g + r == a and r.degree < 2
        assert len(inverses) == expect
    # a divisor above the dividend's degree takes no division step
    inverses.clear()
    assert divmod(KPoly(F, [y]), KPoly(F, [one, y])) == (KPoly(F, []), KPoly(F, [y]))
    assert not inverses


def test_split_at_q_243_finds_the_scanned_roots_without_inverting_the_modulus(monkeypatch):
    # above the scan limit ff_poly_roots splits by powers mod monic moduli;
    # a scan of all 243 elements is the referee
    F = _F243
    y, one = F.element([0, 1]), F.one()
    h = KPoly(F, [one])
    for r in (y, y + one, -(y * y), F.zero()):
        h = h * KPoly(F, [-r, one])
    h = h * KPoly(F, [one, F.zero(), one])  # Y^2 + 1: no root in F_(3^5)
    coeffs = list(h.coeffs)
    inverses = _count_calls(monkeypatch, FFElem, "inverse")
    powmods = []
    original = KPoly.__mod__

    def counted_mod(a, b):
        before = len(inverses)
        out = original(a, b)
        powmods.append(len(inverses) - before)
        return out

    monkeypatch.setattr(KPoly, "__mod__", counted_mod)
    split = localdata.ff_poly_roots(F, coeffs)
    assert powmods and not any(powmods)
    monkeypatch.setattr(localdata, "SCAN_LIMIT", F.order)
    scanned = localdata.ff_poly_roots(F, coeffs)
    assert split == scanned == sorted([y, y + one, -(y * y), F.zero()], key=lambda r: r.key())
