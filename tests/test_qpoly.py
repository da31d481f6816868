"""Exact rational polynomial layer."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import pytest

from prime_scope.numberfield import KPoly, nf_create
from prime_scope.qpoly import (
    QPoly,
    cyclotomic,
    format_poly,
    parse_poly,
    poly_resultant,
    rationals_by_height,
    sturm_sequence,
)

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
