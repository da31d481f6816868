"""Finite fields and factorization mod p."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from prime_scope.errors import NotPIntegral, Unsupported, ZeroElement
from prime_scope.ffield import (
    FF,
    factor_fpoly,
    fadd,
    fdivmod,
    ff_is_square,
    ffield_order,
    fmul,
    fred,
    irreducible_poly,
    is_prime,
    poly_factor_mod_p,
)
from prime_scope.localdata import ff_poly_roots
from prime_scope.qpoly import QPoly, parse_poly

from oracles import oracle_factor_mod_p


def test_factor_pinned_split():
    # X^2+1 at 5 splits into X+2, X+3
    fs = poly_factor_mod_p(parse_poly("X^2+1"), 5)
    assert [(tuple(int(c) for c in f.coeffs), m) for f, m in fs] == [
        ((2, 1), 1),
        ((3, 1), 1),
    ]


def test_factor_pinned_ramified():
    fs = poly_factor_mod_p(parse_poly("X^2+1"), 2)
    assert [(tuple(int(c) for c in f.coeffs), m) for f, m in fs] == [((1, 1), 2)]


def test_factor_rejects_non_p_integral():
    with pytest.raises(NotPIntegral):
        poly_factor_mod_p(QPoly([Fraction(1, 5), 0, 1]), 5)


def test_factor_reexpansion_randomized():
    rng = random.Random(20240517)
    primes = [2, 3, 5, 7, 11, 13]
    for _ in range(1000):
        p = rng.choice(primes)
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        a = tuple(coeffs)
        if not any(a[:-1]) and len(a) == 1:
            continue
        fs = factor_fpoly(a, p)
        # multiply back
        prod = (1,)
        for f, m in fs:
            for _ in range(m):
                prod = fmul(prod, f, p)
        assert prod == a


def test_factor_matches_sympy_oracle():
    rng = random.Random(99)
    for _ in range(120):
        p = rng.choice([2, 3, 5, 7, 13])
        deg = rng.randint(1, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        mine = [
            (tuple(int(c) for c in f.coeffs), m)
            for f, m in poly_factor_mod_p(QPoly(coeffs), p)
        ]
        assert mine == oracle_factor_mod_p(coeffs, p)


def test_irreducible_poly_pinned():
    assert irreducible_poly(2, 2) == parse_poly("X^2+X+1")
    assert irreducible_poly(3, 1) == parse_poly("X")
    assert irreducible_poly(5, 2) == parse_poly("X^2+2")


def test_irreducible_poly_is_irreducible():
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3, 4):
            m = irreducible_poly(p, d)
            assert m.degree == d and m.is_monic
            fs = poly_factor_mod_p(m, p)
            assert len(fs) == 1 and fs[0][1] == 1


def test_ffield_order_pinned():
    F5 = FF(5, 1)
    assert ffield_order(F5.element([2])) == 4
    assert ffield_order(F5.element([4])) == 2
    assert ffield_order(F5.element([1])) == 1
    with pytest.raises(ZeroElement):
        ffield_order(F5.zero())


def test_ffield_order_divides_group_order():
    F = FF(3, 2)
    for x in F.elements():
        if x.is_zero:
            continue
        assert (3 ** 2 - 1) % ffield_order(x) == 0
        assert x ** ffield_order(x) == F.one()


def test_ff_arithmetic_field_axioms():
    F = FF(2, 3)
    xs = list(F.elements())
    assert len(xs) == 8
    for a in xs:
        for b in xs:
            assert (a + b) - b == a
            if not b.is_zero:
                assert (a * b) * b.inverse() == a


def test_ff_is_square_counts():
    # in odd F_q exactly (q+1)/2 elements are squares (0 included)
    for (p, f) in [(3, 1), (5, 1), (3, 2), (7, 1)]:
        F = FF(p, f)
        n = sum(1 for x in F.elements() if ff_is_square(x))
        assert n == (F.order + 1) // 2


def _ff_mul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def _brute_roots(F, cs):
    roots = []
    for t in F.elements():
        acc = F.zero()
        for c in reversed(cs):
            acc = acc * t + c
        if acc.is_zero:
            roots.append(t)
    return roots


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_ff_poly_roots_match_brute_force(p, f):
    # p = 2 runs the trace splitter, odd p the quadratic-character one
    F = FF(p, f)
    els = list(F.elements())  # ascending key order, as ff_poly_roots sorts
    rng = random.Random(97 * p + f)
    rootless = next(
        [c, b, F.one()] for b in els for c in els if not _brute_roots(F, [c, b, F.one()])
    )
    cases = [[rng.choice(els) for _ in range(rng.randrange(1, 6))] + [rng.choice(els[1:])] for _ in range(8)]
    for _ in range(3):
        r, s = rng.choice(els), rng.choice(els)
        square = _ff_mul([-r, F.one()], [-r, F.one()], F)
        cases.append(_ff_mul(square, [-s, F.one()], F))  # repeated root r
        cases.append(_ff_mul(square, rootless, F))  # repeated root and a rootless factor
    cases += [rootless, _ff_mul(rootless, rootless, F), [F.one()], [rng.choice(els[1:])]]
    for cs in cases:
        assert ff_poly_roots(F, cs) == _brute_roots(F, cs), cs
    assert ff_poly_roots(F, rootless) == []
    with pytest.raises(ZeroElement):
        ff_poly_roots(F, [])
    with pytest.raises(ZeroElement):
        ff_poly_roots(F, [F.zero(), F.zero()])


def _check_division(a, b, m):
    q, r = fdivmod(a, b, m)
    assert len(r) < len(b)
    assert fadd(fmul(q, b, m), r, m) == a


def test_fdivmod_non_monic_divisor_mod_p():
    rng = random.Random(31)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        b = fred([rng.randrange(p) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, p)], p)
        a = fred([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
        _check_division(a, b, p)


def test_fdivmod_monic_divisor_mod_prime_power():
    rng = random.Random(32)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        m = p ** rng.randint(2, 40)
        b = fred([rng.randrange(m) for _ in range(rng.randint(0, 4))] + [1], m)
        a = fred([rng.randrange(-m, m) for _ in range(rng.randint(0, 9))], m)
        _check_division(a, b, m)


def test_is_prime_matches_trial_division():
    want = [n for n in range(-3, 5000) if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(-3, 5000) if is_prime(n)] == want
    # strong pseudoprimes to the bases 2..23 and 2..37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)


def test_is_prime_refuses_beyond_its_proven_range():
    with pytest.raises(Unsupported):
        is_prime(2**89 - 1)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_finite_field_rejects_composite_p(p):
    with pytest.raises(ValueError):
        FF(p, 2)
