"""Finite fields and factorization mod p."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from prime_scope import ffield
from prime_scope.errors import NotPIntegral, Unsupported, ZeroElement
from prime_scope.ffield import (
    FF,
    SCAN_LIMIT,
    factor_fpoly,
    fadd,
    fderiv,
    fdivmod,
    ff_is_square,
    fgcd,
    fmod,
    fmul,
    fpowmod,
    fred,
    fp_roots,
    is_prime,
    poly_factor_mod_p,
    reduce_qpoly_mod_p,
)
from prime_scope import localdata
from prime_scope.localdata import ff_poly_roots
from prime_scope.numberfield import KPoly, NumberField
from prime_scope.primes import primes_above
from prime_scope.qpoly import QPoly, parse_poly

from oracles import ffield_order, irreducible_poly, oracle_factor_mod_p


def _canonical_ff(p, f):
    """F_{p^f} modulo the canonical irreducible of degree f."""
    return FF(p, reduce_qpoly_mod_p(irreducible_poly(p, f), p))


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


def test_factor_matches_sympy_oracle_with_multiplicities_divisible_by_p():
    # products of powers whose exponents p | m exercise the deflation branch
    # of the squarefree split, and m = p + 1 mixes it with Yun's bands
    rng = random.Random(4242)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a = (1,)
        for _ in range(rng.randint(1, 3)):
            h = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))) + (1,)
            for _ in range(rng.choice([1, p, 2 * p, p + 1, p * p])):
                a = fmul(a, h, p)
        assert factor_fpoly(a, p) == oracle_factor_mod_p(list(a), p), (a, p)


def _random_fpoly(rng, p, deg):
    """A random nonzero polynomial of degree deg over F_p, not always monic;
    one in four is divisible by X and one in four has a repeated factor."""

    def draw(d):
        return tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)

    shape = rng.randrange(4)
    if shape == 1:
        return (0,) + draw(deg - 1)
    if shape == 2 and deg >= 2:
        h = draw(deg // 2)
        return fmul(fmul(h, h, p), draw(deg % 2), p)
    return draw(deg)


@pytest.mark.parametrize("p", [2, 3, 5, 97, 199, 211, 1009])
def test_factor_matches_the_oracle_on_both_sides_of_the_scan_limit(p):
    # below the limit the linear factors come from the F_p scan, above it
    # from Frobenius and the equal-degree split
    rng = random.Random(7000 + p)
    for _ in range(40):
        a = _random_fpoly(rng, p, rng.randint(1, 8))
        assert factor_fpoly(a, p) == oracle_factor_mod_p(list(a), p), (a, p)


def test_fp_roots_are_the_zeros_of_the_polynomial():
    rng = random.Random(61)
    for p in (2, 3, 7, 31, 199):
        for _ in range(20):
            a = _random_fpoly(rng, p, rng.randint(1, 6))
            zeros = [x for x in range(p) if not sum(c * x**i for i, c in enumerate(a)) % p]
            assert fp_roots(a, p) == zeros, (a, p)


def test_small_squarefree_factorizations_take_no_frobenius_power(monkeypatch):
    # below the limit a squarefree input of degree <= 3 is settled by the
    # scan, and a product of distinct linear factors of any degree draws no
    # randomness: no X^p mod g and no equal-degree split
    calls = []
    monkeypatch.setattr(ffield, "fpowmod", lambda *a: calls.append(a))
    monkeypatch.setattr(ffield, "_equal_degree_split", lambda *a: calls.append(a))
    rng = random.Random(62)
    tried = 0
    for p in (2, 3, 5, 7, 13, 97, 199):
        assert p <= SCAN_LIMIT
        for _ in range(30):
            a = _random_fpoly(rng, p, rng.randint(1, 3))
            if fgcd(a, fderiv(a, p), p) == (1,):
                fs = factor_fpoly(a, p)
                assert all(m == 1 for _f, m in fs)
                tried += 1
        roots = rng.sample(range(p), min(p, 8))
        a = (1,)
        for r in roots:
            a = fmul(a, ((-r) % p, 1), p)
        assert factor_fpoly(a, p) == sorted((((-r) % p, 1), 1) for r in roots)
    assert tried > 100 and not calls


def test_splitting_at_a_huge_prime_does_not_scan(wall_clock_limit):
    # p = 10^9 + 7 lies far above the limit: a scan of F_p would take hours
    K = NumberField(parse_poly("X^4+X+1"))
    with wall_clock_limit(2):
        Ps = primes_above(K, 10**9 + 7)
    assert sum(P.e * P.f for P in Ps) == 4


def _ladder_powmod(a, e, m, p):
    """a^e mod (m, p) by square-and-multiply with a separate product and
    division at every step."""
    result, a = (1,), fmod(a, m, p)
    while e:
        if e & 1:
            result = fmod(fmul(result, a, p), m, p)
        a = fmod(fmul(a, a, p), m, p)
        e >>= 1
    return result


def test_fused_fpowmod_matches_the_product_then_divide_ladder():
    rng = random.Random(1357)
    for p in (2, 3, 97):
        for n in range(1, 7):
            # over F_2 every modulus is monic
            for lead in {1, rng.randrange(2, p) if p > 2 else 1}:
                for _ in range(15):
                    m = tuple(rng.randrange(p) for _ in range(n)) + (lead,)
                    a = fred([rng.randrange(p) for _ in range(rng.randint(0, 2 * n))], p)
                    for e in (0, 1, p, rng.randrange(2, p**n + 2)):
                        assert fpowmod(a, e, m, p) == _ladder_powmod(a, e, m, p), (a, e, m, p)


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
    F5 = _canonical_ff(5, 1)
    assert ffield_order(F5.element([2])) == 4
    assert ffield_order(F5.element([4])) == 2
    assert ffield_order(F5.element([1])) == 1
    with pytest.raises(ZeroElement):
        ffield_order(F5.zero())


def test_ffield_order_divides_group_order():
    F = _canonical_ff(3, 2)
    for x in F.elements():
        if x.is_zero:
            continue
        assert (3 ** 2 - 1) % ffield_order(x) == 0
        assert x ** ffield_order(x) == F.one()


def test_ff_arithmetic_field_axioms():
    F = _canonical_ff(2, 3)
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
        F = _canonical_ff(p, f)
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


# every (p, f) with p in 2, 3, 5, 7 and f in 1, 2, 3, then larger fields on
# both sides of the scan limit of ff_poly_roots: q = 97, 128, 169, 199 below
# it (F_p by fp_roots, F_q for f >= 2 by KPoly evaluation) and q = 211, 243,
# 256, 289, 512 above it, where the splitter runs
_ROOT_FIELDS = [(p, f) for f in (1, 2, 3) for p in (2, 3, 5, 7)]
_ROOT_FIELDS += [(97, 1), (199, 1), (211, 1)]
_ROOT_FIELDS += [(2, 7), (13, 2), (3, 5), (2, 8), (17, 2), (2, 9)]


@pytest.mark.parametrize("p, f", _ROOT_FIELDS, ids=[f"{f}-{p}" for p, f in _ROOT_FIELDS])
def test_ff_poly_roots_match_brute_force(p, f):
    # p = 2 runs the trace splitter, odd p the quadratic-character one
    F = _canonical_ff(p, f)
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
        FF(p, (1, 1, 1))


@pytest.mark.parametrize("p", [4, 9, 15])
def test_irreducible_poly_rejects_composite_p(p):
    # a composite p used to get X^2+1 back (p = 15) or a bare AssertionError
    with pytest.raises(ValueError):
        irreducible_poly(p, 2)


@pytest.mark.parametrize(
    "p, modulus",
    [
        (5, (1, 0, 1)),  # X^2+1 = (X+2)(X+3) mod 5
        (3, (1, 0, 2)),  # not monic
        (3, (4, 0, 1)),  # coefficient not reduced into [0, 3)
        (3, (-1, 0, 1)),
        (3, (1, 1, 0)),  # trailing zero: not in the kernel's trimmed form
        (3, (1,)),  # constant
        (3, ()),
    ],
)
def test_finite_field_rejects_bad_modulus(p, modulus):
    with pytest.raises(ValueError):
        FF(p, modulus)


def test_finite_field_is_one_object_per_modulus():
    F = FF(3, (1, 0, 1))
    assert FF(3, [1, 0, 1]) is F
    assert (F.p, F.f, F.modulus) == (3, 2, (1, 0, 1))
    assert FF(3, (2, 2, 1)) is not F


def test_roots_above_the_scan_limit_are_split(monkeypatch):
    # q = 243, 256, 289, 343 and 512 lie above the limit; the splitter finds
    # the roots without a single evaluation of the polynomial
    calls = []
    monkeypatch.setattr(KPoly, "__call__", lambda g, x: calls.append(x))
    for p, f in [(3, 5), (2, 8), (17, 2), (7, 3), (2, 9)]:
        F = _canonical_ff(p, f)
        assert F.order > localdata.SCAN_LIMIT
        r, s = F.element([1, 1]), F.element([0, 2 % p, 1])
        cs = _ff_mul([-r, F.one()], [-s, F.one()], F)
        assert ff_poly_roots(F, cs) == sorted({r, s}, key=lambda x: x.key())
    assert not calls


def test_ffelem_operands_are_checked():
    F9, F5 = FF(3, (1, 0, 1)), FF(5, (0, 1))
    a = F9.element([0, 1])
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(a, F5.one())
        with pytest.raises(TypeError):
            op(a, "x")
    # a KPoly operand reaches KPoly's reflected methods
    g = KPoly(F9, [F9.one(), a, F9.one()])
    assert a * g == g * a == KPoly(F9, [a, a * a, a])
    assert a + g == g + a
    assert a - g == -(g - a)


def test_ffelem_product_is_the_reduced_polynomial_product():
    for p, f in [(2, 3), (3, 3), (5, 2), (7, 1)]:
        F = _canonical_ff(p, f)
        xs = list(F.elements())
        for a in xs:
            for b in xs[:: max(1, len(xs) // 9)]:
                want = fmod(fmul(fred(a.coeffs, p), fred(b.coeffs, p), p), F.modulus, p)
                assert a * b == F.element(want)


def test_trace_splitter_tries_only_a_basis(monkeypatch):
    # over F_(2^10), T(aY) separates the roots 0 and d exactly when
    # T(a d) = 1; for this d that fails for every a in the span of
    # 1, Y, ..., Y^8 (the keys below 512) and holds for a = Y^9
    F = _canonical_ff(2, 10)

    def trace(z):
        acc, w = F.zero(), z
        for _ in range(F.f):
            acc, w = acc + w, w * w
        return acc

    basis = [F.element([0] * i + [1]) for i in range(F.f)]
    d = next(z for z in F.elements()
             if not any(trace(b * z) for b in basis[:9]) and trace(basis[9] * z))
    gcds = []
    gcd = KPoly.gcd
    monkeypatch.setattr(KPoly, "gcd", lambda g, h: gcds.append(g) or gcd(g, h))
    assert ff_poly_roots(F, [F.zero(), -d, F.one()]) == [F.zero(), d]
    # one gcd keeps the split part, then one per shift: Y, Y^2, ..., Y^9
    assert len(gcds) == 1 + 9
