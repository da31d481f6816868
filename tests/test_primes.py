"""Prime splitting, valuations, residues, type sets, holomorphy rings."""

import math
import random
from fractions import Fraction

import pytest

import prime_scope.primes as primes_module
from prime_scope.errors import IndexDivisible, NegativeValuation
from prime_scope.ffield import ffield_order, fmul, fred
from prime_scope.formulas import rootless_poly
from prime_scope.localdata import dedekind_applies, lift_block_factorization
from prime_scope.numberfield import nf_create, real_embeddings
from prime_scope.primes import (
    INFINITE_PLACE,
    PrimeType,
    chi_member,
    holomorphy_member,
    in_ring,
    primes_above,
    primes_of_type,
    quadratic_step_search,
    residue,
    valuation,
)
from prime_scope.squares import kochen
from prime_scope.suite import FIELD_CORPUS

GAUSS = nf_create("X^2+1")
RAT = nf_create("X")
SQRT2 = nf_create("X^2-2")


# --- splitting ---------------------------------------------------------------

def test_gaussian_splitting_table():
    at5 = primes_above(GAUSS, 5)
    assert [(P.e, P.f) for P in at5] == [(1, 1), (1, 1)]
    at2 = primes_above(GAUSS, 2)
    assert [(P.e, P.f) for P in at2] == [(2, 1)]
    at3 = primes_above(GAUSS, 3)
    assert [(P.e, P.f) for P in at3] == [(1, 2)]
    at13 = primes_above(GAUSS, 13)
    assert [(P.e, P.f) for P in at13] == [(1, 1), (1, 1)]


def test_sum_ef_equals_degree():
    for field, ps in [
        (GAUSS, [2, 3, 5, 7, 11, 13]),
        (nf_create("X^3-2"), [5, 7, 11, 31]),
        (nf_create("X^4+1"), [2, 3, 5, 17]),
    ]:
        for p in ps:
            assert sum(P.e * P.f for P in primes_above(field, p)) == field.degree


def test_index_divisible_raises():
    # Z[sqrt(-3)] has index 2 in the maximal order
    K = nf_create("X^2+3")
    with pytest.raises(IndexDivisible):
        primes_above(K, 2)
    # but odd primes are fine
    assert sum(P.e * P.f for P in primes_above(K, 7)) == 2


def test_prime_json_shape():
    P = primes_above(GAUSS, 5)[0]
    assert P.to_json() == {"kind": "p-adic", "p": 5, "e": 1, "f": 1, "index": 0}
    O = real_embeddings(SQRT2)[0]
    j = O.to_json()
    assert j["kind"] == "ordering" and j["index"] == 0 and len(j["interval"]) == 2


# --- valuation ---------------------------------------------------------------

def test_valuation_of_rational_at_5():
    (P,) = primes_above(RAT, 5)
    assert valuation(P, RAT.rational(50)) == 2
    assert valuation(P, RAT.rational(Fraction(1, 5))) == -1
    assert valuation(P, RAT.rational(3)) == 0
    assert valuation(P, RAT.zero()) == math.inf


def test_valuation_ramified_gaussian():
    (P,) = primes_above(GAUSS, 2)
    one_plus_i = GAUSS.element([1, 1])
    assert valuation(P, one_plus_i) == 1
    assert valuation(P, GAUSS.rational(2)) == 2
    assert valuation(P, P.uniformizer) == 1


def test_valuation_split_gaussian():
    P0, P1 = primes_above(GAUSS, 5)
    x = GAUSS.element([2, 1])  # 2 + i
    vals = sorted([valuation(P0, x), valuation(P1, x)])
    assert vals == [0, 1]
    # conjugate lands at the other prime
    y = GAUSS.element([2, -1])
    assert valuation(P0, x) + valuation(P0, y) == 1


def test_valuation_multiplicative_and_ultrametric():
    P0 = primes_above(GAUSS, 5)[0]
    rng = random.Random(404)
    for _ in range(150):
        a = GAUSS.element([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)])
        b = GAUSS.element([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)])
        if a.is_zero or b.is_zero:
            continue
        va, vb = valuation(P0, a), valuation(P0, b)
        assert valuation(P0, a * b) == va + vb
        s = a + b
        if not s.is_zero:
            vs = valuation(P0, s)
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


def test_valuation_inert_normalization():
    (P,) = primes_above(GAUSS, 3)
    # norm(1+i) = 2, a 3-unit, so v(1+i) = 0; v(3) = e = 1
    assert valuation(P, GAUSS.element([1, 1])) == 0
    assert valuation(P, GAUSS.rational(3)) == 1
    assert valuation(P, GAUSS.rational(9)) == 2


def test_valuation_cubic_field():
    K = nf_create("X^3-2")
    # 2 is totally ramified: v(alpha) = 1, v(2) = 3
    (P,) = primes_above(K, 2)
    assert (P.e, P.f) == (3, 1)
    assert valuation(P, K.gen()) == 1
    assert valuation(P, K.rational(2)) == 3


# --- residue -----------------------------------------------------------------

def test_residue_rational():
    (P,) = primes_above(RAT, 5)
    r = residue(P, RAT.rational(7))
    assert r == P.embedding().field.element([2])
    with pytest.raises(NegativeValuation):
        residue(P, RAT.rational(Fraction(1, 5)))
    assert residue(P, RAT.rational(Fraction(1, 2))).coeffs == (3,)  # 1/2 = 3 mod 5


def test_residue_generates_f9():
    (P,) = primes_above(GAUSS, 3)
    r = residue(P, GAUSS.gen())
    F9 = P.embedding().field
    assert r * r == -F9.one()
    assert r.coeffs[1] != 0  # genuinely outside the prime subfield


def test_residue_is_multiplicative():
    P = primes_above(GAUSS, 13)[1]
    rng = random.Random(77)
    for _ in range(60):
        a = GAUSS.element([rng.randint(-30, 30), rng.randint(-30, 30)])
        b = GAUSS.element([rng.randint(-30, 30), rng.randint(-30, 30)])
        if a.is_zero or b.is_zero:
            continue
        if valuation(P, a) < 0 or valuation(P, b) < 0:
            continue
        assert residue(P, a * b) == residue(P, a) * residue(P, b)
        assert residue(P, a + b) == residue(P, a) + residue(P, b)


def test_residue_with_denominator():
    # (2+i)/5 = 1/(2-i) has v = 0 at the index-0 prime above 5 (factor X+2),
    # and its residue is the inverse of residue(2-i) = 4, which is 4 again
    P0, P1 = primes_above(GAUSS, 5)
    x = GAUSS.element([Fraction(2, 5), Fraction(1, 5)])
    assert valuation(P0, x) == 0
    assert valuation(P1, x) == -1
    r = residue(P0, x)
    assert r == P0.embedding().field.element([4])


def test_lift_residue_roundtrip():
    (P,) = primes_above(GAUSS, 3)
    F9 = P.embedding().field
    for r in F9.elements():
        x = P.lift_residue(r)
        assert residue(P, x) == r
        assert all(0 <= c < 3 and c.denominator == 1 for c in x.coords)


# --- in_ring and type sets ----------------------------------------------------

def test_in_ring_examples():
    (P5,) = primes_above(RAT, 5)
    assert not in_ring(P5, RAT.rational(Fraction(1, 5)))
    assert in_ring(P5, RAT.one())
    assert in_ring(P5, RAT.zero())
    neg, pos = real_embeddings(SQRT2)
    assert in_ring(pos, SQRT2.gen())
    assert not in_ring(neg, SQRT2.gen())


def test_primes_of_type():
    assert len(primes_of_type(GAUSS, 5, PrimeType(1, 1), exact=True)) == 2
    assert len(primes_of_type(GAUSS, 3, PrimeType(1, 1), exact=True)) == 0
    assert len(primes_of_type(GAUSS, 3, PrimeType(1, 2), exact=True)) == 1
    assert len(primes_of_type(RAT, INFINITE_PLACE, PrimeType(1, 1))) == 1
    # non-exact: e' <= e, f' | f
    assert len(primes_of_type(GAUSS, 3, PrimeType(1, 2), exact=False)) == 1
    assert len(primes_of_type(GAUSS, 2, PrimeType(1, 1), exact=False)) == 0
    assert len(primes_of_type(GAUSS, 2, PrimeType(2, 1), exact=False)) == 1


def test_exact_types_partition():
    for p in (2, 3, 5, 7, 13):
        coarse = primes_of_type(GAUSS, p, PrimeType(2, 2), exact=False)
        cells = []
        for e in (1, 2):
            for f in (1, 2):
                cells.extend(primes_of_type(GAUSS, p, PrimeType(e, f), exact=True))
        # every coarse member sits in exactly one exact cell
        for P in coarse:
            assert sum(1 for Q in cells if Q == P) == 1


# --- chi classification --------------------------------------------------------

def test_chi_member_examples():
    (P,) = primes_above(RAT, 5)
    tau = PrimeType(1, 1)
    five, two, four, t25 = (RAT.rational(v) for v in (5, 2, 4, 25))
    assert chi_member(P, tau, five, two)
    assert not chi_member(P, tau, five, four)  # 4^2 - 1 = 15 is not a 5-unit
    assert not chi_member(P, tau, t25, two)  # 25/5 = 5 is not a unit


def test_chi_member_ordering_always_true():
    O = real_embeddings(RAT)[0]
    assert chi_member(O, PrimeType(3, 4), RAT.zero(), RAT.zero())


def test_chi_implies_uniformizer_and_generator():
    # chi true forces v(t) = e and residue(s) generating the unit group
    (P,) = primes_above(GAUSS, 3)
    tau = PrimeType(1, 2)
    t = GAUSS.rational(3)
    hits = 0
    for s0 in range(-4, 5):
        for s1 in range(-4, 5):
            s = GAUSS.element([s0, s1])
            if s.is_zero:
                continue
            if chi_member(P, tau, t, s):
                hits += 1
                assert valuation(P, t) == tau.e
                assert ffield_order(residue(P, s)) == 3**2 - 1
    assert hits > 0


# --- holomorphy ---------------------------------------------------------------

def test_holomorphy_examples():
    assert holomorphy_member(RAT, INFINITE_PLACE, PrimeType(1, 1), RAT.rational(7))
    assert not holomorphy_member(RAT, INFINITE_PLACE, PrimeType(1, 1), RAT.rational(-1))
    x = GAUSS.element([2, 1]) / GAUSS.element([2, -1])
    assert not holomorphy_member(GAUSS, 5, PrimeType(1, 1), x)
    assert holomorphy_member(RAT, 5, PrimeType(1, 1), RAT.rational(Fraction(1, 2)))


def test_holomorphy_unit_iff_both_sides():
    (P,) = primes_above(RAT, 7)
    tau = PrimeType(1, 1)
    for n in (1, 2, 7, 14, 3, Fraction(1, 7), Fraction(3, 2)):
        x = RAT.rational(n)
        both = holomorphy_member(RAT, 7, tau, x) and holomorphy_member(
            RAT, 7, tau, x.inverse()
        )
        assert both == (valuation(P, x) == 0)


# --- quadratic tower step -------------------------------------------------------

def test_quadratic_step_rational_examples():
    d_split = quadratic_step_search(RAT, 5, [(0, "split")])
    assert d_split.as_fraction() == -1
    d_inert = quadratic_step_search(RAT, 5, [(0, "inert")])
    assert d_inert.as_fraction() == 2
    d_ram = quadratic_step_search(RAT, 5, [(0, "ramified")])
    assert d_ram.as_fraction() == 5


def test_quadratic_step_two_constraints():
    # ask the two primes of Q(i) above 13 to behave differently
    from prime_scope.errors import Unsupported

    with pytest.raises(Unsupported):
        quadratic_step_search(RAT, 2, [(0, "split")])
    d = quadratic_step_search(GAUSS, 13, [(0, "split"), (1, "inert")])
    assert not d.is_zero


# --- Hensel block lifts and Dedekind's criterion ---------------------------

@pytest.mark.parametrize("N", [1, 2, 5, 16, 33])
def test_block_lifts_multiply_back_to_f(N):
    for text in FIELD_CORPUS:
        K = nf_create(text)
        f = [int(c) for c in K.poly.coeffs]
        for p in (2, 3, 5, 7, 11, 13):
            M = p**N
            prod = (1,)
            for hbar, e, F in lift_block_factorization(K.poly, p, N):
                prod = fmul(prod, F, M)
                power = (1,)
                for _ in range(e):
                    power = fmul(power, hbar, p)
                assert fred(F, p) == power, (text, p, N)
            assert prod == fred(f, M), (text, p, N)


def test_dedekind_applies_pinned():
    assert not dedekind_applies(nf_create("X^2+3").poly, 2)
    assert not dedekind_applies(nf_create("X^2-5").poly, 2)
    assert dedekind_applies(GAUSS.poly, 2)
    assert dedekind_applies(nf_create("X^3-2").poly, 3)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_composite_p_is_rejected(p):
    with pytest.raises(ValueError):
        primes_above(GAUSS, p)
    with pytest.raises(ValueError):
        rootless_poly(p, 1)
    with pytest.raises(ValueError):
        kochen(p, RAT.rational(3))


def test_escalated_block_lift_is_shared_by_the_primes_above_p(monkeypatch):
    K = nf_create("X^3-2")
    primes = primes_above(K, 31)
    assert len(primes) == 3
    lift = primes_module.lift_block_factorization
    precisions = []

    def counted(f, p, N):
        precisions.append(N)
        return lift(f, p, N)

    monkeypatch.setattr(primes_module, "lift_block_factorization", counted)
    blocks = [P.block(32) for P in primes]
    assert precisions == [32]
    assert blocks == [F for _, _, F in lift(K.poly, 31, 32)]
