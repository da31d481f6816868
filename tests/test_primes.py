"""Prime splitting, valuations, residues, type sets, holomorphy rings."""

import math
import random
from fractions import Fraction

import pytest

import prime_scope.primes as primes_module
import prime_scope.qpoly as qpoly_module
from prime_scope.errors import IndexDivisible, NegativeValuation, Unsupported
from prime_scope.ffield import (
    ff_is_square,
    fmul,
    fred,
    is_prime,
    poly_factor_mod_p,
    reduce_qpoly_mod_p,
)
from prime_scope.formulas import rootless_poly
from prime_scope.localdata import dedekind_applies, lift_block_factorization, vp_fraction, vp_int
from prime_scope.numberfield import NumberField, elements_by_height, nf_create, square_root
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
from prime_scope.qpoly import QPoly, parse_poly
from prime_scope.squares import kochen
from prime_scope.suite import FIELD_CORPUS

from oracles import ffield_order, oracle_dedekind_applies

GAUSS = nf_create("X^2+1")
RAT = nf_create("X")
SQRT2 = nf_create("X^2-2")
PRIMES_BELOW_100 = [p for p in range(2, 100) if is_prime(p)]


# --- splitting ---------------------------------------------------------------

def test_cold_splitting_of_the_corpus_stays_fast(wall_clock_limit):
    # every corpus field, fresh, split at the 25 primes below 100 with its
    # orderings: 0.09 s with cold finite-field caches on a 2-core x86_64
    # box with CPython 3.11.7, so 0.4 s is about four times that
    with wall_clock_limit(0.4):
        for text in FIELD_CORPUS:
            K = NumberField(parse_poly(text))
            for p in PRIMES_BELOW_100:
                try:
                    primes = primes_above(K, p)
                except IndexDivisible:
                    continue
                assert sum(P.e * P.f for P in primes) == K.degree, (text, p)
            K.orderings()


def _count_valuations(monkeypatch):
    calls = []
    original = primes_module.PValuation.valuation

    def counted(P, *args):
        calls.append(P)
        return original(P, *args)

    monkeypatch.setattr(primes_module.PValuation, "valuation", counted)
    return calls


def test_unramified_splitting_takes_no_valuation(monkeypatch):
    # for e = 1 the uniformizer is p, and v(p) = e = 1 by construction
    calls = _count_valuations(monkeypatch)
    for text, p in [("X^2+1", 5), ("X^2+1", 3), ("X^3-2", 31), ("X^4+X+1", 7), ("X", 2)]:
        primes = primes_above(NumberField(parse_poly(text)), p)
        assert all(P.e == 1 for P in primes)
    assert calls == []


def test_each_ramified_prime_checks_its_uniformizer_once(monkeypatch):
    # Q(i) at 2: one prime with e = 2; Q(cbrt 2) at 3: (X + 1)^3; Q(sqrt 3)
    # at 3: X^2; X^2 - 7 at 2 and at 7, and X^4 + X + 1 at 229 (the prime
    # of its discriminant), one ramified and two unramified primes
    calls = _count_valuations(monkeypatch)
    ramified = []
    for text, p in [("X^2+1", 2), ("X^3-2", 3), ("X^2-3", 3), ("X^2-7", 2), ("X^2-7", 7),
                    ("X^4+X+1", 229)]:
        primes = primes_above(NumberField(parse_poly(text)), p)
        ramified += [P for P in primes if P.e > 1]
    assert len(ramified) == 6 and calls == ramified


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
    O = SQRT2.orderings()[0]
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
    assert r == P.residue_field.element([2])
    with pytest.raises(NegativeValuation):
        residue(P, RAT.rational(Fraction(1, 5)))
    assert residue(P, RAT.rational(Fraction(1, 2))).coeffs == (3,)  # 1/2 = 3 mod 5


def test_residue_generates_f9():
    (P,) = primes_above(GAUSS, 3)
    r = residue(P, GAUSS.gen())
    F9 = P.residue_field
    assert F9.modulus == (1, 0, 1)  # F_3[X]/(X^2+1), X the class of i
    assert r * r == -F9.one()
    assert r.coeffs == (0, 1)  # genuinely outside the prime subfield


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


# primes with residue degree f >= 2: the inert 3 in Q(i), the f = 2 prime
# above 5 in Q(cbrt 2) (X^3-2 = (X+2)(X^2+3X+4) mod 5), and 2 in X^3+X+1
CBRT2 = nf_create("X^3-2")
CUBIC = nf_create("X^3+X+1")
HIGH_F = [
    primes_above(GAUSS, 3)[0],
    primes_above(CBRT2, 5)[1],
    primes_above(CUBIC, 2)[0],
]


def _pool(K, p, seed, n=40):
    rng = random.Random(seed)
    dens = (1, 1, 1, 2, p, p * p)
    return [
        K.element([Fraction(rng.randint(-12, 12), rng.choice(dens)) for _ in range(K.degree)])
        for _ in range(n)
    ]


def test_high_f_primes_are_the_expected_ones():
    assert [(P.e, P.f, P.residue_field.modulus) for P in HIGH_F] == [
        (1, 2, (1, 0, 1)),
        (1, 2, (4, 3, 1)),
        (1, 3, (1, 1, 0, 1)),
    ]


@pytest.mark.parametrize("P", HIGH_F, ids=lambda P: f"p{P.p}f{P.f}")
def test_residue_is_a_ring_map_at_high_f(P):
    K, k_P = P.field, P.residue_field
    xs = [x for x in _pool(K, P.p, 5 * P.p, 60) if x.is_zero or valuation(P, x) >= 0]
    assert len(xs) >= 20
    for a, b in zip(xs, xs[1:] + xs[:1]):
        ra, rb = residue(P, a), residue(P, b)
        assert ra.field is k_P
        assert residue(P, a * b) == ra * rb
        assert residue(P, a + b) == ra + rb
        assert residue(P, a - b) == ra - rb
    assert residue(P, K.gen()) == k_P.element([0, 1])
    assert residue(P, K.one()) == k_P.one()


@pytest.mark.parametrize("P", HIGH_F, ids=lambda P: f"p{P.p}f{P.f}")
def test_lift_residue_is_a_section_at_high_f(P):
    for r in P.residue_field.elements():
        x = P.lift_residue(r)
        assert residue(P, x) == r
        assert all(c.denominator == 1 and 0 <= c < P.p for c in x.coords)
        assert list(x.coords[: P.f]) == list(r.coeffs)
        assert not any(x.coords[P.f :])


def test_residue_with_denominator():
    # (2+i)/5 = 1/(2-i) has v = 0 at the index-0 prime above 5 (factor X+2),
    # and its residue is the inverse of residue(2-i) = 4, which is 4 again
    P0, P1 = primes_above(GAUSS, 5)
    x = GAUSS.element([Fraction(2, 5), Fraction(1, 5)])
    assert valuation(P0, x) == 0
    assert valuation(P1, x) == -1
    r = residue(P0, x)
    assert r == P0.residue_field.element([4])


def test_lift_residue_roundtrip():
    (P,) = primes_above(GAUSS, 3)
    F9 = P.residue_field
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
    neg, pos = SQRT2.orderings()
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


def _chi_member_by_powers(P, tau, t, s):
    """chi_member as first written: s^n - 1 formed in K and its valuation
    taken, for every proper divisor n of p^f - 1 in turn."""
    lead = t**tau.e * P.field.rational(P.p).inverse()
    if lead.is_zero or P.valuation(lead) != 0:
        return False
    if s.is_zero or P.valuation(s) != 0:
        return False
    m = P.p**tau.f - 1
    for n in range(1, m):
        if m % n:
            continue
        w = s**n - P.field.one()
        if w.is_zero or P.valuation(w) != 0:
            return False
    return True


def test_chi_member_agrees_with_powers_in_k():
    rng = random.Random(19)
    total = hits = 0
    for text in ("X", "X^2+1", "X^3-2"):
        K = nf_create(text)
        for p in (3, 5, 7, 13):
            for P in primes_above(K, p):
                for tau in (PrimeType(P.e, P.f), PrimeType(1, 1), PrimeType(1, 2)):
                    if p ** tau.f > 2200:
                        continue
                    for _ in range(12):
                        t = K.element([rng.randint(-p, p) for _ in range(K.degree)])
                        s = K.element([rng.randint(-6, 6) for _ in range(K.degree)])
                        if rng.random() < 0.5:
                            t = K.rational(p)
                        want = _chi_member_by_powers(P, tau, t, s)
                        assert chi_member(P, tau, t, s) == want, (text, p, tau, t, s)
                        total, hits = total + 1, hits + want
    assert total > 300 and hits > 50, (total, hits)


def test_chi_member_ordering_always_true():
    O = RAT.orderings()[0]
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
    with pytest.raises(Unsupported):
        quadratic_step_search(RAT, 2, [(0, "split")])
    d = quadratic_step_search(GAUSS, 13, [(0, "split"), (1, "inert")])
    assert not d.is_zero


def _certified_nonsquare(K, d):
    """The earlier cheap-certificate test: a negative embedding, an odd
    valuation or a nonsquare residue at an odd prime below 100 proves d a
    nonsquare; False when none of them fires."""
    if K.degree == 1:
        q = d.as_fraction()
        return q < 0 or any(math.isqrt(k) ** 2 != k for k in (q.numerator, q.denominator))
    if any(O.sign(d) < 0 for O in K.orderings()):
        return True
    for ell in filter(is_prime, range(3, 100)):
        try:
            primes = primes_above(K, ell)
        except (IndexDivisible, Unsupported):
            continue
        for Q in primes:
            v = Q.valuation(d)
            if v % 2 == 1 or (v == 0 and not ff_is_square(Q.residue(d))):
                return True
    return False


STEP_CASES = [
    (RAT, 5, [(0, "split")]),
    (RAT, 5, [(0, "inert")]),
    (RAT, 5, [(0, "ramified")]),
    (GAUSS, 13, [(0, "split"), (1, "inert")]),
    (GAUSS, 3, [(0, "ramified")]),
    (SQRT2, 7, [(0, "inert")]),
    (nf_create("X^3-2"), 5, [(0, "split")]),
]


@pytest.mark.parametrize("K, p, constraints", STEP_CASES)
def test_quadratic_step_matches_the_certificate_walk(K, p, constraints):
    primes = primes_above(K, p)
    want = next(
        d for d in elements_by_height(K, include_zero=False)
        if _certified_nonsquare(K, d)
        and all(primes_module._behavior_at(primes[i], d) == b for i, b in constraints)
    )
    d = quadratic_step_search(K, p, constraints)
    assert d == want
    assert square_root(d) is None


# --- Hensel block lifts and Dedekind's criterion ---------------------------

def _factors_mod(K, p):
    """The factorization of K's polynomial mod p as (hbar, e) pairs."""
    return [(reduce_qpoly_mod_p(h, p), e) for h, e in poly_factor_mod_p(K.poly, p)]


@pytest.mark.parametrize("N", [1, 2, 5, 16, 33])
def test_block_lifts_multiply_back_to_f(N):
    for text in FIELD_CORPUS:
        K = nf_create(text)
        f = [int(c) for c in K.poly.coeffs]
        for p in (2, 3, 5, 7, 11, 13):
            M = p**N
            prod = (1,)
            for hbar, e, F in lift_block_factorization(K.poly, p, N, _factors_mod(K, p)):
                prod = fmul(prod, F, M)
                power = (1,)
                for _ in range(e):
                    power = fmul(power, hbar, p)
                assert fred(F, p) == power, (text, p, N)
            assert prod == fred(f, M), (text, p, N)


def _dedekind(K, p):
    return dedekind_applies(K.poly, p, _factors_mod(K, p))


def test_dedekind_applies_pinned():
    assert not _dedekind(nf_create("X^2+3"), 2)
    assert not _dedekind(nf_create("X^2-5"), 2)
    assert _dedekind(GAUSS, 2)
    assert _dedekind(nf_create("X^3-2"), 3)


def test_dedekind_applies_agrees_with_the_full_criterion():
    # the squarefree shortcut (every e_i = 1) and the gcd test both answer
    # like the textbook criterion, at every prime below 100; the corpus
    # holds the four pinned cases above
    for text in FIELD_CORPUS:
        K = nf_create(text)
        f = [int(c) for c in K.poly.coeffs]
        for p in PRIMES_BELOW_100:
            assert _dedekind(K, p) == oracle_dedekind_applies(f, p), (text, p)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_composite_p_is_rejected(p):
    with pytest.raises(ValueError):
        primes_above(GAUSS, p)
    with pytest.raises(ValueError):
        rootless_poly(p, 1)
    with pytest.raises(ValueError):
        kochen(p, RAT.rational(3))


def _counted_lifts(monkeypatch) -> list[int]:
    """Record the precision N of every block lift that primes makes."""
    lift = primes_module.lift_block_factorization
    precisions = []

    def counted(f, p, N, factors):
        precisions.append(N)
        return lift(f, p, N, factors)

    monkeypatch.setattr(primes_module, "lift_block_factorization", counted)
    return precisions


def test_escalated_block_lift_is_shared_by_the_primes_above_p(monkeypatch):
    K = nf_create("X^3-2")
    primes = primes_above(K, 31)
    assert len(primes) == 3
    precisions = _counted_lifts(monkeypatch)
    blocks = [P.block(32) for P in primes]
    assert precisions == [32]
    assert blocks == [F for _, _, F in lift_block_factorization(K.poly, 31, 32, _factors_mod(K, 31))]


def test_block_lifts_reuse_the_factorization_of_the_split(monkeypatch):
    K = nf_create("X^2+1")  # a fresh field: no prime of it is cached
    factorizations = []
    factor = primes_module.factor_fpoly

    def counted(a, p):
        factorizations.append(p)
        return factor(a, p)

    monkeypatch.setattr(primes_module, "factor_fpoly", counted)
    primes = primes_above(K, 5)
    assert factorizations == [5]
    for N in (16, 32):
        blocks = [P.block(N) for P in primes]
        assert fmul(*blocks, 5**N) == (1, 0, 1)
    assert factorizations == [5]


def test_splitting_and_rational_valuations_make_no_lift(monkeypatch):
    precisions = _counted_lifts(monkeypatch)
    K = nf_create("X^3-2")  # a fresh field: no prime of it is cached
    primes = primes_above(K, 31)  # 31 = 1 mod 3 splits into three unramified primes
    assert [(P.e, P.f) for P in primes] == [(1, 1)] * 3
    assert len(K.orderings()) == 1
    for P in primes:
        for q in (Fraction(31**5, 7), Fraction(2, 31**3), Fraction(-1)):
            assert P.valuation(K.rational(q)) == vp_fraction(q, 31)
    assert precisions == []
    # the first non-rational valuation lifts once, at 16, for every prime above 31
    alpha = K.gen()
    assert primes[0].valuation(alpha) == 0
    assert precisions == [16]
    for P in primes:
        root = -P.hbar[0] % 31  # hbar = X - root
        assert P.valuation(alpha - K.rational(root)) >= 1
        assert P.valuation(alpha * alpha + K.one()) == 0
    assert precisions == [16]
    # a ramified prime still lifts at 16 to check its uniformizer
    (P2,) = primes_above(nf_create("X^2+1"), 2)
    assert P2.e == 2 and precisions == [16, 16]


def _resultant_path_valuation(P, x) -> tuple[int, int]:
    """v_P(x) through the resultant path, and the precision N it took: the
    content of x's coordinates, and the resultant over Q of their primitive
    part against the block lift mod p^N, N doubled from 16 until the
    resultant's valuation is below N."""
    den = math.lcm(*(c.denominator for c in x.coords))
    ints = [int(c * den) for c in x.coords]
    g = math.gcd(*ints)
    prim = QPoly([Fraction(c // g) for c in ints])
    N = 16
    while True:
        R = QPoly([Fraction(c) for c in P.block(N)]).resultant(prim)
        vr = vp_int(R.numerator, P.p) if R else N
        if vr < N:
            assert vr % P.f == 0
            return P.e * (vp_int(g, P.p) - vp_int(den, P.p)) + vr // P.f, N
        N *= 2


def test_rational_valuations_agree_with_the_resultant_path():
    rng = random.Random(1913)
    ramified = set()
    for text in FIELD_CORPUS:
        K = nf_create(text)
        for p in (2, 3, 5, 7, 11, 13):
            try:
                primes = primes_above(K, p)
            except IndexDivisible:
                continue
            for _ in range(6):
                num = rng.choice((-1, 1)) * p ** rng.randint(0, 40) * rng.randint(1, 10**6)
                den = p ** rng.randint(0, 40) * rng.randint(1, 10**6)
                x = K.rational(Fraction(num, den))
                for P in primes:
                    assert P.valuation(x) == _resultant_path_valuation(P, x)[0], (text, p, x)
                    if P.e > 1:
                        ramified.add((text, p))
    assert {("X^2+1", 2), ("X^3-2", 2), ("X^3-2", 3)} <= ramified


def test_valuations_agree_with_the_resultant_path():
    # elements scaled by powers of hbar(alpha) and of p, so that some need
    # the resultant path to escalate past p^16
    rng = random.Random(1915)
    seen_e, seen_f, reached = set(), set(), 16
    for text in FIELD_CORPUS[1:] + ["X^4-2X^2+9", "X^3-X^2-2X+1", "X^4+1", "X^6+X^3+1"]:
        K = nf_create(text)
        for p in (2, 3, 5, 7, 11, 13):
            try:
                primes = primes_above(K, p)
            except IndexDivisible:
                continue
            for _ in range(4):
                base = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)])
                t = K.element(rng.choice(primes).hbar)  # 0 at an inert prime
                x = base * t ** rng.randint(0, 40) * K.rational(Fraction(p) ** rng.randint(-5, 20))
                if x.is_rational():
                    continue
                for P in primes:
                    want, N = _resultant_path_valuation(P, x)
                    assert P.valuation(x) == want, (text, p, P.index, x)
                    seen_e.add(P.e)
                    seen_f.add(P.f)
                    reached = max(reached, N)
    assert max(seen_e) >= 3 and max(seen_f) >= 2 and reached >= 32


def test_valuation_takes_no_resultant(monkeypatch):
    fields = {text: nf_create(text) for text in ("X^2+1", "X^3-2")}
    cases = [
        (fields["X^2+1"], 5, [([2, 1], [1, 0]), ([1, 1], [0, 0])]),  # e = 1
        (fields["X^2+1"], 2, [([1, 1], [1]), ([3, 1], [1]), ([2, 2], [3])]),  # e = 2
        (fields["X^3-2"], 2, [([0, 1], [1]), ([0, 0, 1], [2]), ([2, 0, 1], [2])]),  # e = 3
    ]
    primes = {(K, p): primes_above(K, p) for K, p, _ in cases}

    def refuse(f, g):
        raise AssertionError("valuation took a resultant")

    monkeypatch.setattr(qpoly_module, "poly_resultant", refuse)
    for K, p, pinned in cases:
        for coords, want in pinned:
            x = K.element(coords)
            assert [P.valuation(x) for P in primes[(K, p)]] == want, (K, p, coords)
