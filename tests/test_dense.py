"""Witness searches: the defining check, D/UD witnesses and their merge, weak
approximation, z-group axioms."""

import math
import random
from fractions import Fraction

import pytest

import prime_scope.closure as closure_module
import prime_scope.dense as dense_module
import prime_scope.numberfield as numberfield_module
from prime_scope.closure import has_root_in_closure, padic_root
from prime_scope.config import Config
from prime_scope.dense import (
    WitnessReport,
    d_witness,
    ud_witness,
    weak_approx_value,
    zgroup_witness,
)
from prime_scope.errors import (
    IndexDivisible,
    NonDisjoint,
    NoneWithinBound,
    NoRoot,
    NoRootInClosure,
    PrecisionOverflow,
    Unsupported,
    ZeroElement,
)
from prime_scope.numberfield import KPoly, NumberField
from prime_scope.primes import PrimeType, primes_above, valuation
from prime_scope.qpoly import parse_poly

Q = NumberField(parse_poly("X"))
GAUSS = NumberField(parse_poly("X^2+1"))
SQRT2 = NumberField(parse_poly("X^2-2"))

P5 = primes_above(Q, 5)[0]
P3 = primes_above(Q, 3)[0]
ORD = Q.orderings()[0]


def kp(field, text):
    return KPoly.from_qpoly(field, parse_poly(text))


# --- the defining check -----------------------------------------------------


def _check_at(P, x, a, strict):
    """The defining check for g = X, so that r = 1 - x^2 a^(-2)."""
    r = dense_module._defect(kp(Q, "X"), Q.rational(x), Q.rational(a) ** -2)
    return dense_module._defining_check(P, r, strict)


def test_defining_check_padic():
    # v(x) >= v(a) is v(r) >= 0, and strict changes nothing at a p-adic place
    for strict in (False, True):
        assert _check_at(P5, 25, 25, strict) == (True, math.inf)  # r = 0
        assert _check_at(P5, 50, 25, strict) == (True, 0)  # r = -3
        assert _check_at(P5, 5, 25, strict) == (False, -2)  # r = 24/25
        assert _check_at(P5, 0, 25, strict) == (True, 0)  # r = 1


def test_defining_check_ordering():
    # |x| <= |a| is r >= 0; strict asks for |x| < |a|, so r = 0 fails it
    a = Fraction(1, 10)
    assert _check_at(ORD, Fraction(1, 100), a, True) == (True, 1)
    assert _check_at(ORD, a, a, False) == (True, 0)
    assert _check_at(ORD, a, a, True) == (False, 0)
    assert _check_at(ORD, -a, a, True) == (False, 0)
    assert _check_at(ORD, Fraction(1, 5), a, False) == (False, -1)


# --- d_witness --------------------------------------------------------------


def test_d_witness_padic_57():
    g = kp(Q, "X^2+1")
    rep = d_witness(P5, g, Q.rational(125))
    assert rep.witness == Q.rational(57)
    assert valuation(P5, g(rep.witness)) >= 3
    (prime, check), = rep.verified_at
    assert prime == P5 and check >= 0


def test_d_witness_ordering_bisection():
    # bisection from the bracket [1,2] toward sqrt(2); the first midpoint with
    # |x^2-2| <= 1/100 is 181/128
    g = kp(Q, "X^2-2")
    rep = d_witness(ORD, g, Q.rational(Fraction(1, 100)))
    assert rep.witness == Q.rational(Fraction(181, 128))
    gx = g(rep.witness)
    assert ORD.sign(Q.rational(Fraction(1, 10000)) - gx * gx) >= 0


def test_d_witness_no_root():
    with pytest.raises(NoRootInClosure):
        d_witness(P3, kp(Q, "X^2+1"), Q.rational(3))


def test_d_witness_zero_a():
    with pytest.raises(ZeroElement):
        d_witness(P5, kp(Q, "X^2+1"), Q.zero())
    with pytest.raises(ZeroElement):
        ud_witness(Q, [P5, ORD], kp(Q, "X^2-6"), Q.zero())


def test_d_witness_integer_root_shortcut():
    rep = d_witness(ORD, kp(Q, "X"), Q.one())
    assert rep.witness == Q.zero()


def test_d_witness_exists_whenever_root_exists():
    # small random slice of the denseness guarantee; the acceptance suite runs
    # the full 150-case version
    rng = random.Random(5)
    for _ in range(40):
        K = rng.choice([Q, GAUSS])
        p = rng.choice([2, 3, 5, 13])
        P = rng.choice(primes_above(K, p))
        deg = rng.randint(1, 3)
        g = KPoly(K, [K.rational(rng.randint(-5, 5)) for _ in range(deg)] + [K.one()])
        if not has_root_in_closure(P, g):
            continue
        a = K.rational(Fraction(p) ** rng.randint(0, 6))
        rep = d_witness(P, g, a)
        gx = g(rep.witness)
        assert valuation(P, K.one() - gx * gx * a**-2) >= 0


def test_d_witness_ordering_far_roots():
    # the unit-interval scan does not spend the bisection cap: a root at 3000
    # is bracketed by [2999, 3000] after 5998 intervals, and one halving hits
    left = d_witness(ORD, kp(Q, "X+3000"), Q.one())
    assert left.witness == Q.rational(-3000)
    assert left.search_stats["steps"] == 6001
    right = d_witness(ORD, kp(Q, "X-3000"), Q.one())
    assert right.witness == Q.rational(Fraction(5999, 2))
    assert right.search_stats["steps"] == 5999


def test_ordering_bisection_cap_counts_halvings():
    g, a = kp(Q, "X^2-2"), Q.rational(Fraction(1, 100))
    # 181/128 is the 7th midpoint after the bracket [1, 2]
    assert d_witness(ORD, g, a, Config(precision_cap=7)).search_stats["steps"] == 9
    with pytest.raises(PrecisionOverflow):
        d_witness(ORD, g, a, Config(precision_cap=6))


def test_missing_root_is_reported_before_an_over_cap_target():
    # no root of X^2+1 in Q_3, and v_3(a) = 5 above the precision cap 4
    g, a, config = kp(Q, "X^2+1"), Q.rational(3**5), Config(precision_cap=4)
    with pytest.raises(NoRootInClosure):
        d_witness(P3, g, a, config)
    rep = ud_witness(Q, [P3, P5], g, a, config)
    assert [P for P, _ in rep.verified_at] == [P5]
    with pytest.raises(NoRoot):
        padic_root(P3, g, 5, precision_cap=4)
    with pytest.raises(PrecisionOverflow):
        padic_root(P5, g, 5, precision_cap=4)


def _count_decisions(monkeypatch):
    """Counters on the p-adic search and on the Sturm sequence of an ordering."""
    calls = {"padic": 0, "sturm": 0}
    search, sturm = closure_module._padic_search, numberfield_module.sturm_sequence

    def counted_search(P, g):
        calls["padic"] += 1
        return search(P, g)

    def counted_sturm(p, q):
        calls["sturm"] += 1
        return sturm(p, q)

    monkeypatch.setattr(closure_module, "_padic_search", counted_search)
    monkeypatch.setattr(numberfield_module, "sturm_sequence", counted_sturm)
    return calls


def test_each_place_is_decided_once(monkeypatch):
    calls = _count_decisions(monkeypatch)
    d_witness(P5, kp(Q, "X^2+1"), Q.rational(125))
    assert calls == {"padic": 1, "sturm": 0}
    calls.update(padic=0)
    d_witness(ORD, kp(Q, "X^2-2"), Q.rational(Fraction(1, 100)))
    assert calls == {"padic": 0, "sturm": 1}
    calls.update(sturm=0)
    with pytest.raises(NoRootInClosure):
        d_witness(P3, kp(Q, "X^2+1"), Q.rational(3))
    assert calls == {"padic": 1, "sturm": 0}
    calls.update(padic=0)
    # P3 and ORD have no root of X^2+1; P5 has one
    ud_witness(Q, [P5, P3, ORD], kp(Q, "X^2+1"), Q.rational(25))
    assert calls == {"padic": 2, "sturm": 1}
    calls.update(padic=0, sturm=0)
    ud_witness(Q, [P5, ORD], kp(Q, "X^2-6"), Q.rational(25))
    assert calls == {"padic": 1, "sturm": 1}


def test_ud_single_ordering_is_its_local_witness():
    # the bisection answer itself, as for a single p-adic place; merging
    # through the height enumeration gave 17/12 after 342 more steps
    rep = ud_witness(Q, [ORD], kp(Q, "X^2-2"), Q.rational(Fraction(1, 100)))
    assert rep.witness == Q.rational(Fraction(181, 128))
    assert rep.search_stats["steps"] == 9
    assert rep.verified_at == [(ORD, 1)]


# --- weak approximation -----------------------------------------------------


def test_weak_approx_gaussian_5():
    Ps = primes_above(GAUSS, 5)
    z = weak_approx_value(GAUSS, [([Ps[0]], GAUSS.rational(5)), ([Ps[1]], GAUSS.one())])
    assert valuation(Ps[0], z) == 1
    assert valuation(Ps[1], z) == 0
    # deterministic construction; -3+6i = 3i*(2+i) is a unit multiple of 2+i
    assert z == GAUSS.element([-3, 6])


def test_weak_approx_single_part_is_target():
    Ps = primes_above(GAUSS, 5)
    z1 = GAUSS.element([2, 1])
    assert weak_approx_value(GAUSS, [([Ps[0]], z1)]) == z1


def test_weak_approx_higher_target():
    Ps = primes_above(GAUSS, 5)
    sq = GAUSS.element([2, 1]) ** 2
    z = weak_approx_value(GAUSS, [([Ps[0]], sq), ([Ps[1]], GAUSS.one())])
    assert valuation(Ps[0], z) == 2
    assert valuation(Ps[1], z) == 0


def test_weak_approx_negative_targets():
    Ps = primes_above(GAUSS, 13)
    z = weak_approx_value(
        GAUSS, [([Ps[0]], GAUSS.rational(Fraction(1, 13))), ([Ps[1]], GAUSS.rational(13))]
    )
    assert valuation(Ps[0], z) == -1
    assert valuation(Ps[1], z) == 1


def test_weak_approx_permutation_invariant():
    Ps = primes_above(GAUSS, 13)
    za = GAUSS.element([3, 2]) ** 2 * GAUSS.rational(7)
    zb = GAUSS.rational(Fraction(2, 13))
    one_way = weak_approx_value(GAUSS, [([Ps[0]], za), ([Ps[1]], zb)])
    other = weak_approx_value(GAUSS, [([Ps[1]], zb), ([Ps[0]], za)])
    assert one_way == other


def test_weak_approx_non_disjoint():
    Ps = primes_above(GAUSS, 5)
    with pytest.raises(NonDisjoint):
        weak_approx_value(
            GAUSS, [([Ps[0]], GAUSS.one()), ([Ps[0]], GAUSS.rational(5))]
        )


def test_weak_approx_rejects_orderings_and_mixed_p():
    with pytest.raises(Unsupported):
        weak_approx_value(Q, [([ORD], Q.one())])
    with pytest.raises(Unsupported):
        weak_approx_value(Q, [([P5], Q.one()), ([P3], Q.one())])


def test_weak_approx_zero_target():
    with pytest.raises(ZeroElement):
        weak_approx_value(Q, [([P5], Q.zero())])


# --- the merge of local witnesses ------------------------------------------


def test_simultaneous_common_center():
    # both conditions centre on the root 2 of g, where the merge lands
    rep = ud_witness(Q, [P5, ORD], kp(Q, "X-2"), Q.rational(25))
    assert rep.witness == Q.rational(2)
    assert rep.verified_at == [(P5, 0), (ORD, 1)]


def test_simultaneous_empty():
    rep = ud_witness(Q, [], kp(Q, "X^2+1"), Q.rational(3))
    assert rep.witness == Q.zero()
    assert rep.verified_at == []
    assert rep.search_stats["steps"] == 0


def test_simultaneous_gaussian_crt():
    # the two primes above 5 take the local witnesses near i and -i
    Ps = primes_above(GAUSS, 5)
    g, a = kp(GAUSS, "X^2+1"), GAUSS.rational(25)
    rep = ud_witness(GAUSS, Ps, g, a)
    assert rep.witness == GAUSS.rational(7)
    assert rep.verified_at == [(Ps[0], 0), (Ps[1], 0)]
    assert rep.search_stats["steps"] == 5


def test_simultaneous_crt_and_ordering_scan():
    # CRT pins x modulo 5^N, then the translations meet |x^2 - 6| < 25
    rep = ud_witness(Q, [P5, ORD], kp(Q, "X^2-6"), Q.rational(25))
    assert rep.witness == Q.rational(Fraction(-29, 6))
    assert rep.verified_at == [(P5, 0), (ORD, 1)]
    assert rep.search_stats["steps"] == 52


def test_simultaneous_ordering_only():
    Os = SQRT2.orderings()
    rep = ud_witness(SQRT2, Os, kp(SQRT2, "X^3-2"), SQRT2.one())
    assert rep.witness == SQRT2.rational(Fraction(4, 3))
    assert rep.verified_at == [(Os[0], 1), (Os[1], 1)]
    assert rep.search_stats["steps"] == 400


def test_simultaneous_ordering_only_scans_once(monkeypatch):
    # the candidates of a merge over orderings alone do not depend on the
    # congruence depth, so a failed scan is not repeated
    calls = []
    elements_by_height = dense_module.elements_by_height

    def counted(*args, **kwargs):
        calls.append(args)
        return elements_by_height(*args, **kwargs)

    monkeypatch.setattr(dense_module, "elements_by_height", counted)
    g, a = kp(SQRT2, "X^3-3"), SQRT2.rational(Fraction(1, 10))
    with pytest.raises(NoneWithinBound):
        ud_witness(SQRT2, SQRT2.orderings(), g, a, Config(height_bound=50))
    assert len(calls) == 1


def test_simultaneous_rejects_duplicate_prime():
    g, a = kp(Q, "X^2-6"), Q.rational(25)
    for S in ([P5, P5], [ORD, ORD]):
        with pytest.raises(NonDisjoint):
            ud_witness(Q, S, g, a)


# --- ud_witness -------------------------------------------------------------


def test_ud_gaussian_13():
    S = primes_above(GAUSS, 13)
    g = kp(GAUSS, "X^2-3")
    rep = ud_witness(GAUSS, S, g, GAUSS.rational(169))
    assert rep.witness == GAUSS.rational(108)  # 108^2-3 = 169*69
    assert len(rep.verified_at) == 2
    for P in S:
        gx = g(rep.witness)
        assert valuation(P, GAUSS.one() - gx * gx * GAUSS.rational(169) ** -2) >= 0


def test_ud_vacuous():
    rep = ud_witness(Q, [P3], kp(Q, "X^2+1"), Q.rational(3))
    assert rep.witness == Q.zero()
    assert rep.verified_at == []


def test_ud_mixed_prime_and_ordering():
    # the ordering admits no root of X^2+1, so S_g keeps only the 5-adic prime
    rep = ud_witness(Q, [P5, ORD], kp(Q, "X^2+1"), Q.rational(25))
    assert rep.witness == Q.rational(7)


def test_ud_implies_d_at_each_prime():
    # UD => D: the merged witness satisfies the one-prime condition at every
    # member of S_g individually
    rng = random.Random(13)
    for _ in range(8):
        p = rng.choice([5, 13, 17])
        S = primes_above(GAUSS, p)
        deg = rng.randint(1, 3)
        g = KPoly(GAUSS, [GAUSS.rational(rng.randint(-4, 4)) for _ in range(deg)] + [GAUSS.one()])
        a = GAUSS.rational(Fraction(p) ** rng.randint(1, 3))
        rep = ud_witness(GAUSS, S, g, a)
        for P in S:
            if has_root_in_closure(P, g):
                single = d_witness(P, g, a)
                assert single.witness is not None
                gx = g(rep.witness)
                assert valuation(P, GAUSS.one() - gx * gx * a**-2) >= 0


# --- zgroup witnesses -------------------------------------------------------


def test_zgroup_rational_example():
    xs = zgroup_witness(Q, 5, PrimeType(1, 1), 2, Q.rational(5))
    assert xs == (Q.one(), Q.rational(Fraction(1, 5)))
    vals = [valuation(P5, Q.rational(5) * Q.rational(5) ** i * xs[i] ** 2) for i in range(2)]
    assert vals == [1, 0]


def test_zgroup_trivial_n1():
    assert zgroup_witness(Q, 7, PrimeType(1, 1), 1, Q.one()) == (Q.one(),)


def test_zgroup_gaussian_split():
    y = GAUSS.element([2, 1])
    xs = zgroup_witness(GAUSS, 5, PrimeType(1, 1), 2, y)
    for P in primes_above(GAUSS, 5):
        vals = [valuation(P, y * GAUSS.rational(5) ** i * xs[i] ** 2) for i in range(2)]
        assert all(v >= 0 for v in vals)
        assert 0 in vals


def test_zgroup_ramified_type():
    K = NumberField(parse_poly("X^2-2"))
    y = K.gen()  # v(alpha) = 1 at the ramified prime above 2
    xs = zgroup_witness(K, 2, PrimeType(2, 1), 3, y)
    P = primes_above(K, 2)[0]
    t = K.rational(2)
    vals = [valuation(P, y**2 * t**i * xs[i] ** 3) for i in range(3)]
    assert all(v >= 0 for v in vals)
    assert 0 in vals


def test_zgroup_empty_type_set():
    xs = zgroup_witness(Q, 5, PrimeType(2, 1), 3, Q.rational(5))
    assert xs == (Q.one(), Q.one(), Q.one())


def test_zgroup_errors():
    with pytest.raises(ZeroElement):
        zgroup_witness(Q, 5, PrimeType(1, 1), 2, Q.zero())
    K = NumberField(parse_poly("X^2+3"))
    with pytest.raises(IndexDivisible):
        zgroup_witness(K, 2, PrimeType(1, 1), 1, K.one())


# --- report serialization ---------------------------------------------------


def test_witness_report_json():
    rep = d_witness(P5, kp(Q, "X^2+1"), Q.rational(125))
    js = rep.to_json()
    assert js["witness"] == "57"
    assert js["verified_at"][0]["prime"]["p"] == 5
    assert set(js["search_stats"]) == {"bound", "steps"}


def test_witness_report_inf_check_serializes():
    rep = WitnessReport(Q.rational(2), [(P5, math.inf), (ORD, 1)], {"bound": 1, "steps": 1})
    checks = [entry["check"] for entry in rep.to_json()["verified_at"]]
    assert checks == ["inf", "1"]
