"""Witness searches: balls, D/UD witnesses, weak approximation, z-group axioms."""

import random
from fractions import Fraction

import pytest

from prime_scope.closure import has_root_in_closure
from prime_scope.dense import (
    Ball,
    WitnessReport,
    d_witness,
    simultaneous_ball,
    ud_witness,
    weak_approx_value,
    zgroup_witness,
)
from prime_scope.errors import (
    IndexDivisible,
    LocalWitnessInvalid,
    NonDisjoint,
    NoRootInClosure,
    Unsupported,
    ZeroElement,
)
from prime_scope.numberfield import KPoly, NumberField
from prime_scope.primes import PrimeType, primes_above, valuation
from prime_scope.qpoly import parse_poly

from oracles import ball_member

Q = NumberField(parse_poly("X"))
GAUSS = NumberField(parse_poly("X^2+1"))
SQRT2 = NumberField(parse_poly("X^2-2"))

P5 = primes_above(Q, 5)[0]
P3 = primes_above(Q, 3)[0]
ORD = Q.orderings()[0]


def kp(field, text):
    return KPoly.from_qpoly(field, parse_poly(text))


# --- balls ------------------------------------------------------------------


def test_ball_member_padic_strict():
    b = Ball(P5, Q.zero(), Q.rational(5))
    assert ball_member(b, Q.rational(50))  # v(50)=2 > v(5)=1
    assert not ball_member(b, Q.rational(5))  # equality is not membership
    assert ball_member(b, Q.zero())  # v(0)=inf


def test_ball_member_ordering():
    b = Ball(ORD, Q.zero(), Q.rational(Fraction(1, 10)))
    assert ball_member(b, Q.rational(Fraction(1, 100)))
    assert not ball_member(b, Q.rational(Fraction(1, 10)))


def test_ball_rejects_zero_radius():
    with pytest.raises(ZeroElement):
        Ball(P5, Q.zero(), Q.zero())


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


# --- simultaneous balls -----------------------------------------------------


def test_simultaneous_common_center():
    balls = [Ball(P5, Q.rational(2), Q.rational(25)), Ball(ORD, Q.rational(2), Q.rational(10))]
    rep = simultaneous_ball(Q, balls, [Q.rational(2), Q.rational(2)])
    assert rep.witness == Q.rational(2)
    assert all(ball_member(b, rep.witness) for b in balls)


def test_simultaneous_empty():
    rep = simultaneous_ball(Q, [], [])
    assert rep.witness == Q.zero()
    assert rep.verified_at == []


def test_simultaneous_gaussian_crt():
    Ps = primes_above(GAUSS, 5)
    i = GAUSS.gen()
    balls = [Ball(Ps[0], i, GAUSS.rational(5)), Ball(Ps[1], -i, GAUSS.rational(5))]
    rep = simultaneous_ball(GAUSS, balls, [i, -i])
    assert all(ball_member(b, rep.witness) for b in balls)


def test_simultaneous_ordering_only():
    b = Ball(ORD, Q.rational(Fraction(7, 5)), Q.rational(Fraction(1, 2)))
    rep = simultaneous_ball(Q, [b], [Q.rational(Fraction(7, 5))])
    # smallest-height rational inside (9/10, 19/10)
    assert rep.witness == Q.one()


def test_simultaneous_rejects_bad_local_witness():
    b = Ball(P5, Q.zero(), Q.rational(5))
    with pytest.raises(LocalWitnessInvalid):
        simultaneous_ball(Q, [b], [Q.one()])


def test_simultaneous_rejects_duplicate_prime():
    b1 = Ball(P5, Q.zero(), Q.rational(25))
    b2 = Ball(P5, Q.zero(), Q.rational(5))
    with pytest.raises(NonDisjoint):
        simultaneous_ball(Q, [b1, b2], [Q.zero(), Q.zero()])


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
    # witness hits the root exactly: 1 - g(x)^2/a^2 = 1, but force the inf
    # path through a ball check at the center
    b = Ball(P5, Q.rational(2), Q.rational(25))
    rep = simultaneous_ball(Q, [b], [Q.rational(2)])
    js = rep.to_json()
    assert js["verified_at"][0]["check"] == "inf"
