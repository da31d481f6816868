"""Root existence in real and p-adic closures; p-adic root approximation."""

import math
import random
from fractions import Fraction

import pytest

from prime_scope import closure
from prime_scope.closure import (
    RootReport,
    has_root_in_closure,
    padic_root,
    verify_root_report,
)
from prime_scope.errors import NonMonic, NoRoot, Unsupported
from prime_scope.ffield import ff_is_square
from prime_scope.numberfield import KPoly, format_element, nf_create
from prime_scope.primes import primes_above, residue, valuation
from prime_scope.qpoly import QPoly, parse_poly

from oracles import oracle_padic_root_exists

RAT = nf_create("X")
GAUSS = nf_create("X^2+1")
SQRT2 = nf_create("X^2-2")


def kp(field, text):
    return KPoly.from_qpoly(field, parse_poly(text))


# --- p-adic existence ---------------------------------------------------------

@pytest.mark.parametrize(
    "K, p, index", [(GAUSS, 3, 0), (nf_create("X^3-2"), 5, 1)], ids=["gauss3", "cbrt2at5"]
)
def test_square_roots_at_f2_primes_follow_hensel(K, p, index):
    # at an odd unramified prime, u is a square in the completion exactly when
    # v(u) is even and the unit u * p^(-v) has a square residue
    P = primes_above(K, p)[index]
    assert P.f == 2 and P.e == 1
    rng = random.Random(41 + p)
    dens = (1, 1, 2, p, p * p)
    pool = [
        K.element([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(K.degree)])
        for _ in range(24)
    ]
    pool += [K.rational(p) * x * x for x in pool[:6] if not x.is_zero]
    seen = set()
    for u in pool:
        if u.is_zero:
            continue
        g = KPoly(K, [-u, K.zero(), K.one()])
        report = has_root_in_closure(P, g)
        v = valuation(P, u)
        unit = u * P.uniformizer ** (-v)
        expect = v % 2 == 0 and ff_is_square(residue(P, unit))
        assert report.has_root == expect, u
        assert verify_root_report(P, g, report)
        seen.add(expect)
    assert seen == {True, False}


def test_root_mod5_exists():
    (P,) = primes_above(RAT, 5)
    r = has_root_in_closure(P, kp(RAT, "X^2+1"))
    assert r.has_root
    assert r.certificate["kind"] == "hensel"
    assert verify_root_report(P, kp(RAT, "X^2+1"), r)


def test_root_mod3_missing():
    (P,) = primes_above(RAT, 3)
    r = has_root_in_closure(P, kp(RAT, "X^2+1"))
    assert not r.has_root
    assert r.certificate["kind"] == "exhausted"
    assert verify_root_report(P, kp(RAT, "X^2+1"), r)


def test_sqrt5_blocked_by_slope():
    (P,) = primes_above(RAT, 5)
    assert not has_root_in_closure(P, kp(RAT, "X^2-5")).has_root


def test_nonmonic_rejected():
    (P,) = primes_above(RAT, 5)
    with pytest.raises(NonMonic):
        has_root_in_closure(P, kp(RAT, "2*X^2+1"))
    with pytest.raises(NonMonic):
        has_root_in_closure(P, kp(RAT, "3"))


def test_rational_root_always_found():
    for p in (2, 3, 5, 7):
        (P,) = primes_above(RAT, p)
        assert has_root_in_closure(P, kp(RAT, "X^2-X")).has_root  # roots 0, 1
        assert has_root_in_closure(P, kp(RAT, "X-7")).has_root


def test_nonsquarefree_input_allowed():
    (P,) = primes_above(RAT, 3)
    # (X-1)^2: root 1, even though the Hensel inequality never fires raw
    assert has_root_in_closure(P, kp(RAT, "X^2-2*X+1")).has_root
    # (X^2+1)^2 has no root at 3
    g = parse_poly("X^2+1")
    assert not has_root_in_closure(P, KPoly.from_qpoly(RAT, g * g)).has_root


def test_wild_prime_two():
    (P,) = primes_above(RAT, 2)
    # X^2 + 7: -7 = 1 mod 8 is a 2-adic square
    assert has_root_in_closure(P, kp(RAT, "X^2+7")).has_root
    # X^2 + 1: -1 is not a square in Q_2
    assert not has_root_in_closure(P, kp(RAT, "X^2+1")).has_root
    # X^2 - 2 ramifies: slope 1/2
    assert not has_root_in_closure(P, kp(RAT, "X^2-2")).has_root


def test_oracle_agreement_sample():
    rng = random.Random(314)
    for _ in range(120):
        p = rng.choice((2, 3, 5, 7))
        deg = rng.randint(1, 3)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [1]
        (P,) = primes_above(RAT, p)
        g = KPoly.from_qpoly(RAT, QPoly(coeffs))
        got = has_root_in_closure(P, g).has_root
        want = oracle_padic_root_exists(coeffs, p)
        assert got == want, f"p={p} coeffs={coeffs}"


def test_non_integral_coefficients():
    (P,) = primes_above(RAT, 5)
    # X - 1/5 has the root 1/5 (valuation -1); integralization must find it
    g = KPoly(RAT, [RAT.rational(Fraction(-1, 5)), RAT.one()])
    assert has_root_in_closure(P, g).has_root
    # X^2 - 1/5: slope -1/2, no root
    g2 = KPoly(RAT, [RAT.rational(Fraction(-1, 5)), RAT.zero(), RAT.one()])
    assert not has_root_in_closure(P, g2).has_root


def test_closure_in_extension_field():
    # at the inert prime 3 of Q(i), the residue field is F_9, so X^2+1 has
    # a root there (i itself is in K!), and X^2 - 3 still ramifies
    (P,) = primes_above(GAUSS, 3)
    assert has_root_in_closure(P, kp(GAUSS, "X^2+1")).has_root
    assert not has_root_in_closure(P, kp(GAUSS, "X^2-3")).has_root
    # X^2 - s for s = 1 + i: norm 2, v_P(s) = 0; square iff residue is square
    s = GAUSS.element([1, 1])
    g = KPoly(GAUSS, [-s, GAUSS.zero(), GAUSS.one()])
    r = has_root_in_closure(P, g)
    assert verify_root_report(P, g, r)


def test_ramified_prime_search():
    # above 2 in Q(i) the uniformizer is 1+i; X^2 - i: i = (1+i)^2 / 2i ...
    (P,) = primes_above(GAUSS, 2)
    i = GAUSS.gen()
    # v(i) = 0; residue field F_2; does X^2 - i have a root? i is a square
    # in Q_2(i) iff ... decided exactly by the search either way
    g = KPoly(GAUSS, [-i, GAUSS.zero(), GAUSS.one()])
    r = has_root_in_closure(P, g)
    assert verify_root_report(P, g, r)


# --- ordering side --------------------------------------------------------------

def test_ordering_odd_degree_always_true():
    (O,) = RAT.orderings()
    for a in (-3, 0, 2, 10):
        g = KPoly.from_qpoly(RAT, QPoly([Fraction(-a), Fraction(0), Fraction(0), Fraction(1)]))
        r = has_root_in_closure(O, g)
        assert r.has_root and r.certificate["kind"] == "ordering"


def test_ordering_depends_on_embedding():
    neg, pos = SQRT2.orderings()
    alpha = SQRT2.gen()
    g = KPoly(SQRT2, [-alpha, SQRT2.zero(), SQRT2.one()])  # X^2 - alpha
    assert has_root_in_closure(pos, g).has_root
    assert not has_root_in_closure(neg, g).has_root
    assert verify_root_report(neg, g, has_root_in_closure(neg, g))


def test_ordering_even_degree_negative():
    (O,) = RAT.orderings()
    assert not has_root_in_closure(O, kp(RAT, "X^2+1")).has_root
    assert has_root_in_closure(O, kp(RAT, "X^2-2")).has_root


# --- padic_root -------------------------------------------------------------------

def test_padic_root_57():
    (P,) = primes_above(RAT, 5)
    g = kp(RAT, "X^2+1")
    x = padic_root(P, g, 3)
    assert x.as_fraction() == 57
    assert valuation(P, g(x)) >= 3
    assert padic_root(P, g, 1).as_fraction() == 2
    assert padic_root(P, g, 2).as_fraction() == 7


def test_padic_root_evaluates_h_once_per_newton_step(monkeypatch):
    # 5-adic sqrt(-1) to v >= 10 takes 4 Newton steps; each reads H(x) once,
    # and the loop test and the update share it (14 evaluations when not)
    (P,) = primes_above(RAT, 5)
    g = kp(RAT, "X^2+1")
    calls = []
    evaluate = KPoly.__call__

    def counted(self, x):
        calls.append(self)
        return evaluate(self, x)

    monkeypatch.setattr(KPoly, "__call__", counted)
    x = padic_root(P, g, 10)
    assert x.as_fraction() == 6139557
    assert len(calls) == 10


def test_padic_root_no_root():
    (P,) = primes_above(RAT, 3)
    with pytest.raises(NoRoot):
        padic_root(P, kp(RAT, "X^2+1"), 1)


def test_padic_root_prefix_consistency():
    (P,) = primes_above(RAT, 5)
    g = kp(RAT, "X^3-2")  # 3^3 = 27 = 2 mod 5, simple root
    xs = [padic_root(P, g, k).as_fraction() for k in range(1, 7)]
    for k, x in enumerate(xs, start=1):
        assert 0 <= x < 5**k
        assert valuation(P, g(RAT.rational(x))) >= k
    for k in range(1, len(xs)):
        assert xs[k] % 5**k == xs[k - 1] % 5**k


def test_padic_root_exact_rational_root():
    (P,) = primes_above(RAT, 7)
    g = kp(RAT, "X-3")
    assert padic_root(P, g, 5).as_fraction() == 3
    g2 = kp(RAT, "X^2-X")  # roots 0 and 1; 0 is the least certificate
    x = padic_root(P, g2, 4)
    assert x.as_fraction() in (0, 1)


def test_padic_root_in_gaussian_field():
    P = primes_above(GAUSS, 13)[0]
    g = kp(GAUSS, "X^2-3")  # 3 = 4^2 mod 13, so sqrt(3) exists 13-adically
    x = padic_root(P, g, 2)
    assert valuation(P, g(x)) >= 2


def test_root_report_json_roundtrip():
    (P,) = primes_above(RAT, 5)
    r = has_root_in_closure(P, kp(RAT, "X^2+1"))
    j = r.to_json()
    assert j["has_root"] is True
    assert j["certificate"]["depth"] >= 1


# --- the reduced-polynomial search against the digit search it replaced ---------

def _digit_dfs(P, H, depth_cap):
    """The former closure search, kept as a referee: a depth-first walk over
    every residue digit, with the same accept test, the dead-prefix rule
    v(H(x)) < depth and the same depth cap.  Returns the hensel certificate
    (without its shift) of the first accepting node, or None."""
    K = P.field
    t = P.uniformizer
    dH = H.derivative()
    lifts = [P.lift_residue(r) for r in P.residue_field.elements()]

    def dfs(x, depth):
        a = P.valuation(H(x))
        b = P.valuation(dH(x))
        if a == math.inf or a > 2 * b:
            return {
                "kind": "hensel",
                "residue": format_element(x),
                "depth": depth,
                "vg": "inf" if a == math.inf else a,
                "vdg": "inf" if b == math.inf else b,
            }
        if a < depth or depth >= depth_cap:
            return None
        tpow = t**depth
        for lift in lifts:
            got = dfs(x + lift * tpow, depth + 1)
            if got is not None:
                return got
        return None

    return dfs(K.zero(), 0)


def _digit_padic_search(P, g):
    """closure._padic_search with the digit search in place of the new one,
    and D computed on the integral model H itself: the independent reference
    for the closure's D = v(Res(h, h')) + shift n(n-1) on the squarefree h."""
    H, shift = closure._integralize(P, g.squarefree_part())
    D = P.valuation(H.resultant(H.derivative()))
    cert = _digit_dfs(P, H, 2 * D + 1)
    if cert is None:
        cert = {"kind": "exhausted", "depth_cap": 2 * D + 1, "disc_valuation": D}
    cert["shift"] = shift
    return RootReport(cert["kind"] == "hensel", cert), H, shift


# (field, prime, index of the prime above it); per field a ramified, an inert
# and a split prime; Q(cbrt2) is inert at 7 (2 is no cube mod 7) and splits
# completely at 31 (2 = 4^3 mod 31)
_AGREEMENT_PLACES = [
    ("X^2+1", 2, 0), ("X^2+1", 3, 0), ("X^2+1", 5, 1),
    ("X^2-2", 2, 0), ("X^2-2", 3, 0), ("X^2-2", 7, 0),
    ("X^3-2", 3, 0), ("X^3-2", 7, 0), ("X^3-2", 31, 2),
]


def _agreement_corpus(rng, K, count):
    """Seeded monic polynomials of degree 1-4 over K with small
    coefficients; about a third of those above degree 1 have a root in K."""
    out = []
    for _ in range(count):
        d = rng.randint(1, 4)
        cs = [K.element([rng.randint(-4, 4) for _ in range(K.degree)]) for _ in range(d)]
        g = KPoly(K, cs + [K.one()])
        if d > 1 and rng.random() < 0.35:
            r = K.element([rng.randint(-3, 3) for _ in range(K.degree)])
            g = KPoly(K, cs[: d - 1] + [K.one()]) * KPoly(K, [-r, K.one()])
        out.append(g)
    return out


@pytest.mark.parametrize("text, p, index", _AGREEMENT_PLACES,
                         ids=[f"{t}@{p}#{i}" for t, p, i in _AGREEMENT_PLACES])
def test_search_agrees_with_the_digit_search(text, p, index, monkeypatch):
    K = nf_create(text)
    P = primes_above(K, p)[index]
    rng = random.Random(f"{text}@{p}")
    # the digit search costs about q^k valuations on X^2 - u t^(2k), so the
    # large residue fields get a smaller corpus and fewer deep inputs
    q = P.residue_field.order
    corpus = _agreement_corpus(rng, K, 12 if q > 50 else 30)
    u = K.element([1] * K.degree)
    ks = (1, 2) if q < 10 else (1,) if q < 50 else ()
    corpus += [KPoly(K, [-(u * P.uniformizer ** (2 * k)), K.zero(), K.one()]) for k in ks]
    # non-integral coefficients (shift >= 1) and squared factors, together too
    t_inv = P.uniformizer.inverse()
    shifted = [KPoly(K, [-(u * t_inv**2), K.zero(), K.one()]),
               KPoly(K, [u, t_inv, K.zero(), K.one()])]
    corpus += shifted + [shifted[0] * shifted[0], corpus[0] * corpus[0] * corpus[1]]
    seen = set()
    for g in corpus:
        new = has_root_in_closure(P, g)
        old = _digit_padic_search(P, g)[0]
        assert new.has_root == old.has_root, g
        assert new.certificate["shift"] == old.certificate["shift"], g
        if not new.has_root:
            assert new.certificate == old.certificate, g
        assert verify_root_report(P, g, new)
        seen.add(new.has_root)
        if new.has_root:
            k = rng.randint(1, 12)
            y = padic_root(P, g, k)
            with monkeypatch.context() as m:
                m.setattr(closure, "_padic_search", _digit_padic_search)
                assert padic_root(P, g, k) == y, g
    assert seen == {True, False}


@pytest.mark.parametrize("text, chains, cert", [
    ("X^2-2/9", 1, {"depth_cap": 1, "disc_valuation": 0, "kind": "exhausted", "shift": 1}),
    ("X^4-4/9*X^2+4/81", 2, {"depth_cap": 1, "disc_valuation": 0, "kind": "exhausted", "shift": 1}),
    ("X^3-2/27", 1, {"depth_cap": 7, "disc_valuation": 3, "kind": "exhausted", "shift": 1}),
], ids=["x2-2/9", "x2-2/9_squared", "x3-2/27"])
def test_shifted_and_repeated_certificates_are_pinned(text, chains, cert, monkeypatch):
    # the discriminant valuation of the integral model, read off the chain
    # of the squarefree part plus shift n(n-1): one chain for a squarefree
    # g, a second only for the squarefree part of a repeated factor
    (P,) = primes_above(RAT, 3)
    g = kp(RAT, text)
    seen = []
    chain = closure.remainder_chain
    monkeypatch.setattr(closure, "remainder_chain", lambda a, b: seen.append(a) or chain(a, b))
    r = has_root_in_closure(P, g)
    assert len(seen) == chains
    assert not r.has_root and r.certificate == cert
    assert verify_root_report(P, g, r)


# --- residue fields on both sides of the scan limit ---------------------------

_H = {"kind": "hensel", "shift": 0}
_X = {"kind": "exhausted", "shift": 0}


@pytest.mark.parametrize("p, text, cert", [
    # k_P = F_169, below the scan limit of ff_poly_roots
    (13, "X^2-4*X-3", {**_H, "depth": 1, "residue": "[2, 6]", "vdg": 0, "vg": 1}),
    (13, "X^2-X-3", {**_X, "depth_cap": 3, "disc_valuation": 1}),
    (13, "X^3-2", {**_X, "depth_cap": 1, "disc_valuation": 0}),
    (13, "X^2-507", {**_H, "depth": 2, "residue": "52", "vdg": 1, "vg": 3}),
    (13, "X^2-2*X-168", {**_H, "depth": 2, "residue": "14", "vdg": 1, "vg": "inf"}),
    (13, "X^4-10*X^2+1", {**_H, "depth": 1, "residue": "[4, 1]", "vdg": 0, "vg": 1}),
    (13, "X^2+X+3", {**_H, "depth": 1, "residue": "[6, 6]", "vdg": 0, "vg": 1}),
    (13, "X^4+2*X^3+3*X^2+2*X+170", {**_H, "depth": 2, "residue": "16", "vdg": 1, "vg": 3}),
    # k_P = F_361, above it: every node's reduction is split
    (19, "X^2-X-3", {**_H, "depth": 1, "residue": "[10, 2]", "vdg": 0, "vg": 1}),
    (19, "X^3-2", {**_X, "depth_cap": 1, "disc_valuation": 0}),
    (19, "X^2-1083", {**_H, "depth": 2, "residue": "[0, 133]", "vdg": 1, "vg": 3}),
    (19, "X^2-722", {**_H, "depth": 2, "residue": "[0, 19]", "vdg": 1, "vg": "inf"}),
    (19, "X^2-19", {**_X, "depth_cap": 3, "disc_valuation": 1}),
    (19, "X^4-10*X^2+1", {**_H, "depth": 1, "residue": "[0, 6]", "vdg": 0, "vg": 1}),
    (19, "X^2+X+3", {**_H, "depth": 1, "residue": "[9, 1]", "vdg": 0, "vg": 1}),
    (19, "X^4-8*X^2+2212", {**_X, "depth_cap": 1, "disc_valuation": 0}),
])
def test_certificates_at_inert_primes_of_sqrt2_are_pinned(p, text, cert):
    # the certificates found when every reduction was scanned at every residue
    (P,) = primes_above(SQRT2, p)
    assert P.residue_field.order == p * p
    g = kp(SQRT2, text)
    r = has_root_in_closure(P, g)
    assert r.certificate == cert
    assert verify_root_report(P, g, r)


# --- deep inputs: the search stays linear in the depth -------------------------

def _x2_minus(K, c):
    return KPoly(K, [-c, K.zero(), K.one()])


@pytest.mark.parametrize("k", [10, 50])
def test_deep_nonsquare_over_q_at_5(k, wall_clock_limit):
    (P,) = primes_above(RAT, 5)
    g = _x2_minus(RAT, RAT.rational(2 * 5 ** (2 * k)))
    with wall_clock_limit(2):
        r = has_root_in_closure(P, g)
    assert not r.has_root
    assert r.certificate == {
        "kind": "exhausted", "depth_cap": 4 * k + 1, "disc_valuation": 2 * k, "shift": 0,
    }


def test_deep_padic_root_to_120(wall_clock_limit):
    (P,) = primes_above(RAT, 5)
    g = _x2_minus(RAT, RAT.rational(5**100))
    with wall_clock_limit(2):
        y = padic_root(P, g, 120)
    assert valuation(P, g(y)) >= 120


def test_deep_ramified_prime_of_gaussian_field(wall_clock_limit):
    (P,) = primes_above(GAUSS, 2)
    assert P.e == 2
    # 3 is not a square in Q_2(i): the rationals that are squares there are
    # Q_2*^2 and -Q_2*^2, and neither 3 (3 mod 8) nor -3 (5 mod 8) is a
    # 2-adic square
    g = _x2_minus(GAUSS, GAUSS.rational(3 * 2**12))
    with wall_clock_limit(2):
        r = has_root_in_closure(P, g)
    assert not r.has_root
    # v_P(disc) = v_P(4 * 3 * 2^12) = 2 * 14, e = 2
    assert r.certificate == {
        "kind": "exhausted", "depth_cap": 57, "disc_valuation": 28, "shift": 0,
    }


def test_deep_inert_prime_of_gaussian_field(wall_clock_limit):
    (P,) = primes_above(GAUSS, 3)
    u = GAUSS.element([1, 1])
    assert not ff_is_square(residue(P, u))
    with wall_clock_limit(2):
        r = has_root_in_closure(P, _x2_minus(GAUSS, u * 3**4))
    assert not r.has_root


def test_node_cap_raises_unsupported(monkeypatch):
    (P,) = primes_above(RAT, 5)
    monkeypatch.setattr(closure, "SEARCH_NODE_CAP", 1)
    with pytest.raises(Unsupported, match="SEARCH_NODE_CAP = 1 "):
        has_root_in_closure(P, _x2_minus(RAT, RAT.rational(2 * 5**6)))
