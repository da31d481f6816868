"""Sums of squares, levels, and the gamma operator.

Everything here is exact: four-square decompositions come from one
deterministic descent and are verified by re-summation, the level of F_q is
read off q mod 4, and the short-representation check either certifies that
no x up to the height bound has any y in K completing a representation, or
hands back the tuple that breaks it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .config import DEFAULT, Config
from .dense import Ball, WitnessReport, ordering_witness, simultaneous_ball
from .errors import (
    InvariantViolated,
    Negative,
    NoneWithinBound,
    PreconditionViolated,
    PrecisionOverflow,
    ZeroElement,
    check,
)
from .ffield import factor_fpoly, is_prime, reduce_qpoly_mod_p
from .localdata import ff_poly_roots
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    elements_by_height,
    format_element,
    square_root,
)
from .primes import PValuation, residue, valuation
from .qpoly import QPoly


# ---------------------------------------------------------------------------
# four squares
# ---------------------------------------------------------------------------


class SquareDecomposition:
    """input = sum of the squares of parts; at most four parts, checked."""

    __slots__ = ("input", "parts")

    def __init__(self, input_: Fraction, parts: tuple):
        check(len(parts) <= 4, f"{len(parts)} parts")
        check(sum(c * c for c in parts) == input_, f"parts do not re-sum to {input_}")
        self.input = input_
        self.parts = tuple(parts)

    def to_json(self) -> dict:
        return {
            "input": str(self.input),
            "parts": [str(c) for c in self.parts],
        }

    def __repr__(self):
        return f"SquareDecomposition({self.input} = {' + '.join(f'{c}^2' for c in self.parts)})"


def _two_squares_tail(r: int, y_top: int):
    """(y, z) with y^2 + z^2 = r, z <= y <= y_top, or None."""
    for y in range(min(y_top, math.isqrt(r)), -1, -1):
        z2 = r - y * y
        if z2 > y * y:
            return None
        z = math.isqrt(z2)
        if z * z == z2:
            return (y, z)
    return None


def _three_squares(m: int):
    """(x, y, z) descending with x^2+y^2+z^2 = m, or None exactly when m has
    the shape 4^a(8b+7) (Legendre's three-square theorem), decided before any
    scan."""
    k = m
    while k and k % 4 == 0:
        k //= 4
    if k % 8 == 7:
        return None
    for x in range(math.isqrt(m), -1, -1):
        tail = _two_squares_tail(m - x * x, x)
        if tail is not None:
            return (x,) + tail
    raise InvariantViolated("three-square decomposition must exist")


def _four_squares_int(n: int) -> tuple:
    """The descent w = isqrt(n), isqrt(n) - 1, ...: the first w whose
    remainder n - w^2 is a sum of three squares, parts sorted descending.
    Legendre's test rejects an excluded remainder without scanning it, so
    only remainders that have a decomposition are scanned."""
    for w in range(math.isqrt(n), -1, -1):
        tail = _three_squares(n - w * w)
        if tail is not None:
            return tuple(sorted((w,) + tail, reverse=True))
    raise InvariantViolated("four-square decomposition must exist")


def four_squares(q) -> SquareDecomposition:
    """Exact decomposition of a nonnegative rational into at most four
    rational squares: q = 0 gives an empty decomposition, anything else gives
    exactly four parts in descending order (zeros padded at the end).

    a/b = (a*b)/b^2, so the numerator-times-denominator integer is decomposed
    and each part divided back by b.
    """
    q = Fraction(q)
    if q < 0:
        raise Negative(f"{q} has no sum-of-squares decomposition")
    if q == 0:
        return SquareDecomposition(q, ())
    ints = _four_squares_int(q.numerator * q.denominator)
    parts = tuple(Fraction(c, q.denominator) for c in ints)
    return SquareDecomposition(q, parts)


# ---------------------------------------------------------------------------
# total nonnegativity
# ---------------------------------------------------------------------------


def r_infinity_member(K: NumberField, x: FieldElement) -> bool:
    """Membership in the ring of totally nonnegative elements: x >= 0 under
    every ordering of K."""
    return all(P.sign(x) >= 0 for P in K.orderings())


# ---------------------------------------------------------------------------
# the gamma operator
# ---------------------------------------------------------------------------


class KochenValue:
    """gamma_p(x) when defined; Undefined exactly when (x^p - x)^2 = 1."""

    __slots__ = ("value",)

    def __init__(self, value: FieldElement | None):
        self.value = value

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        if self.value is None:
            return {"defined": False}
        return {"defined": True, "value": format_element(self.value)}

    def __repr__(self):
        if self.value is None:
            return "KochenValue(Undefined)"
        return f"KochenValue({self.value})"


def kochen(p: int, x: FieldElement) -> KochenValue:
    """gamma_p(x) = (1/p) * (x^p - x) / ((x^p - x)^2 - 1).

    The denominator vanishes exactly when (x^p - x)^2 = 1; then the value is
    Undefined.  Wherever defined over the rationals, v_p(gamma_p(x)) >= 0:
    either p | x^p - x (Fermat) and the numerator carries at least the p the
    prefactor spends, or the denominator is a unit times p^(-2v) with
    v = v_p(x) < 0 and the count works out the same way.
    """
    if not is_prime(p):
        raise ValueError("p must be a prime >= 2")
    K = x.field
    w = x**p - x
    d = w * w - K.one()
    if d.is_zero:
        return KochenValue(None)
    return KochenValue(K.rational(Fraction(1, p)) * w * d.inverse())


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def level_finite_field(p: int, f: int) -> int:
    """Level of F_{p^f}: least s with -1 a sum of s squares, 1 or 2.  In
    characteristic 2, -1 = 1 is a square; otherwise -1 is a square exactly
    when 4 divides the order p^f - 1 of the cyclic group F_q^x."""
    if not is_prime(p):
        raise ValueError(f"not a rational prime: {p}")
    if f < 1:
        raise ValueError("degree must be positive")
    return 1 if p == 2 or pow(p, f, 4) == 1 else 2


# ---------------------------------------------------------------------------
# no short representation
# ---------------------------------------------------------------------------


class ShortCheckResult:
    """Certified: the searched region contains no (x, y_1..y_{s-1}) with
    eps^2 = g(x)^2 + sum y_j^2.  CounterexampleFound carries the tuple."""

    __slots__ = ("status", "tuple", "searched")

    def __init__(self, status: str, tuple_=None, searched: int = 0):
        self.status = status
        self.tuple = tuple_
        self.searched = searched

    def to_json(self) -> dict:
        out = {"status": self.status, "searched": self.searched}
        if self.tuple is not None:
            out["tuple"] = [format_element(v) for v in self.tuple]
        return out

    def __repr__(self):
        return f"ShortCheckResult({self.status})"


def _reduction_has_root(P: PValuation, g: KPoly) -> bool:
    return bool(ff_poly_roots(P.residue_field, [residue(P, c) for c in g.coeffs]))


# the degree-1 primes that filter x before the exact square test: how many,
# and the bound on their norms
_FILTER_PRIMES = 8
_FILTER_LIMIT = 100


def _residue_filters(K: NumberField, g: KPoly, eps: FieldElement) -> list[tuple]:
    """Up to _FILTER_PRIMES degree-1 primes (l, a) of K, l odd below
    _FILTER_LIMIT: f(a) = 0 and f'(a) != 0 mod l, and l prime to every
    denominator of f, g and eps.  Each is given as (l, powers of a, the
    reduced coefficients of g highest first, eps^2 reduced, inverses mod l
    with 0 at 0, squareness mod l with True at 0)."""
    dens = [c.denominator for c in K.poly.coeffs]
    for c in (*g.coeffs, eps):
        dens += [q.denominator for q in c.coords]
    den = math.lcm(*dens)
    out = []
    for l in filter(is_prime, range(3, _FILTER_LIMIT)):
        if den % l == 0:
            continue
        # the simple roots of f mod l are its linear factors of multiplicity 1
        for h, e in factor_fpoly(reduce_qpoly_mod_p(K.poly, l), l):
            if len(h) != 2 or e != 1:
                continue
            a = -h[0] % l
            apow = [pow(a, i, l) for i in range(K.degree)]

            def red(c):
                return sum(q.numerator * pow(q.denominator, -1, l) * ai
                           for q, ai in zip(c.coords, apow)) % l

            inv = [0] + [pow(k, -1, l) for k in range(1, l)]
            is_sq = [False] * l
            for k in range(l):
                is_sq[k * k % l] = True
            out.append((l, apow, [red(c) for c in reversed(g.coeffs)],
                        red(eps) ** 2 % l, inv, is_sq))
            if len(out) == _FILTER_PRIMES:
                return out
    return out


def _nonsquare_somewhere(coords: tuple, filters: list[tuple]) -> bool:
    """True when eps^2 - g(x)^2 reduces to a nonzero non-square at one of the
    filters; a prime dividing a denominator of x is skipped for that x."""
    for l, apow, gbar, e2, inv, is_sq in filters:
        v = 0
        for q, ai in zip(coords, apow):
            d = inv[q.denominator % l]
            if not d:
                break
            v += q.numerator * d * ai
        else:
            acc = 0
            for c in gbar:
                acc = (acc * v + c) % l
            if not is_sq[(e2 - acc * acc) % l]:
                return True
    return False


def no_short_representation_check(
    P: PValuation,
    g: KPoly,
    eps: FieldElement,
    s: int,
    height_bound: int = DEFAULT.height_bound,
) -> ShortCheckResult:
    """Search for tuples breaking eps^2 = g(x)^2 + y_1^2 + ... + y_{s-1}^2
    having none, under the hypotheses that make that a theorem.

    Preconditions (each names its clause on failure): P is p-adic; the
    coefficients of g are integral at P with unit leading coefficient; the
    reduction of g has no root in the residue field; v_P(eps) > 0 with eps
    nonzero; and 2 <= s <= level of the residue field.

    The bound must be at least 1 (clause "height-bound").  Since s <= 2, the
    y-component is eliminated exactly over every field: Certified means no x
    of height <= bound has any y in K with eps^2 = g(x)^2 + y^2; `searched`
    counts the x tested.  Over Q that is a perfect-square test on integers,
    run only for the x between the extreme real roots of g^2 - eps^2.
    Elsewhere every x is tested, streamed by height in O(1) memory: each
    costs at most _FILTER_PRIMES residue tests of eps^2 - g(x)^2 at degree-1
    primes, O(deg g + [K:Q]) small-integer operations apiece, and only the x
    that are squares at all of them pay for g(x) in K and the exact decision
    of square_root.  A counterexample is re-verified before it is returned.
    """
    K = P.field
    if height_bound < 1:
        raise PreconditionViolated(
            f"height bound {height_bound} leaves no x to search", clause="height-bound"
        )
    if getattr(P, "kind", "") != "p-adic":
        raise PreconditionViolated("check runs at a finite prime", clause="p-adic-prime")
    if g.is_zero or g.degree < 1:
        raise PreconditionViolated("g must be nonconstant", clause="nonconstant")
    for c in g.coeffs:
        if (not c.is_zero) and valuation(P, c) < 0:
            raise PreconditionViolated(
                f"coefficient {format_element(c)} is not integral at P",
                clause="p-integral-coefficients",
            )
    if valuation(P, g.lc) != 0:
        raise PreconditionViolated(
            "leading coefficient must be a unit at P",
            clause="unit-leading-coefficient",
        )
    if _reduction_has_root(P, g):
        raise PreconditionViolated(
            "reduction of g has a root in the residue field",
            clause="rootless-reduction",
        )
    if eps.is_zero or valuation(P, eps) <= 0:
        raise PreconditionViolated(
            "eps must be nonzero with v_P(eps) > 0", clause="epsilon-valuation"
        )
    if s < 2:
        raise PreconditionViolated("s must be at least 2", clause="s-range")
    lvl = level_finite_field(P.p, P.f)
    if s > lvl:
        raise PreconditionViolated(
            f"level(F_{P.p}^{P.f}) = {lvl} < s = {s}", clause="level"
        )

    target = eps * eps
    searched = 0
    if K.degree == 1 and s == 2:
        # integer form of the scan: for x = n/d in lowest terms, g(x) is
        # A(n,d) / (L d^D) with A integral, so eps^2 - g(x)^2 is a rational
        # square exactly when (en L d^D)^2 - (A ed)^2 is a perfect square.
        # Only x between the extreme real roots of g^2 - eps^2 can make that
        # difference nonnegative, which trims the box before any bignum work.
        D = g.degree
        cs = [c.as_fraction() for c in g.coeffs]
        L = math.lcm(*(c.denominator for c in cs))
        ic = [int(c * L) for c in cs]
        ef = eps.as_fraction()
        en, ed = ef.numerator, ef.denominator
        big = (QPoly(cs) * QPoly(cs) - QPoly([ef * ef])).squarefree_part()
        ivs = big.isolate_real_roots()
        if not ivs:
            return ShortCheckResult("Certified", None, 0)
        lo = min(a for a, _ in ivs)
        hi = max(b for _, b in ivs)
        for d in range(1, height_bound + 1):
            dpow = [1]
            for _ in range(D):
                dpow.append(dpow[-1] * d)
            base = en * L * dpow[D]
            b2 = base * base
            n_lo = max(math.ceil(lo * d), -height_bound)
            n_hi = min(math.floor(hi * d), height_bound)
            for nn in range(n_lo, n_hi + 1):
                if math.gcd(nn, d) != 1:
                    continue
                searched += 1
                acc = 0
                for k in range(D, -1, -1):
                    acc = acc * nn + ic[k] * dpow[D - k]
                rem = b2 - (acc * ed) ** 2
                if rem < 0:
                    continue
                rt = math.isqrt(rem)
                if rt * rt == rem:
                    x = K.rational(Fraction(nn, d))
                    y = K.rational(Fraction(rt, ed * L * dpow[D]))
                    return ShortCheckResult("CounterexampleFound", (x, y), searched)
        return ShortCheckResult("Certified", None, searched)

    # general field: stream over x; a non-residue of eps^2 - g(x)^2 at a
    # degree-1 prime drops x in integers, and only the rare x locally square
    # at every filter prime get r = eps^2 - g(x)^2 formed in K and decided
    # exactly.  s <= 2 always holds (levels are 1 or 2), so one square test
    # per x suffices
    filters = _residue_filters(K, g, eps)
    for x in elements_by_height(K):
        if x.height() > height_bound:
            break
        searched += 1
        if _nonsquare_somewhere(x.coords, filters):
            continue
        gx = g(x)
        r = target - gx * gx
        y = square_root(r)
        if y is not None:
            check(gx * gx + y * y == target, "square root failed its re-verification")
            return ShortCheckResult("CounterexampleFound", (x, y), searched)
    return ShortCheckResult("Certified", None, searched)


# ---------------------------------------------------------------------------
# denseness of the SOS cone complement
# ---------------------------------------------------------------------------


def d_sos_witness(
    K: NumberField,
    g: KPoly,
    eps: FieldElement,
    config: Config = DEFAULT,
) -> WitnessReport:
    """x with eps^2 - g(x)^2 totally nonnegative, for odd-degree g.

    Odd degree forces a real root of g under every ordering, so the integer
    bracket plus midpoint bisection from the denseness engine lands inside
    |g| < |eps| at each of them; several orderings are merged through
    simultaneous_ball.  The witness is re-verified with r_infinity_member
    before it is returned.
    """
    if g.degree % 2 != 1:
        raise PreconditionViolated("g must have odd degree", clause="odd-degree")
    if eps.is_zero:
        raise PreconditionViolated("eps must be nonzero", clause="epsilon-nonzero")
    orderings = K.orderings()
    locals_ = []
    steps = 0
    try:
        for P in orderings:
            w, took = ordering_witness(P, g, eps, config.precision_cap, strict=True)
            locals_.append(w)
            steps += took
    except PrecisionOverflow as exc:
        raise NoneWithinBound(f"per-ordering bisection gave out: {exc.detail}")
    if len(orderings) == 1:
        x = locals_[0]
    else:
        balls = [Ball(P, K.zero(), eps) for P in orderings]
        report = simultaneous_ball(K, balls, locals_, [(g, None)] * len(orderings), config)
        x = report.witness
        steps += report.search_stats.get("steps", 0)
    value = eps * eps - g(x) * g(x)
    check(r_infinity_member(K, value), "eps^2 - g(x)^2 is not totally nonnegative")
    verified = [(P, P.sign(value)) for P in orderings]
    return WitnessReport(x, verified, {"bound": config.height_bound, "steps": steps})
