"""Sums of squares, levels, and the gamma operator.

Everything here is exact: four-square decompositions are verified by
re-summation, level computations brute-force the finite field, and the
short-representation check either certifies a searched region or hands back
the tuple that breaks it.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .config import DEFAULT, Config
from .dense import Ball, WitnessReport, ordering_witness, simultaneous_ball
from .errors import (
    Negative,
    NoneWithinBound,
    PreconditionViolated,
    PrecisionOverflow,
    ZeroElement,
)
from .ffield import FF, ff_is_square, is_prime
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    elements_by_height,
    format_element,
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
        assert len(parts) <= 4
        assert sum(c * c for c in parts) == input_
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
    """(x, y, z) descending with x^2+y^2+z^2 = m, or None (m of the excluded
    4^a(8b+7) shape has none)."""
    for x in range(math.isqrt(m), -1, -1):
        tail = _two_squares_tail(m - x * x, x)
        if tail is not None:
            return (x,) + tail
    return None


_BRUTE_LIMIT = 10**6


def _four_squares_int(n: int, rng: random.Random) -> tuple:
    if n == 0:
        return (0, 0, 0, 0)
    top = math.isqrt(n)
    if n <= _BRUTE_LIMIT:
        for w in range(top, -1, -1):
            tail = _three_squares(n - w * w)
            if tail is not None:
                return tuple(sorted((w,) + tail, reverse=True))
        raise AssertionError("four-square decomposition must exist")
    # large n: sample the top of the w range; every window retry widens it
    for window in itertools.count(32):
        w = top - rng.randrange(min(top + 1, window))
        tail = _three_squares(n - w * w)
        if tail is not None:
            return tuple(sorted((w,) + tail, reverse=True))


def four_squares(q, config: Config = DEFAULT) -> SquareDecomposition:
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
    rng = random.Random(config.seed)
    ints = _four_squares_int(q.numerator * q.denominator, rng)
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
    """Level of F_{p^f}: least s with -1 a sum of s squares; always 1 or 2."""
    if p == 2:
        return 1
    F = FF(p, f)
    minus_one = F.element([-1])
    return 1 if ff_is_square(minus_one) else 2


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
    F = FF(P.p, P.f)
    gbar = KPoly(F, [residue(P, c) for c in g.coeffs])
    return any(gbar(t).is_zero for t in F.elements())


def no_short_representation_check(
    P: PValuation,
    g: KPoly,
    eps: FieldElement,
    s: int,
    height_bound: int | None = None,
    config: Config = DEFAULT,
) -> ShortCheckResult:
    """Search for tuples breaking eps^2 = g(x)^2 + y_1^2 + ... + y_{s-1}^2
    having none, under the hypotheses that make that a theorem.

    Preconditions (each names its clause on failure): P is p-adic; the
    coefficients of g are integral at P with unit leading coefficient; the
    reduction of g has no root in the residue field; v_P(eps) > 0 with eps
    nonzero; and 2 <= s <= level of the residue field.

    Over the rationals with s = 2 the y-component is eliminated exactly (a
    rational square test), so certification there covers every y, not just
    the searched box.
    """
    bound = height_bound if height_bound is not None else config.height_bound
    K = P.field
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
        for d in range(1, bound + 1):
            dpow = [1]
            for _ in range(D):
                dpow.append(dpow[-1] * d)
            base = en * L * dpow[D]
            b2 = base * base
            n_lo = max(math.ceil(lo * d), -bound)
            n_hi = min(math.floor(hi * d), bound)
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

    # general field: index the searched box by its squares, then look up
    # eps^2 - g(x)^2 minus partial sums; s <= 2 always holds (levels are 1 or
    # 2), so one lookup per x suffices
    pool = []
    for y in elements_by_height(K):
        if y.height() > bound:
            break
        pool.append(y)
    square_of = {(y * y).coords: y for y in pool}
    for x in pool:
        searched += 1
        r = target - g(x) * g(x)
        hit = square_of.get(r.coords)
        if hit is not None:
            return ShortCheckResult("CounterexampleFound", (x, hit), searched)
    return ShortCheckResult("Certified", None, searched)


# ---------------------------------------------------------------------------
# denseness of the SOS cone complement
# ---------------------------------------------------------------------------


def d_sos_witness(
    K: NumberField,
    g: KPoly,
    eps: FieldElement,
    height_bound: int | None = None,
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
    bound = height_bound if height_bound is not None else config.height_bound
    cfg = Config(height_bound=bound, precision_cap=config.precision_cap, seed=config.seed)
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
        report = simultaneous_ball(K, balls, locals_, [(g, None)] * len(orderings), cfg)
        x = report.witness
        steps += report.search_stats.get("steps", 0)
    value = eps * eps - g(x) * g(x)
    assert r_infinity_member(K, value)
    verified = [(P, P.sign(value)) for P in orderings]
    return WitnessReport(x, verified, {"bound": bound, "steps": steps})
