"""Primes of a number field: p-adic valuations with splitting data (e, f),
residue maps, uniformizers, holomorphy-domain membership, the (e, f)-type
classification test, and the quadratic tower step search.

A "prime" is either an Ordering (from numberfield) or a PValuation built
here.  Valuations are computed through resultants against Hensel-lifted
local factors, with the working precision raised until the answer is provably
exact; no p-adic rounding ever happens.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .config import DEFAULT
from .errors import (
    IndexDivisible,
    NegativeValuation,
    NoneWithinBound,
    PrecisionOverflow,
    Unsupported,
)
from .ffield import FFElem, fdivmod, ff_is_square, fred, is_prime
from .localdata import (
    ResidueEmbedding,
    dedekind_applies,
    lift_block_factorization,
    vp_fraction,
    vp_int,
)
from .numberfield import (
    FieldElement,
    NumberField,
    Ordering,
    elements_by_height,
    real_embeddings,
)
from .qpoly import QPoly, is_square_rational

INFINITE_PLACE = "inf"

Prime = Union["PValuation", Ordering]


def is_infinite_place(p) -> bool:
    return p == INFINITE_PLACE or p is None or (isinstance(p, float) and math.isinf(p))


class PrimeType:
    """A relative type tau = (e, f)."""

    __slots__ = ("e", "f")

    def __init__(self, e: int, f: int):
        if e < 1 or f < 1:
            raise ValueError("type components must be positive")
        self.e = e
        self.f = f

    def __eq__(self, other):
        return isinstance(other, PrimeType) and (self.e, self.f) == (other.e, other.f)

    def __hash__(self):
        return hash((self.e, self.f))

    def __repr__(self):
        return f"({self.e},{self.f})"


class PValuation:
    """A prime of K above the rational prime p, i.e. a normalized p-valuation
    v with v(K^x) = Z.  Carries e, f, the mod-p local factor, a uniformizer,
    and lazily grown Hensel lift data.

    `lifts` maps a precision N to lift_block_factorization(f, p, N); the
    primes above p share one such dict, so a lift made for one of them serves
    them all."""

    def __init__(
        self, field: NumberField, p: int, index: int, hbar: tuple[int, ...], e: int, lifts: dict
    ):
        self.field = field
        self.p = p
        self.index = index
        self.hbar = hbar
        self.e = e
        self.f = len(hbar) - 1
        self._lifts = lifts
        self._embedding: ResidueEmbedding | None = None
        if e == 1:
            self.uniformizer = field.rational(p)
        else:
            # h(alpha) for the least lift h of hbar: the ideal (p, h(alpha))
            # is this prime, and v(p) = e >= 2 forces v(h(alpha)) = 1
            self.uniformizer = field.element([Fraction(c) for c in hbar])

    @property
    def kind(self) -> str:
        return "p-adic"

    def block(self, N: int) -> tuple[int, ...]:
        """The Hensel lift of hbar^e as an exact factor of f modulo p^N."""
        if N not in self._lifts:
            self._lifts[N] = lift_block_factorization(self.field.poly, self.p, N)
        return self._lifts[N][self.index][2]

    def embedding(self) -> ResidueEmbedding:
        if self._embedding is None:
            self._embedding = ResidueEmbedding(self.p, self.hbar)
        return self._embedding

    # --- core operations --------------------------------------------------
    def valuation(self, x: FieldElement, precision_cap: int = DEFAULT.precision_cap):
        """v(x); +inf for x = 0.  Exact by the stability rule: the resultant
        of x's primitive part against the block lift mod p^N is congruent to
        the true (nonzero) resultant mod p^N, so once its p-adic valuation
        drops below N it is the true valuation."""
        if x.is_zero:
            return math.inf
        g = x.as_qpoly()
        content, prim = g.content_and_primitive()
        vc = vp_fraction(content, self.p)
        prim_q = QPoly(prim)
        N = 16
        while True:
            if N > precision_cap:
                raise PrecisionOverflow(f"valuation undecided at precision p^{N}")
            F = QPoly([Fraction(c) for c in self.block(N)])
            R = F.resultant(prim_q)
            if R != 0:
                vr = vp_int(R.numerator, self.p)
                if vr < N:
                    assert vr % self.f == 0, "resultant valuation not a multiple of f"
                    return self.e * vc + vr // self.f
            N *= 2

    def residue(self, x: FieldElement) -> FFElem:
        """Image of x in the residue field F_{p^f} (canonical model)."""
        emb = self.embedding()
        if x.is_zero:
            return emb.field.zero()
        v = self.valuation(x)
        if v < 0:
            raise NegativeValuation(f"residue of element with v = {v}")
        if v > 0:
            return emb.field.zero()
        p = self.p
        den = 1
        for c in x.coords:
            den = den * c.denominator // math.gcd(den, c.denominator)
        k = vp_int(den, p)
        d0 = den // p**k
        H = [int(c * den) for c in x.coords]
        M_exp = k + 1
        N = max(16, M_exp)
        F = self.block(N)
        mod = p**M_exp
        _, rem = fdivmod(fred(H, mod), fred(F, mod), mod)
        digits = []
        for c in rem:
            q, r = divmod(c % mod, p**k)
            assert r == 0, "p-integral element left a nonzero low digit"
            digits.append(q % p)
        w = emb.eval_poly(digits)
        return w * emb.field.element([pow(d0, -1, p)])

    def lift_residue(self, r: FFElem) -> FieldElement:
        """The canonical preimage of r among sums b_0 + b_1 a + ... with
        digits 0 <= b_l < p over the first f powers of the generator."""
        emb = self.embedding()
        b = emb.digits(r)
        return self.field.element([Fraction(v) for v in b])

    def to_json(self) -> dict:
        return {
            "kind": "p-adic",
            "p": self.p,
            "e": self.e,
            "f": self.f,
            "index": self.index,
        }

    def __eq__(self, other):
        return (
            isinstance(other, PValuation)
            and self.field == other.field
            and self.p == other.p
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.field.poly.coeffs, self.p, self.index))

    def __repr__(self):
        return f"PValuation(p={self.p}, e={self.e}, f={self.f}, index={self.index})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def primes_above(K: NumberField, p: int) -> list[PValuation]:
    """All primes of K above p, sorted canonically by their mod-p factor
    (degree, then coefficients); index positions are stable API."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a rational prime: {p}")
    cache_key = p
    if cache_key in K._prime_cache:
        return list(K._prime_cache[cache_key])
    for c in K.poly.coeffs:
        if c.denominator != 1:
            raise Unsupported(
                "prime splitting requires an integral defining polynomial"
            )
    if not dedekind_applies(K.poly, p):
        raise IndexDivisible(f"p = {p} divides the index for this field")
    lifts = {16: lift_block_factorization(K.poly, p, 16)}
    out = [PValuation(K, p, idx, hbar, e, lifts) for idx, (hbar, e, _) in enumerate(lifts[16])]
    assert sum(P.e * P.f for P in out) == K.degree, "sum e_i f_i must equal degree"
    for P in out:
        assert P.valuation(P.uniformizer) == 1, "uniformizer check failed"
    K._prime_cache[cache_key] = tuple(out)
    return out


def valuation(P: PValuation, x: FieldElement, precision_cap: int = DEFAULT.precision_cap):
    return P.valuation(x, precision_cap)


def residue(P: PValuation, x: FieldElement) -> FFElem:
    return P.residue(x)


def in_ring(P: Prime, x: FieldElement) -> bool:
    """Membership in the holomorphy ring of one prime: v(x) >= 0 for a
    p-valuation, sign >= 0 for an ordering; x = 0 belongs everywhere."""
    if x.is_zero:
        return True
    if isinstance(P, Ordering):
        return P.sign(x) >= 0
    return P.valuation(x) >= 0


def primes_of_type(
    K: NumberField, p, tau: PrimeType, exact: bool = False
) -> list[Prime]:
    """S_p^tau(K) (exact=False: e' <= e and f' | f) or S_p^{=tau}(K)
    (exact=True).  For the infinite place, all orderings regardless of tau."""
    if is_infinite_place(p):
        return list(real_embeddings(K))
    out: list[Prime] = []
    for P in primes_above(K, p):
        if exact:
            ok = P.e == tau.e and P.f == tau.f
        else:
            ok = P.e <= tau.e and tau.f % P.f == 0
        if ok:
            out.append(P)
    return out


def chi_member(P: Prime, tau: PrimeType, t: FieldElement, s: FieldElement) -> bool:
    """Whether P lands in the (t, s)-cut of S_p^tau: t^e/p is a unit, s is a
    unit, and s^n - 1 is a unit for every proper divisor n of p^f - 1.
    Orderings pass unconditionally."""
    if isinstance(P, Ordering):
        return True
    p = P.p
    tp = P.field.rational(p)
    lead = t**tau.e * tp.inverse()
    if lead.is_zero or P.valuation(lead) != 0:
        return False
    if s.is_zero or P.valuation(s) != 0:
        return False
    m = p**tau.f - 1
    for n in range(1, m):
        if m % n:
            continue
        w = s**n - P.field.one()
        if w.is_zero or P.valuation(w) != 0:
            return False
    return True


def holomorphy_member(
    K: NumberField, p, tau: PrimeType, x: FieldElement
) -> bool:
    """x in R_p^tau(K) = intersection of the rings of all primes in S_p^tau."""
    return all(in_ring(P, x) for P in primes_of_type(K, p, tau, exact=False))


# ---------------------------------------------------------------------------
# quadratic tower step
# ---------------------------------------------------------------------------

_BEHAVIORS = ("split", "inert", "ramified")


def _nonsquare_in_field(K: NumberField, d: FieldElement) -> bool:
    """A certificate that d is not a square in K, or False when none of the
    cheap certificates fires (a negative embedding, an odd valuation, or a
    nonsquare residue at an auxiliary prime)."""
    if K.degree == 1:
        return not is_square_rational(d.as_fraction())
    for O in real_embeddings(K):
        if O.sign(d) < 0:
            return True
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        try:
            primes = primes_above(K, ell)
        except (IndexDivisible, Unsupported):
            continue
        for Q in primes:
            v = Q.valuation(d)
            if v % 2 == 1:
                return True
            if v == 0 and not ff_is_square(Q.residue(d)):
                return True
    return False


def _behavior_at(P: PValuation, d: FieldElement) -> str:
    """How P behaves in K(sqrt(d)), for odd residue characteristic: odd
    valuation ramifies; otherwise the unit part is a square exactly when its
    residue is (Hensel), which separates split from inert."""
    v = P.valuation(d)
    if v % 2 == 1:
        return "ramified"
    u = d * P.uniformizer ** (-v)
    return "split" if ff_is_square(P.residue(u)) else "inert"


def quadratic_step_search(
    K: NumberField,
    p: int,
    constraints: Sequence[tuple[int, str]],
    height_bound: int = DEFAULT.height_bound,
) -> FieldElement:
    """Smallest-height nonsquare d in K^x making each constrained prime above
    p behave as requested in K(sqrt(d)).  The found d is re-verified: always
    through root-existence of X^2 - d in the completion, and for K = Q also
    by literally splitting p in Q(sqrt(d))."""
    if p == 2:
        raise Unsupported("quadratic step search requires odd p")
    if K.degree > 4:
        raise Unsupported("field degree above desk scale")
    for _idx, behavior in constraints:
        if behavior not in _BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
    primes = primes_above(K, p)
    want = {}
    for idx, behavior in constraints:
        if not 0 <= idx < len(primes):
            raise ValueError(f"no prime of index {idx} above {p}")
        want[idx] = behavior
    for d in elements_by_height(K, include_zero=False):
        if d.height() > height_bound:
            raise NoneWithinBound(
                f"no quadratic step element of height <= {height_bound}"
            )
        if not _nonsquare_in_field(K, d):
            continue
        if all(_behavior_at(primes[i], d) == b for i, b in want.items()):
            _verify_quadratic_step(K, p, primes, want, d)
            return d


def _verify_quadratic_step(K, p, primes, want, d) -> None:
    from .closure import has_root_in_closure

    g = _kpoly_x2_minus(K, d)
    for i, b in want.items():
        P = primes[i]
        v = P.valuation(d)
        has = has_root_in_closure(P, g)
        if b == "ramified":
            assert v % 2 == 1, "ramified verification failed"
        elif b == "split":
            assert has, "split verification failed: no local square root"
        else:
            assert v % 2 == 0 and not has, "inert verification failed"
    if K.degree == 1 and want:
        dq = d.as_fraction()
        scale = dq.denominator  # d * scale^2 is an integer defining the same extension
        d_int = dq * scale * scale
        L = NumberField(QPoly((-d_int, Fraction(0), Fraction(1))))
        try:
            ps = primes_above(L, p)
        except IndexDivisible:
            return  # the closure-based check above already passed
        shapes = sorted((Q.e, Q.f) for Q in ps)
        expect = {
            "split": [(1, 1), (1, 1)],
            "inert": [(1, 2)],
            "ramified": [(2, 1)],
        }[next(iter(want.values()))]
        assert shapes == expect, "literal re-split disagreed"


def _kpoly_x2_minus(K: NumberField, d: FieldElement):
    from .numberfield import KPoly

    return KPoly(K, [-d, K.zero(), K.one()])
