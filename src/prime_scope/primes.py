"""Primes of a number field: p-adic valuations with splitting data (e, f),
residue maps, uniformizers, holomorphy-domain membership, the (e, f)-type
classification test, and the quadratic tower step search.

A "prime" is either an Ordering (from numberfield) or a PValuation built
here.  Valuations are read off coordinates modulo the Hensel-lifted local
factor, with the working precision raised until the answer is provably exact;
no p-adic rounding ever happens.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .config import DEFAULT
from .errors import (
    IndexDivisible,
    NegativeValuation,
    NoneWithinBound,
    PrecisionOverflow,
    Unsupported,
    check,
)
from .ffield import (
    FF,
    FFElem,
    fdivmod,
    factor_fpoly,
    ff_is_square,
    fmul,
    fred,
    is_prime,
    prime_divisors,
    reduce_qpoly_mod_p,
)
from .localdata import (
    dedekind_applies,
    lift_block_factorization,
    vp_fraction,
    vp_int,
)
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    Ordering,
    elements_by_height,
    square_root,
)
from .qpoly import QPoly

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
    v with v(K^x) = Z.  Carries e, f, the mod-p local factor hbar, the
    residue field F_p[X]/(hbar) (by Dedekind-Kummer, X is the class of the
    generator), and a uniformizer and Hensel lift data made on first use.

    `factors` is the factorization of f mod p as (hbar_i, e_i) pairs, this
    prime's at `index`; `lifts` maps a precision N to
    lift_block_factorization(f, p, N, factors).  The primes above p share both,
    so f is factored mod p once and a lift made for one of them serves them
    all.  Rational valuations read no lift."""

    def __init__(self, field: NumberField, p: int, index: int, factors: list, lifts: dict):
        self.field = field
        self.p = p
        self.index = index
        hbar, e = factors[index]
        self.hbar, self.e = hbar, e
        self._factors = factors
        self.f = len(hbar) - 1
        self._lifts = lifts
        self.residue_field = FF(p, hbar)

    @cached_property
    def uniformizer(self) -> FieldElement:
        """p when e = 1; otherwise h(alpha) for the least lift h of hbar: the
        ideal (p, h(alpha)) is this prime, and v(p) = e >= 2 forces
        v(h(alpha)) = 1.  Made on first use."""
        if self.e == 1:
            return self.field.rational(self.p)
        return self.field.element([Fraction(c) for c in self.hbar])

    @property
    def kind(self) -> str:
        return "p-adic"

    def block(self, N: int) -> tuple[int, ...]:
        """The Hensel lift of hbar^e as an exact factor of f mod p^N, made on first use."""
        if N not in self._lifts:
            self._lifts[N] = lift_block_factorization(self.field.poly, self.p, N, self._factors)
        return self._lifts[N][self.index][2]

    # --- core operations --------------------------------------------------
    def valuation(self, x: FieldElement, precision_cap: int = DEFAULT.precision_cap):
        """v(x); +inf for x = 0; v(x) = e v_p(x) for rational x.

        Otherwise x = (g/den) H with H a primitive integer vector, read in
        A = Z_p[X]/(F_P), the valuation ring of K_P since Dedekind's criterion
        holds at p.  1, X, ..., X^(m-1) is a Z_p-basis of A and p^j A = P^(ej),
        so the least p-valuation of the coordinates of z in A is floor(v(z)/e),
        and by Hermite's identity v(H) is the sum of those minima over
        z = H t^r, r < e, for the uniformizer t = hbar.  Each minimum, taken
        mod (F_P, p^N) over the nonzero coordinates, is exact while H t^r is
        nonzero mod p^N; otherwise N doubles up to the cap."""
        if x.is_zero:
            return math.inf
        if x.is_rational():
            return self.e * vp_fraction(x.as_fraction(), self.p)
        p = self.p
        den = math.lcm(*(c.denominator for c in x.coords))
        ints = [int(c * den) for c in x.coords]
        g = math.gcd(*ints)
        H = [c // g for c in ints]
        N = min(16, precision_cap)
        while True:
            mod = p**N
            F = self.block(N)
            z, mins = fred(H, mod), []
            while len(mins) < self.e:
                z = fdivmod(fmul(z, self.hbar, mod) if mins else z, F, mod)[1]
                if not z:
                    break
                mins.append(min(vp_int(c, p) for c in z if c))
            if len(mins) == self.e:
                check(
                    all(a <= b for a, b in zip(mins, mins[1:])) and mins[-1] <= mins[0] + 1,
                    "coordinate minima break Hermite's identity",
                )
                return self.e * (vp_int(g, p) - vp_int(den, p)) + sum(mins)
            if N >= precision_cap:
                raise PrecisionOverflow(f"valuation undecided at precision p^{N}")
            N = min(2 * N, precision_cap)

    def residue(self, x: FieldElement) -> FFElem:
        """Image of x in the residue field F_p[X]/(hbar): the numerator of x,
        reduced modulo the block lift and read off in its p^k digit, is a
        polynomial in X, scaled by the inverse of the part of the
        denominator prime to p."""
        k_P = self.residue_field
        if x.is_zero:
            return k_P.zero()
        v = self.valuation(x)
        if v < 0:
            raise NegativeValuation(f"residue of element with v = {v}")
        if v > 0:
            return k_P.zero()
        return self.unit_residue(x)

    def unit_residue(self, x: FieldElement) -> FFElem:
        """residue(x) for an x the caller knows to be a P-unit, without
        computing its valuation again."""
        p = self.p
        if x.is_rational():  # num * den^-1 mod p
            c = x.coords[0]
            return self.residue_field.element([c.numerator * pow(c.denominator, -1, p)])
        den = math.lcm(*(c.denominator for c in x.coords))
        k = vp_int(den, p)
        d0_inv = pow(den // p**k, -1, p)
        H = [int(c * den) for c in x.coords]
        M_exp = k + 1
        N = max(16, M_exp)
        F = self.block(N)
        mod = p**M_exp
        _, rem = fdivmod(fred(H, mod), fred(F, mod), mod)
        digits = []
        for c in rem:
            q, r = divmod(c % mod, p**k)
            check(r == 0, "p-integral element left a nonzero low digit")
            digits.append(q * d0_inv)
        return self.residue_field.element(digits)

    def lift_residue(self, r: FFElem) -> FieldElement:
        """The canonical preimage of r: its coefficients b_0, ..., b_{f-1}
        in [0, p) over 1, X, ..., X^{f-1} give b_0 + b_1 a + ... over the
        first f powers of the generator a."""
        return self.field.element(r.coeffs)

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
    (degree, then coefficients); index positions are stable API.  Their block
    lifts are made on first use, so splitting an unramified p lifts nothing."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a rational prime: {p}")
    if p in K._prime_cache:
        return list(K._prime_cache[p])
    if any(c.denominator != 1 for c in K.poly.coeffs):
        raise Unsupported("prime splitting requires an integral defining polynomial")
    factors = factor_fpoly(reduce_qpoly_mod_p(K.poly, p), p)
    if not dedekind_applies(K.poly, p, factors):
        raise IndexDivisible(f"p = {p} divides the index for this field")
    lifts: dict = {}
    out = [PValuation(K, p, idx, factors, lifts) for idx in range(len(factors))]
    check(sum(P.e * P.f for P in out) == K.degree, "sum e_i f_i must equal degree")
    for P in out:
        # an unramified prime's uniformizer is p, of valuation e = 1 by construction
        if P.e > 1:
            check(P.valuation(P.uniformizer) == 1, "uniformizer check failed")
    K._prime_cache[p] = tuple(out)
    return out


def valuation(P: PValuation, x: FieldElement, precision_cap: int = DEFAULT.precision_cap):
    return P.valuation(x, precision_cap)


def residue(P: PValuation, x: FieldElement) -> FFElem:
    """The image of x in P.residue_field = F_p[X]/(hbar_P)."""
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
        return list(K.orderings())
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
    unit, and s^n - 1 is a unit for every proper divisor n of p^f - 1.  For a
    unit s that says r^n != 1 for r = residue(s) in k_P; as every proper
    divisor divides some (p^f - 1)/l, l prime, r^((p^f - 1)/l) != 1 suffices.
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
    r, one, m = P.unit_residue(s), P.residue_field.one(), p**tau.f - 1
    return all(r ** (m // l) != one for l in prime_divisors(m))


def holomorphy_member(
    K: NumberField, p, tau: PrimeType, x: FieldElement
) -> bool:
    """x in R_p^tau(K) = intersection of the rings of all primes in S_p^tau."""
    return all(in_ring(P, x) for P in primes_of_type(K, p, tau, exact=False))


# ---------------------------------------------------------------------------
# quadratic tower step
# ---------------------------------------------------------------------------

_BEHAVIORS = ("split", "inert", "ramified")


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
    """The first nonsquare d in K^x, in elements_by_height order, making
    each constrained prime above p behave as requested in K(sqrt(d)); each
    candidate's nonsquareness is decided exactly by square_root.  The found
    d is re-verified: always through root-existence of X^2 - d in the
    completion, and for K = Q also by literally splitting p in Q(sqrt(d))."""
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
        if square_root(d) is not None:
            continue
        if all(_behavior_at(primes[i], d) == b for i, b in want.items()):
            _verify_quadratic_step(K, p, primes, want, d)
            return d


def _verify_quadratic_step(K, p, primes, want, d) -> None:
    from .closure import has_root_in_closure

    g = KPoly(K, [-d, K.zero(), K.one()])
    for i, b in want.items():
        P = primes[i]
        v = P.valuation(d)
        has = has_root_in_closure(P, g)
        if b == "ramified":
            check(v % 2 == 1, "ramified verification failed")
        elif b == "split":
            check(has, "split verification failed: no local square root")
        else:
            check(v % 2 == 0 and not has, "inert verification failed")
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
        check(shapes == expect, "literal re-split disagreed")

