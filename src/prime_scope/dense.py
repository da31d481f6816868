"""Witness search for denseness over finite prime sets.

The objects here make the density statements effective: given a prime P and a
monic g with a root in the closure at P, ``d_witness`` produces an x in K with
1 - g(x)^2 a^(-2) in the holomorphy ring at P, and ``ud_witness`` produces a
single x that works at every prime of a finite set simultaneously.  The
simultaneous step is classical approximation: congruences are merged by CRT on
O_K modulo a high power of p, and archimedean constraints are absorbed by a
translation search x0 + M*m with m running through the canonical height
enumeration.  ``weak_approx_value`` solves the multiplicative analogue
(prescribed valuations at finitely many primes above one p), and
``zgroup_witness`` uses it to witness the value-group axiom scheme.

The condition has one test, ``_defining_check``: the ordering bisection, the
merge and every report read r = 1 - g(x)^2 a^(-2) once per point and decide
v_P(r) >= 0 at a p-adic place and sign_P(r) >= 0 (> 0 when strict) at an
ordering.

Each witness decides its closure question once: the search that builds a
place's local witness is the one that decides whether g has a root there
(``closure.padic_root`` at a p-adic place, one Sturm sequence of (g, g') at
an ordering), so no existence test runs before it.

Every search is deterministic and every returned witness is re-verified with
exact arithmetic before it leaves this module; a WitnessReport never contains
an unchecked claim.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .config import DEFAULT, Config
from .errors import (
    NonDisjoint,
    NoneWithinBound,
    NoRoot,
    NoRootInClosure,
    PrecisionOverflow,
    Unsupported,
    ZeroElement,
    check,
)
from .closure import padic_root, require_monic_nonconstant
from .ffield import bezout_lift, fdivmod, fext_gcd, fmul, fred
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    Ordering,
    elements_by_height,
    format_element,
    sturm_variations,
)
from .primes import PValuation, primes_above, primes_of_type, valuation


def _val_str(v) -> str:
    return "inf" if v == math.inf else str(v)


class WitnessReport:
    """Outcome of a witness search.

    witness     -- the found element, or None
    verified_at -- list of (prime, exact check value) pairs; every entry was
                   computed exactly on the final witness
    search_stats -- {"bound": ..., "steps": ...}
    """

    __slots__ = ("witness", "verified_at", "search_stats")

    def __init__(self, witness, verified_at, search_stats):
        self.witness = witness
        self.verified_at = list(verified_at)
        self.search_stats = dict(search_stats)

    def to_json(self) -> dict:
        return {
            "witness": None if self.witness is None else format_element(self.witness),
            "verified_at": [
                {"prime": P.to_json(), "check": _val_str(v)} for P, v in self.verified_at
            ],
            "search_stats": dict(self.search_stats),
        }

    def __repr__(self):
        return f"WitnessReport(witness={self.witness!r}, checks={len(self.verified_at)})"


# ---------------------------------------------------------------------------
# the defining membership 1 - g(x)^2 a^(-2) in O_P, checked exactly
# ---------------------------------------------------------------------------


def _defect(g: KPoly, x: FieldElement, inv_a2: FieldElement) -> FieldElement:
    """r = 1 - g(x)^2 a^(-2), from a^(-2) formed once per search."""
    gx = g(x)
    return x.field.one() - gx * gx * inv_a2


def _defining_check(P, r: FieldElement, strict: bool):
    """(holds?, check value) for r = 1 - g(x)^2 a^(-2) in the holomorphy ring
    at P: v_P(r) >= 0 at a p-adic place, sign_P(r) >= 0 at an ordering, and
    sign_P(r) > 0, that is |g(x)| < |a|, there when ``strict``.

    The check value is the valuation (p-adic) or the sign (ordering) of r
    itself, so a report reader can re-derive the verdict.
    """
    if isinstance(P, Ordering):
        s = P.sign(r)
        return (s > 0 if strict else s >= 0), s
    v = valuation(P, r)
    return v >= 0, v


# ---------------------------------------------------------------------------
# d_witness
# ---------------------------------------------------------------------------


def _ordering_witness(P: Ordering, g: KPoly, a: FieldElement, cap: int, strict: bool):
    """(x, steps) with 1 - g(x)^2 a^(-2) >= 0 at P (> 0 when ``strict``), or
    None when g has no root in the real closure at P.

    One signed remainder sequence of (g, g') decides the place and drives the
    search (numberfield.sturm_variations).  Deterministic rule: scan unit
    intervals [n, n+1] for n = 0, 1, -1, 2, -2, ... until one contains a root
    (an exact integer root returns immediately), then halve at most `cap`
    times, keeping the left half iff it still contains a root, testing the
    defining check at each midpoint.  `steps` counts the scanned
    intervals and the halvings.  Termination: g -> 0 along the shrinking
    bracket and a != 0.
    """
    require_monic_nonconstant(g)
    at = sturm_variations(P, g)
    if at(None, -1) == at(None, 1):
        return None
    K = P.field
    inv_a2 = a ** -2
    # each integer ends two unit intervals, scanned at most two steps apart
    at_int = lru_cache(maxsize=4)(lambda k: at(Fraction(k)))
    steps = 0
    n = 0
    while True:
        steps += 1
        if g(K.rational(n)).is_zero:
            # an exact root, so |g| = 0 < |a| there
            return K.rational(n), steps
        # n is no root, so this counts a root in (n, n + 1]: a simple root
        # n + 1 is counted in, and at a repeated one no variations are left
        if at_int(n) > at_int(n + 1):
            lo, hi, v_lo = Fraction(n), Fraction(n + 1), at_int(n)
            break
        n = -n if n > 0 else -n + 1
        if n > 10**6:
            raise PrecisionOverflow("no unit interval bracketing a real root was found")

    for _ in range(cap):
        steps += 1
        mid = (lo + hi) / 2
        x = K.rational(mid)
        if _defining_check(P, _defect(g, x, inv_a2), strict)[0]:
            return x, steps
        # mid is no root here, as |g(mid)| = 0 would have hit
        v_mid = at(mid)
        if v_lo > v_mid:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    raise PrecisionOverflow(f"ordering bisection did not converge within {cap} steps")


def _local_witness(P, g: KPoly, a: FieldElement, config: Config, strict: bool):
    """(x, steps) with 1 - g(x)^2 a^(-2) in O_P (strictly inside at an
    ordering when ``strict``), or None when g has no root in the closure at
    P: the search that builds the witness is the one that decides P."""
    if isinstance(P, Ordering):
        return _ordering_witness(P, g, a, config.precision_cap, strict)
    k = max(1, valuation(P, a))
    try:
        return padic_root(P, g, k, precision_cap=config.precision_cap), k
    except NoRoot:
        return None


def d_witness(P, g: KPoly, a: FieldElement, config: Config = DEFAULT) -> WitnessReport:
    """x with v_P(g(x)) >= v_P(a) (p-adic) or |g(x)| <= |a| (ordering).

    Requires a root of g in the closure at P; the returned witness has the
    defining membership 1 - g(x)^2 a^(-2) in O_P re-verified exactly.
    """
    if a.is_zero:
        raise ZeroElement("d_witness needs a nonzero a")
    found = _local_witness(P, g, a, config, strict=False)
    if found is None:
        raise NoRootInClosure(f"g has no root in the closure at {P!r}")
    x, steps = found
    ok, chk = _defining_check(P, _defect(g, x, a ** -2), False)
    check(ok, "witness failed the defining membership it was built for")
    return WitnessReport(x, [(P, chk)], {"bound": config.precision_cap, "steps": steps})


# ---------------------------------------------------------------------------
# CRT scaffolding on O_K mod p^N
# ---------------------------------------------------------------------------


def _block_idempotents(K: NumberField, p: int, N: int) -> list[FieldElement]:
    """eps_j with v(eps_j - 1) >= N*e at the j-th prime above p and
    v(eps_j) >= N*e at every other prime above p.

    eps_j = w*C mod f, where C is the product of the other block lifts and
    u*F + w*C = 1 mod p^N with F the j-th block lift: the Bezout pair over F_p
    is lifted by Newton steps, each squaring the precision."""
    blocks = [P.block(N) for P in primes_above(K, p)]
    mod = p**N
    f_mod = fred([int(c) for c in K.poly.coeffs], mod)
    out = []
    for j in range(len(blocks)):
        if len(blocks) == 1:
            out.append(K.one())
            continue
        F = blocks[j]
        C = _other_blocks(blocks, j, mod)
        g, u, w = fext_gcd(fred(F, p), fred(C, p), p)
        check(g == (1,), "block factors are not coprime mod p")
        m = p
        while m < mod:
            m = min(m * m, mod)
            u, w = bezout_lift(fred(F, m), fred(C, m), u, w, m)
        _, eps = fdivmod(fmul(w, C, mod), f_mod, mod)
        out.append(K.element(eps))
    return out


def _other_blocks(blocks, j: int, mod: int) -> tuple[int, ...]:
    """C_j: the product mod `mod` of the block lifts other than the j-th.  Its
    degree is below deg f, and C_j(alpha) is a unit at the j-th prime above p
    and has high valuation at every other one."""
    C = (1,)
    for i, blk in enumerate(blocks):
        if i != j:
            C = fmul(C, blk, mod)
    return C


def _nearest_multiple_reduce(x: FieldElement, M: int) -> FieldElement:
    """Shift each coordinate by a multiple of M into [-M/2, M/2)."""
    coords = []
    for c in x.coords:
        k = math.floor(c / M + Fraction(1, 2))
        coords.append(c - k * M)
    return x.field.element(coords)


# ---------------------------------------------------------------------------
# weak approximation of prescribed valuations (one rational prime)
# ---------------------------------------------------------------------------


def weak_approx_value(K: NumberField, parts) -> FieldElement:
    """z in K^x with v_P(z) = v_P(z_i) for every P in S_i, all parts (S_i, z_i).

    All primes must be p-adic above one rational prime and the S_i pairwise
    disjoint.  Construction: z = (sum_j C_j(alpha) t_j^(a_j)) / p^M where C_j
    is the product of the other lifted block factors (a unit at P_j, nearly
    zero elsewhere), t_j the uniformizer, and a_j the shifted target; the sum
    is reduced coordinatewise to the nearest multiple of p^N and the result
    re-verified at every prescribed prime.
    """
    parts = [(list(S), z) for S, z in parts]
    if not parts:
        return K.one()
    for _, z in parts:
        if z.is_zero:
            raise ZeroElement("weak approximation targets must be nonzero")
    seen: dict[tuple, int] = {}
    targets: dict[int, int] = {}
    p = None
    for i, (S, z) in enumerate(parts):
        for P in S:
            if not isinstance(P, PValuation):
                raise Unsupported("weak approximation handles p-adic primes only")
            if p is None:
                p = P.p
            elif P.p != p:
                raise Unsupported("all primes must lie above one rational prime")
            key = (P.p, P.index)
            if key in seen and seen[key] != i:
                raise NonDisjoint(f"prime index {P.index} above {P.p} appears in two parts")
            seen[key] = i
            targets[P.index] = valuation(P, z)
    if p is None:
        return K.one()
    if len(parts) == 1:
        # the target itself satisfies every prescription of its own part
        return parts[0][1]

    primes = primes_above(K, p)
    # clear negative targets with a global p^M, then build with all shifted
    # targets nonnegative
    constrained = [(P, targets[P.index]) for P in primes if P.index in targets]
    M_shift = max([0] + [math.ceil(Fraction(-t, P.e)) for P, t in constrained])
    shifted = {P.index: t + M_shift * P.e for P, t in constrained}
    N = max(2, max(shifted.values()) + 1)

    blocks = [P.block(N) for P in primes]
    mod = p**N
    acc = K.zero()
    for P in primes:
        cj = K.element(_other_blocks(blocks, P.index, mod))
        acc = acc + cj * P.uniformizer ** shifted.get(P.index, 0)
    z = _nearest_multiple_reduce(acc, mod) * K.rational(Fraction(1, p**M_shift))

    for P in primes:
        if P.index in targets:
            check(valuation(P, z) == targets[P.index], "weak approximation self-check failed")
    return z


# ---------------------------------------------------------------------------
# the merge of local witnesses
# ---------------------------------------------------------------------------


def simultaneous_ball(
    K: NumberField,
    places: list,
    local_witnesses: list[FieldElement],
    g: KPoly,
    a: FieldElement,
    config: Config = DEFAULT,
) -> WitnessReport:
    """One x with 1 - g(x)^2 a^(-2) in O_P at every place P, merged from a
    local witness per place: the merge step of ud_witness.

    p-adic places are merged by CRT: x is pinned to the local witness modulo
    p^N for each rational prime p involved, with N deep enough for
    k = max(1, v_P(a)) and the witness denominators.  Orderings are then met
    by scanning translations x0 + M*m with m in the canonical height
    enumeration and M the combined p-adic modulus.  Each candidate gets one
    r, which every place tests with the strict defining check (|g(x)| < |a|
    at an ordering).  With a p-adic place a failed scan is rerun 8 levels
    deeper, up to four attempts of one more height_bound each; with orderings
    alone the candidates do not depend on the depth, so one scan decides.
    The checks computed on the witness found are the report's verified_at.
    """
    keys = set()
    for P in places:
        key = (P.p, P.index) if isinstance(P, PValuation) else ("inf", P.index)
        if key in keys:
            raise NonDisjoint("a place appears twice in the merge")
        keys.add(key)

    padic = [(P, xj) for P, xj in zip(places, local_witnesses) if isinstance(P, PValuation)]
    # congruence depth per rational prime before escalation: deep enough to
    # cover v_P(a) and the witness denominators
    base: dict[int, int] = {}
    for P, xj in padic:
        k = max(1, valuation(P, a))
        slack = max(0, -min(valuation(P2, xj) for P2 in primes_above(K, P.p)))
        base[P.p] = max(base.get(P.p, 0), math.ceil(Fraction(k + slack, P.e)) + 1)

    inv_a2 = a ** -2
    steps = 0
    for attempt in range(4 if padic else 1):
        x0 = K.zero()
        modulus = 1
        if padic:
            depth = {p: N + 8 * attempt for p, N in base.items()}
            per_p: dict[int, FieldElement] = {}
            for p, N in depth.items():
                eps = _block_idempotents(K, p, N)
                acc = K.zero()
                for P, xj in padic:
                    if P.p == p:
                        acc = acc + eps[P.index] * xj
                per_p[p] = acc
                modulus *= p**N
            for p, N in depth.items():
                other = modulus // p**N
                x0 = x0 + K.rational(other * pow(other, -1, p**N)) * per_p[p]
            x0 = _nearest_multiple_reduce(x0, modulus)

        for m in elements_by_height(K):
            if steps >= config.height_bound * (attempt + 1):
                break
            steps += 1
            den = math.lcm(*(c.denominator for c in m.coords))
            if math.gcd(den, modulus) != 1:
                continue
            x = x0 + K.rational(modulus) * m
            r = _defect(g, x, inv_a2)
            checks = []
            for P in places:
                ok, chk = _defining_check(P, r, True)
                if not ok:
                    break
                checks.append((P, chk))
            else:
                return WitnessReport(x, checks, {"bound": config.height_bound, "steps": steps})
    raise NoneWithinBound(
        f"no simultaneous witness within height bound {config.height_bound}"
    )


# ---------------------------------------------------------------------------
# UD over a finite prime set
# ---------------------------------------------------------------------------


def ud_witness(K: NumberField, S, g: KPoly, a: FieldElement, config: Config = DEFAULT) -> WitnessReport:
    """One x with 1 - g(x)^2 a^(-2) in O_P for every P in S admitting a root.

    Each place is decided by the search for its local witness, and the
    places where g has no root in the closure are dropped (S_g filter); an
    empty S_g is witnessed vacuously by 0, and a single place by its local
    witness.  Otherwise the local witnesses are merged by simultaneous_ball,
    whose checks on the merged witness are the report's verified_at.  At an
    ordering the local witnesses and the merge meet the strict condition
    |g(x)| < |a| (a strict local witness always exists since g vanishes at
    its root); at a p-adic place the condition is v(g(x)) >= v(a).  Both are
    the one defining check on r = 1 - g(x)^2 a^(-2).
    """
    if a.is_zero:
        raise ZeroElement("ud_witness needs a nonzero a")
    S_g, locals_ = [], []
    steps = 0
    for P in S:
        found = _local_witness(P, g, a, config, strict=True)
        if found is None:
            continue
        S_g.append(P)
        locals_.append(found[0])
        steps += found[1]

    if len(S_g) > 1:
        merged = simultaneous_ball(K, S_g, locals_, g, a, config)
        merged.search_stats["steps"] += steps
        return merged
    x = locals_[0] if S_g else K.zero()
    verified = []
    for P in S_g:
        ok, chk = _defining_check(P, _defect(g, x, a ** -2), True)
        check(ok, "local witness failed the defining membership")
        verified.append((P, chk))
    return WitnessReport(x, verified, {"bound": config.height_bound, "steps": steps})


# ---------------------------------------------------------------------------
# value-group axiom witnesses
# ---------------------------------------------------------------------------


def zgroup_witness(K: NumberField, p: int, tau, n: int, y: FieldElement):
    """(x_0, ..., x_{n-1}) with v_P(y^(e!) p^i x_i^n) >= 0 for every prime P of
    exact type tau above p, with equality for some i at each P.

    At each P the exponent e! v(y) + i e + n v(x_i) is minimized to its least
    nonnegative residue: v_P(x_i) is prescribed to ceil((-e! v(y) - i e)/n),
    which gives equality exactly at the index i with e! v(y) + i e = 0 mod n.
    Multi-prime prescriptions are realized through weak_approx_value.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if y.is_zero:
        raise ZeroElement("zgroup_witness needs a nonzero y")
    S = primes_of_type(K, p, tau, exact=True)
    if not S:
        return tuple(K.one() for _ in range(n))
    e = tau.e
    efact = math.factorial(e)
    vy = {P: valuation(P, y) for P in S}

    xs = []
    for i in range(n):
        parts = []
        for P in S:
            L = math.ceil(Fraction(-efact * vy[P] - i * e, n))
            parts.append(([P], P.uniformizer**L))
        xs.append(weak_approx_value(K, parts))

    t_p = K.rational(p)
    for P in S:
        vals = [valuation(P, y**efact * t_p**i * xs[i] ** n) for i in range(n)]
        check(all(v >= 0 for v in vals) and 0 in vals, "value-group witness self-check failed")
    return tuple(xs)
