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

Every search is deterministic and every returned witness is re-verified with
exact arithmetic before it leaves this module; a WitnessReport never contains
an unchecked claim.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .config import DEFAULT, Config
from .errors import (
    LocalWitnessInvalid,
    NonDisjoint,
    NoneWithinBound,
    NoRootInClosure,
    PrecisionOverflow,
    Unsupported,
    ZeroElement,
    check,
)
from .closure import has_root_in_closure, padic_root
from .ffield import bezout_lift, fdivmod, fext_gcd, fmul, fred
from .numberfield import (
    FieldElement,
    KPoly,
    NumberField,
    Ordering,
    elements_by_height,
    format_element,
)
from .primes import PValuation, primes_above, primes_of_type, valuation


def _val_str(v) -> str:
    return "inf" if v == math.inf else str(v)


class Ball:
    """An open ball at one prime: p-adic v(x-y) > v(z), ordering |x-y| < |z|.

    z is a radius *parameter*, not a radius: only v(z) (resp. |z|) matters.
    """

    __slots__ = ("prime", "center", "radius")

    def __init__(self, prime, center: FieldElement, radius: FieldElement):
        if radius.is_zero:
            raise ZeroElement("ball radius parameter must be nonzero")
        self.prime = prime
        self.center = center
        self.radius = radius

    def __repr__(self):
        return f"Ball({self.prime!r}, y={self.center!r}, z={self.radius!r})"


class WitnessReport:
    """Outcome of a witness search.

    witness     -- the found element, or None
    verified_at -- list of (prime, exact check value) pairs; every entry was
                   recomputed from scratch on the final witness
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


def _ball_check(ball: Ball, value: FieldElement):
    """(member?, exact check value) for value against the ball."""
    d = value - ball.center
    if isinstance(ball.prime, Ordering):
        s = ball.prime.sign(ball.radius * ball.radius - d * d)
        return s > 0, s
    dv = valuation(ball.prime, d)
    return dv > valuation(ball.prime, ball.radius), dv


# ---------------------------------------------------------------------------
# the defining membership 1 - g(x)^2 a^(-2) in O_P, checked exactly
# ---------------------------------------------------------------------------


def _defining_check(P, g: KPoly, a: FieldElement, x: FieldElement):
    """(holds?, check value) for 1 - g(x)^2/a^2 in the holomorphy ring at P.

    The check value is the valuation (p-adic) or the sign (ordering) of the
    quantity itself, so a report reader can re-derive the verdict.
    """
    gx = g(x)
    r = P.field.one() - gx * gx * (a ** -2)
    if isinstance(P, Ordering):
        s = P.sign(r)
        return s >= 0, s
    v = valuation(P, r)
    return v >= 0, v


# ---------------------------------------------------------------------------
# d_witness
# ---------------------------------------------------------------------------


def ordering_witness(P: Ordering, g: KPoly, a: FieldElement, cap: int, strict: bool):
    """Bisect toward a real root of squarefree(g) until |g(x)| <= |a|
    (strict < |a| when ``strict``).  Returns (x, steps).

    Deterministic rule: scan unit intervals [n, n+1] for n = 0, 1, -1, 2, -2,
    ... until one contains a root (an exact integer root returns immediately),
    then repeatedly halve, keeping the left half iff it still contains a root,
    testing the target inequality at each midpoint.  Termination: g -> 0
    along the shrinking bracket and a != 0.
    """
    K = P.field
    h = g.squarefree_part()
    aa = a * a
    want = (lambda s: s > 0) if strict else (lambda s: s >= 0)
    steps = 0

    def hits(x: Fraction) -> bool:
        gx = g(K.rational(x))
        return want(P.sign(aa - gx * gx))

    lo = hi = None
    n = 0
    while True:
        steps += 1
        if h(K.rational(n)).is_zero:
            # an exact root of h is a root of g, so |g| = 0 < |a| there
            return K.rational(n), steps
        if h.count_roots_in_ordering(P, Fraction(n), Fraction(n + 1)) > 0:
            lo, hi = Fraction(n), Fraction(n + 1)
            break
        n = -n if n > 0 else -n + 1
        if n > 10**6:
            raise PrecisionOverflow("no unit interval bracketing a real root was found")

    while steps < cap:
        steps += 1
        mid = (lo + hi) / 2
        if hits(mid):
            return K.rational(mid), steps
        if h.count_roots_in_ordering(P, lo, mid) > 0:
            hi = mid
        else:
            lo = mid
    raise PrecisionOverflow(f"ordering bisection did not converge within {cap} steps")


def d_witness(P, g: KPoly, a: FieldElement, config: Config = DEFAULT) -> WitnessReport:
    """x with v_P(g(x)) >= v_P(a) (p-adic) or |g(x)| <= |a| (ordering).

    Requires a root of g in the closure at P; the returned witness has the
    defining membership 1 - g(x)^2 a^(-2) in O_P re-verified exactly.
    """
    if a.is_zero:
        raise ZeroElement("d_witness needs a nonzero a")
    if not has_root_in_closure(P, g):
        raise NoRootInClosure(f"g has no root in the closure at {P!r}")

    if isinstance(P, Ordering):
        x, steps = ordering_witness(P, g, a, config.precision_cap, strict=False)
        bound = config.precision_cap
    else:
        k = max(1, valuation(P, a))
        x = padic_root(P, g, k, precision_cap=config.precision_cap)
        steps, bound = k, config.precision_cap

    ok, chk = _defining_check(P, g, a, x)
    check(ok, "witness failed the defining membership it was built for")
    return WitnessReport(x, [(P, chk)], {"bound": bound, "steps": steps})


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
# simultaneous ball approximation
# ---------------------------------------------------------------------------


def _gamma_eval(gamma, x: FieldElement):
    """gamma = None (identity) or (num, den) KPoly pair; None on zero den."""
    if gamma is None:
        return x
    num, den = gamma
    d = x.field.one() if den is None else den(x)
    if d.is_zero:
        return None
    return num(x) / d


def simultaneous_ball(
    K: NumberField,
    balls: list[Ball],
    local_witnesses: list[FieldElement],
    gammas=None,
    config: Config = DEFAULT,
) -> WitnessReport:
    """One x with gamma_j(x) inside every ball, given a verified local witness
    per prime.

    p-adic balls are merged by CRT (x is pinned to the local witness modulo a
    high power of each rational prime involved); ordering balls are then met
    by scanning translations x0 + M*m with m in the canonical height
    enumeration and M the combined p-adic modulus.  Every candidate is
    checked exactly; if the initial congruence depth is too shallow for a
    nonlinear gamma, the depth is escalated and the search rerun.
    """
    if gammas is None:
        gammas = [None] * len(balls)
    if len(balls) != len(local_witnesses) or len(balls) != len(gammas):
        raise ValueError("balls, local witnesses and gammas must align")
    if not balls:
        return WitnessReport(K.zero(), [], {"bound": config.height_bound, "steps": 0})

    keys = set()
    for b in balls:
        key = (b.prime.p, b.prime.index) if isinstance(b.prime, PValuation) else ("inf", b.prime.index)
        if key in keys:
            raise NonDisjoint("two balls at the same prime")
        keys.add(key)

    for b, xj, gamma in zip(balls, local_witnesses, gammas):
        val = _gamma_eval(gamma, xj)
        if val is None:
            raise LocalWitnessInvalid(f"gamma undefined at the local witness for {b.prime!r}")
        ok, chk = _ball_check(b, val)
        if not ok:
            raise LocalWitnessInvalid(f"local witness misses its ball at {b.prime!r} (check {chk})")

    padic = [(b, xj) for b, xj in zip(balls, local_witnesses) if isinstance(b.prime, PValuation)]
    steps = 0
    for attempt in range(4):
        # congruence depth per rational prime: deep enough to cover the radius
        # and the witness denominators, widened on each escalation
        depth: dict[int, int] = {}
        for b, xj in padic:
            P = b.prime
            k = max(1, valuation(P, b.radius) + 1)
            slack = max(0, -min(valuation(P2, xj) for P2 in primes_above(K, P.p)))
            need = math.ceil(Fraction(k + slack, P.e)) + 1 + 8 * attempt
            depth[P.p] = max(depth.get(P.p, 0), need)

        x0 = K.zero()
        modulus = 1
        if padic:
            per_p: dict[int, FieldElement] = {}
            for p, N in depth.items():
                eps = _block_idempotents(K, p, N)
                acc = K.zero()
                for b, xj in padic:
                    if b.prime.p == p:
                        acc = acc + eps[b.prime.index] * xj
                per_p[p] = acc
                modulus *= p**N
            for p, N in depth.items():
                other = modulus // p**N
                x0 = x0 + K.rational(other * pow(other, -1, p**N)) * per_p[p]
            x0 = _nearest_multiple_reduce(x0, modulus)

        found = None
        for m in elements_by_height(K):
            if steps >= config.height_bound * (attempt + 1):
                break
            steps += 1
            den = math.lcm(*(c.denominator for c in m.coords))
            if math.gcd(den, modulus) != 1:
                continue
            x = x0 + K.rational(modulus) * m
            checks = []
            for b, gamma in zip(balls, gammas):
                val = _gamma_eval(gamma, x)
                if val is None:
                    checks = None
                    break
                ok, chk = _ball_check(b, val)
                if not ok:
                    checks = None
                    break
                checks.append((b.prime, chk))
            if checks is not None:
                found = (x, checks)
                break
        if found is not None:
            x, checks = found
            return WitnessReport(x, checks, {"bound": config.height_bound, "steps": steps})
    raise NoneWithinBound(
        f"no simultaneous witness within height bound {config.height_bound}"
    )


# ---------------------------------------------------------------------------
# UD over a finite prime set
# ---------------------------------------------------------------------------


def ud_witness(K: NumberField, S, g: KPoly, a: FieldElement, config: Config = DEFAULT) -> WitnessReport:
    """One x with 1 - g(x)^2 a^(-2) in O_P for every P in S admitting a root.

    Primes of S where g has no root in the closure are dropped (S_g filter);
    an empty S_g is witnessed vacuously by 0.  Otherwise the per-prime
    d_witness solutions are merged through simultaneous_ball: the p-adic
    condition v(g(x)) >= v(a) is the ball |g(x)| < |a/t| at radius parameter
    a/t, and the ordering condition is relaxed to the strict ball |g(x)| < |a|
    (a strict local witness always exists since g vanishes at its root).
    """
    if a.is_zero:
        raise ZeroElement("ud_witness needs a nonzero a")
    S_g = [P for P in S if has_root_in_closure(P, g)]
    if not S_g:
        return WitnessReport(K.zero(), [], {"bound": config.height_bound, "steps": 0})

    balls, locals_, gammas = [], [], []
    total_steps = 0
    for P in S_g:
        if isinstance(P, Ordering):
            x_p, st = ordering_witness(P, g, a, config.precision_cap, strict=True)
            balls.append(Ball(P, K.zero(), a))
            total_steps += st
        else:
            rep = d_witness(P, g, a, config)
            x_p = rep.witness
            balls.append(Ball(P, K.zero(), a / P.uniformizer))
            total_steps += rep.search_stats["steps"]
        locals_.append(x_p)
        gammas.append((g, None))

    if len(S_g) == 1 and isinstance(S_g[0], PValuation):
        # single p-adic prime: the local witness already is the answer and is
        # the canonical one; skip the CRT detour
        merged = WitnessReport(locals_[0], [], {"bound": config.height_bound, "steps": 0})
    else:
        merged = simultaneous_ball(K, balls, locals_, gammas, config)
    x = merged.witness
    verified = []
    for P in S_g:
        ok, chk = _defining_check(P, g, a, x)
        check(ok, "merged witness failed the defining membership")
        verified.append((P, chk))
    return WitnessReport(
        x, verified, {"bound": config.height_bound, "steps": total_steps + merged.search_stats["steps"]}
    )


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
