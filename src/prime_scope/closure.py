"""Root existence in closures of (K, P), and p-adic root approximation.

For an ordering the question is a Sturm count under the embedding.  For a
p-valuation, one remainder chain of (g, g') gives the squarefree part h of g
and Res(h, h') (a second chain runs only when g has a repeated factor, on
h = g / gcd(g, g')); h is scaled to H with integral coefficients, and an
explicit-stack search follows the P-adic digits of the roots of H.  A node
fixes x modulo t^d (t the uniformizer, d the depth) and carries
G(Y) = H(x + t^d Y), whose coefficients c_i are integral with v(c_i) >= d i.

  accept   v(H(x)) = +inf (a root in K itself), or v(H(x)) > 2 v(H'(x))
           (Hensel-Rychlik: a unique root of the completion sits over x).
           Both valuations are read off G: v(H(x)) = v(c_0) and
           v(H'(x)) = v(c_1) - d.
  branch   a root y = x + t^d Y0 of H under x has Y0 integral and
           G(Y0) = 0, so for m the least v(c_i), Y0 mod P is a root of the
           reduction of G / t^m over the residue field.  Only those roots r
           become children: x + t^d lift(r) at depth d+1, carrying
           G(lift(r) + t Y).  When v(H(x)) < d the reduction is a nonzero
           constant and the branch dies, since every extension y of x has
           v(H(y)) = v(H(x)).
  reject   the stack empties: every branch died.

Depth never exceeds 2D+1 for D = v(disc H): a root z forces v(H'(z)) <= D
(the discriminant is a product of H'(root) values up to sign), so a
depth-(2D+1) prefix of z would show b <= D and fire the accept; conversely a
live depth-(2D+1) prefix with b > D cannot sit under any root.  Hence every
branch resolves by depth 2D+1 and exhaustion is a proof.

The search is small.  Over an algebraic closure, the multiplicity of r in
the reduction counts the roots Y of G (with multiplicity) with
v(Y - lift(r)) > 0, and the degree of the child's reduction counts those with
v(Y - lift(r)) >= 1, so it is no larger.  Hence at every depth the children's
reductions have degrees summing to at most deg H, there are at most deg H
nodes per depth, and at most deg H (2D+2) nodes in all.  The roots of each
reduction come from localdata.ff_poly_roots: a scan of k_P when q = #k_P is
small (ffield.fp_roots on integer coefficients when k_P = F_p), a split by
powers modulo the reduction, O(log q) products each, when q is large.
Children are visited in residue-key order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .config import DEFAULT
from .errors import (
    NonMonic,
    NoRoot,
    PrecisionOverflow,
    Unsupported,
    ZeroDiscriminantUnhandled,
    check,
)
from .localdata import ff_poly_roots
from .numberfield import FieldElement, KPoly, Ordering, format_element, parse_element
from .primes import PValuation, Prime
from .qpoly import chain_resultant, remainder_chain

# hard stop for pathological residue searches (visited-node budget)
SEARCH_NODE_CAP = 2_000_000


class RootReport:
    """Outcome of has_root_in_closure with a recomputable certificate."""

    __slots__ = ("has_root", "certificate")

    def __init__(self, has_root: bool, certificate: dict):
        self.has_root = has_root
        self.certificate = certificate

    def __bool__(self):
        return self.has_root

    def to_json(self) -> dict:
        return {"has_root": self.has_root, "certificate": self.certificate}

    def __repr__(self):
        return f"RootReport({self.has_root}, {self.certificate})"


def require_monic_nonconstant(g: KPoly) -> None:
    """NonMonic unless g is monic of degree >= 1, as every closure question
    asks, at a p-adic place or an ordering."""
    if g.degree < 1:
        raise NonMonic("polynomial must be nonconstant")
    if not g.is_monic:
        raise NonMonic("polynomial must be monic")


def _squarefree_chain(g: KPoly) -> tuple[KPoly, list[KPoly]]:
    """The squarefree part h of monic g and the remainder chain of (h, h'):
    g and its own chain when that ends in a constant, else a second chain,
    on h = g / gcd(g, g')."""
    rems = remainder_chain(g, g.derivative())[0]
    if rems[-1].degree == 0:
        return g, rems
    h, r = divmod(g, rems[-1])
    check(r.is_zero, "gcd(g, g') does not divide g")
    if h.degree < 1:
        raise ZeroDiscriminantUnhandled("squarefree part degenerated to a constant")
    h = h.monic()
    return h, remainder_chain(h, h.derivative())[0]


def _integralize(P: PValuation, h: KPoly) -> tuple[KPoly, int]:
    """Replace h by t^{kn} h(Y/t^k) with the least k >= 0 making every
    coefficient P-integral; roots scale by t^k, preserving existence."""
    n = h.degree
    k = 0
    for i, c in enumerate(h.coeffs):
        if c.is_zero or i == n:
            continue
        v = P.valuation(c)
        if v < 0:
            k = max(k, math.ceil(Fraction(-v, n - i)))
    if k == 0:
        return h, 0
    t = P.uniformizer
    scaled = [c * t ** (k * (n - i)) for i, c in enumerate(h.coeffs)]
    return KPoly(h.field, scaled), k


def has_root_in_closure(P: Prime, g: KPoly) -> RootReport:
    """Does monic g acquire a zero in the closure of (K, P)?"""
    require_monic_nonconstant(g)
    if isinstance(P, Ordering):
        count = g.count_roots_in_ordering(P)
        return RootReport(count > 0, {"kind": "ordering", "sturm_count": count})
    return _padic_search(P, g)[0]


def _padic_search(P: PValuation, g: KPoly) -> tuple[RootReport, KPoly, int]:
    """The p-adic decision for monic nonconstant g, with the integral
    squarefree model H of g and its shift, on which padic_root lifts.  H
    scales the roots of the squarefree part h by t^shift, which adds
    shift n(n-1) to v(Res(h, h')) to give D = v(Res(H, H'))."""
    h, rems = _squarefree_chain(g)
    H, shift = _integralize(P, h)
    disc = chain_resultant(rems)
    check(not disc.is_zero, "squarefree part has zero discriminant")
    D = P.valuation(disc) + shift * h.degree * (h.degree - 1)
    check(0 <= D < math.inf, f"discriminant of an integral model has v = {D}")
    depth_cap = 2 * D + 1
    cert = _root_search(P, H, depth_cap)
    if cert is None:
        cert = {"kind": "exhausted", "depth_cap": depth_cap, "disc_valuation": D}
    cert["shift"] = shift
    return RootReport(cert["kind"] == "hensel", cert), H, shift


def _root_search(P: PValuation, H: KPoly, depth_cap: int) -> dict | None:
    """The hensel certificate of the first accepting node, in depth-first
    order with children by residue key; None when the stack empties."""
    K = P.field
    k_P = P.residue_field
    t = P.uniformizer
    t_inv = None
    t_pows = [K.one()]
    t_inv_pows = [K.one()]
    lifts: dict[int, FieldElement] = {}

    def power(pows: list, base: FieldElement, k: int) -> FieldElement:
        while len(pows) <= k:
            pows.append(pows[-1] * base)
        return pows[k]

    # a node is (x, depth, G) with G(Y) = H(x + t^depth Y); children are
    # pushed as (parent x, parent depth, parent G, lift) and formed when
    # popped, so siblings after an accept are never built
    budget = SEARCH_NODE_CAP
    stack = [(K.zero(), 0, H, None)]
    while stack:
        x, depth, G, lift = stack.pop()
        if lift is not None:
            x, depth, G = x + lift * power(t_pows, t, depth), depth + 1, G.shift_scale(lift, t)
        budget -= 1
        if budget < 0:
            raise Unsupported(
                f"residue search exceeded SEARCH_NODE_CAP = {SEARCH_NODE_CAP} nodes"
            )
        c = G.coeffs
        a = P.valuation(c[0])
        v1 = P.valuation(c[1])
        b = v1 - depth
        if a == math.inf or a > 2 * b:
            return {
                "kind": "hensel",
                "residue": format_element(x),
                "depth": depth,
                "vg": "inf" if a == math.inf else a,
                "vdg": "inf" if b == math.inf else b,
            }
        if depth >= depth_cap:
            continue  # b > D here, provably no root under this prefix
        # v(c_i) >= depth * i, so c_i with depth * i > m vanishes mod t^(m+1)
        vals = [a, v1]
        m = min(a, v1)
        for i in range(2, len(c)):
            v = P.valuation(c[i]) if depth * i <= m else math.inf
            vals.append(v)
            m = min(m, v)
        if m:
            if t_inv is None:
                t_inv = t.inverse()
            scale = power(t_inv_pows, t_inv, m)
            c = [ci * scale if v == m else ci for ci, v in zip(c, vals)]
        reduction = [P.unit_residue(ci) if v == m else k_P.zero() for ci, v in zip(c, vals)]
        for r in reversed(ff_poly_roots(k_P, reduction)):
            key = r.key()
            if key not in lifts:
                lifts[key] = P.lift_residue(r)
            stack.append((x, depth, G, lifts[key]))
    return None


def _canonical_truncation(P: PValuation, x: FieldElement, k: int) -> FieldElement:
    """Digit expansion of x modulo t^k: sum of lift digits times powers of the
    uniformizer.  For Q above p this is the least integer in [0, p^k)."""
    K = P.field
    t = P.uniformizer
    t_inv = t.inverse()
    acc = K.zero()
    r = x
    tpow = K.one()
    for _ in range(k):
        d = P.lift_residue(P.residue(r))
        acc = acc + d * tpow
        r = (r - d) * t_inv
        tpow = tpow * t
    return acc


def padic_root(
    P: PValuation, g: KPoly, k: int, precision_cap: int = DEFAULT.precision_cap
) -> FieldElement:
    """x in K with v(g(x)) >= k, following the Hensel certificate of
    has_root_in_closure by Newton steps, then canonically truncated so that
    the digits of the answer are a prefix of the digits of the actual root
    (internally the target is pushed to k + v(g') to make that exact).

    The search runs first, so a g with no root raises NoRoot even when k is
    above precision_cap as well."""
    require_monic_nonconstant(g)
    report, H, shift = _padic_search(P, g)
    if not report.has_root:
        raise NoRoot("polynomial has no root in the closure at this prime")
    if k > precision_cap:
        raise PrecisionOverflow(f"target valuation {k} above precision cap")
    cert = report.certificate
    dH = H.derivative()
    # work on the integral model; translate the target accordingly, and
    # escalate if multiple factors of g eat into the achieved valuation
    extra = 0
    while True:
        target_H = max(k + shift * H.degree + extra, 1)
        x = parse_element(P.field, cert["residue"])
        if cert["vg"] != "inf":
            b = cert["vdg"]
            check(b != "inf", "hensel certificate with finite v(g) has v(g') = inf")
            goal = target_H + b  # so the truncation agrees with the true root
            guard = 0
            hx = H(x)
            while P.valuation(hx) < goal:
                x = x - hx / dH(x)
                guard += 1
                if guard > 64:
                    raise PrecisionOverflow("newton iteration failed to converge")
                hx = H(x)
        y = _canonical_truncation(P, x, target_H)
        if shift:
            y = y * P.uniformizer ** (-shift)
        # the declared contract is on g itself; check it exactly
        if P.valuation(g(y)) >= k:
            return y
        extra += max(k - int(P.valuation(g(y))), 1)
        if extra > 16 * max(k, 1) + 64:
            raise PrecisionOverflow("target valuation unreachable on g itself")


def verify_root_report(P: Prime, g: KPoly, report: RootReport) -> bool:
    """Recheck a RootReport certificate from scratch, without trusting the
    search that produced it.  Positive hensel certificates recompute both
    valuations; ordering certificates recount; exhaustion reruns the search."""
    if isinstance(P, Ordering):
        count = g.count_roots_in_ordering(P)
        cert = report.certificate
        return (
            cert.get("kind") == "ordering"
            and cert.get("sturm_count") == count
            and report.has_root == (count > 0)
        )
    cert = report.certificate
    if cert.get("kind") == "hensel":
        H, shift = _integralize(P, _squarefree_chain(g)[0])
        if shift != cert.get("shift"):
            return False
        x = parse_element(P.field, cert["residue"])
        a = P.valuation(H(x))
        b = P.valuation(H.derivative()(x))
        a_ok = (cert["vg"] == "inf" and a == math.inf) or a == cert["vg"]
        b_ok = (cert["vdg"] == "inf" and b == math.inf) or b == cert["vdg"]
        fires = a == math.inf or (b != math.inf and a > 2 * b)
        return bool(a_ok and b_ok and fires and report.has_root)
    if cert.get("kind") == "exhausted":
        fresh = has_root_in_closure(P, g)
        return (not report.has_root) and (not fresh.has_root) and (
            fresh.certificate == cert
        )
    return False
