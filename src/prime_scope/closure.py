"""Root existence in closures of (K, P), and p-adic root approximation.

For an ordering the question is a Sturm count under the embedding.  For a
p-valuation the decision runs a digit-tree search over residue representatives
with two exact certificates:

  accept   v(g(x)) = +inf (a root in K itself), or v(g(x)) > 2 v(g'(x))
           (Hensel-Rychlik: a unique root of the completion sits over x);
  reject   every branch dies.  A prefix x fixed mod t^m with v(g(x)) < m is
           dead: any extension y has v(g(y)) = v(g(x)) exactly, so y is never
           a root, and the accept inequality at y is already decided at x.

Depth never exceeds 2D+1 for D = v(disc of the squarefree part): a root z
forces v(g'(z)) <= D (the discriminant is a product of g'(root) values up to
sign), so a depth-(2D+1) prefix of z would show b <= D and fire the accept;
conversely a live depth-(2D+1) prefix with b > D cannot sit under any root.
Hence every branch resolves by depth 2D+1 and exhaustion is a proof.
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
)
from .numberfield import FieldElement, KPoly, Ordering, format_element, parse_element
from .primes import PValuation, Prime

# hard stop for pathological residue searches (visited-node budget)
SEARCH_NODE_CAP = 2_000_000


class RootReport:
    """Outcome of has_root_in_closure with a recomputable certificate."""

    def __init__(self, has_root: bool, certificate: dict):
        self.has_root = has_root
        self.certificate = certificate

    def __bool__(self):
        return self.has_root

    def to_json(self) -> dict:
        return {"has_root": self.has_root, "certificate": self.certificate}

    def __repr__(self):
        return f"RootReport({self.has_root}, {self.certificate})"


def _require_monic_nonconstant(g: KPoly) -> None:
    if g.degree < 1:
        raise NonMonic("polynomial must be nonconstant")
    if not g.is_monic:
        raise NonMonic("polynomial must be monic")


def _squarefree(g: KPoly) -> KPoly:
    h = g.squarefree_part()
    if h.degree < 1:
        raise ZeroDiscriminantUnhandled(
            "squarefree part degenerated to a constant"
        )
    return h


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
    _require_monic_nonconstant(g)
    if isinstance(P, Ordering):
        h = _squarefree(g)
        count = h.count_roots_in_ordering(P, None, None)
        return RootReport(count > 0, {"kind": "ordering", "sturm_count": count})
    h = _squarefree(g)
    H, shift = _integralize(P, h)
    disc = H.resultant(H.derivative())
    assert not disc.is_zero, "squarefree part has zero discriminant"
    D = P.valuation(disc)
    assert D >= 0 and D != math.inf
    depth_cap = 2 * D + 1

    K = g.field
    t = P.uniformizer
    dH = H.derivative()
    lifts = [P.lift_residue(r) for r in P.residue_field.elements()]
    budget = [SEARCH_NODE_CAP]

    def dfs(x: FieldElement, depth: int):
        budget[0] -= 1
        if budget[0] < 0:
            raise Unsupported(
                f"residue search exceeded {SEARCH_NODE_CAP} nodes"
            )
        a = P.valuation(H(x))
        b = P.valuation(dH(x))
        if a == math.inf or a > 2 * b:
            return {
                "kind": "hensel",
                "residue": format_element(x),
                "depth": depth,
                "vg": "inf" if a == math.inf else a,
                "vdg": "inf" if b == math.inf else b,
                "shift": shift,
            }
        if a < depth:
            return None  # dead branch: v(g) is frozen below target depth
        if depth >= depth_cap:
            return None  # b > D here, provably no root under this prefix
        tpow = t**depth
        for lift in lifts:
            got = dfs(x + lift * tpow, depth + 1)
            if got is not None:
                return got
        return None

    cert = dfs(K.zero(), 0)
    if cert is not None:
        return RootReport(True, cert)
    return RootReport(
        False,
        {
            "kind": "exhausted",
            "depth_cap": depth_cap,
            "disc_valuation": D,
            "shift": shift,
        },
    )


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
    (internally the target is pushed to k + v(g') to make that exact)."""
    _require_monic_nonconstant(g)
    if k > precision_cap:
        raise PrecisionOverflow(f"target valuation {k} above precision cap")
    report = has_root_in_closure(P, g)
    if not report.has_root:
        raise NoRoot("polynomial has no root in the closure at this prime")
    cert = report.certificate
    h = _squarefree(g)
    H, shift = _integralize(P, h)
    dH = H.derivative()
    # work on the integral model; translate the target accordingly, and
    # escalate if multiple factors of g eat into the achieved valuation
    extra = 0
    while True:
        target_H = max(k + shift * H.degree + extra, 1)
        x = parse_element(P.field, cert["residue"])
        if cert["vg"] != "inf":
            b = cert["vdg"]
            assert b != "inf"
            goal = target_H + b  # so the truncation agrees with the true root
            guard = 0
            while P.valuation(H(x)) < goal:
                x = x - H(x) / dH(x)
                guard += 1
                if guard > 64:
                    raise PrecisionOverflow("newton iteration failed to converge")
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
        h = _squarefree(g)
        count = h.count_roots_in_ordering(P, None, None)
        cert = report.certificate
        return (
            cert.get("kind") == "ordering"
            and cert.get("sturm_count") == count
            and report.has_root == (count > 0)
        )
    cert = report.certificate
    if cert.get("kind") == "hensel":
        h = _squarefree(g)
        H, shift = _integralize(P, h)
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
