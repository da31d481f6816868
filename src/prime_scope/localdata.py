"""Local machinery at a finite prime: Dedekind's criterion, the block
factorization f = prod h_i^{e_i} mod p lifted to prime-power precision for
valuations and residue maps, and the one root finder over a finite field.

Everything here works on monic integer polynomials in the ``ffield`` kernel's
form (int tuples, lowest degree first) with coefficients reduced into [0, m).
The module has no polynomial arithmetic of its own: the blocks are lifted by
``ffield.hensel_lift``, whose self-checks reverify the defining identities at
each doubling step.  ``ff_poly_roots`` answers the closure search and the
no-short check over a residue field F_q = ffield.FF(p, hbar): a small F_p by
``ffield.fp_roots`` on the coefficient ints, any other on numberfield's KPoly
(QPoly's arithmetic with FFElem coefficients).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .errors import ZeroElement, check
from .ffield import (
    FF,
    FFElem,
    SCAN_LIMIT,
    fdivmod,
    fgcd,
    fmul,
    fp_roots,
    fred,
    fsub,
    ftrim,
    hensel_lift,
)
from .numberfield import KPoly
from .qpoly import QPoly, power


def _as_ints(f: QPoly) -> list[int]:
    out = []
    for c in f.coeffs:
        if c.denominator != 1:
            raise ValueError("integer polynomial expected")
        out.append(c.numerator)
    return out


def lift_block_factorization(f: QPoly, p: int, N: int, factors):
    """Lift the prime-power blocks h_i^{e_i} of the factorization of f mod p,
    given as its (hbar_i, e_i) pairs (hbar_i the mod-p irreducible as a tuple
    over F_p, e_i its multiplicity), each to an exact factor of f mod p^N.

    Returns a list of (hbar_i, e_i, F_i) in the order of `factors`, F_i the
    block lift as an integer coefficient tuple with prod F_i = f (mod p^N)."""
    blocks = []
    for hbar, e in factors:
        blk = (1,)
        for _ in range(e):
            blk = fmul(blk, hbar, p)
        blocks.append(blk)
    lifts = hensel_lift(_as_ints(f), blocks, p, N)
    return [(hbar, e, F) for (hbar, e), F in zip(factors, lifts)]


# ---------------------------------------------------------------------------
# Dedekind's criterion
# ---------------------------------------------------------------------------

def dedekind_applies(f: QPoly, p: int, factors) -> bool:
    """True when p does not divide [O_K : Z[alpha]] for K = Q[X]/(f), given
    the factorization fbar = prod hbar_i^{e_i} mod p as (hbar_i, e_i) pairs.

    When every e_i = 1, fbar is squarefree, so p does not divide disc(f) =
    [O_K : Z[alpha]]^2 * disc(O_K) and the answer is True with no work.

    Criterion: with g = prod h_i (monic lifts),
    h = a monic lift of fbar/gbar, and T = (g*h - f)/p over Z, the reduction
    works iff gcd(Tbar, gbar, hbar/gbar-part) = 1 in F_p[X].  Concretely we
    test gcd(Tbar, gbar, fbar/gbar) = 1.  Tbar only needs g*h - f mod p^2,
    with g, h lifted by their coefficients in [0, p)."""
    if all(e == 1 for _h, e in factors):
        return True
    f_ints = _as_ints(f)
    gbar = (1,)
    for h, _e in factors:
        gbar = fmul(gbar, h, p)
    hbar, r = fdivmod(fred(f_ints, p), gbar, p)
    check(not r, "product of the factors does not divide f mod p")
    T = fsub(fmul(gbar, hbar, p * p), fred(f_ints, p * p), p * p)
    check(all(c % p == 0 for c in T), "g*h != f mod p, factorization broken")
    Tbar = ftrim([c // p for c in T])
    return fgcd(fgcd(Tbar, gbar, p), hbar, p) == (1,)


# ---------------------------------------------------------------------------
# polynomial roots over a finite field (deterministic)
# ---------------------------------------------------------------------------

def ff_poly_roots(field: FF, coeffs: list[FFElem]) -> list[FFElem]:
    """All roots in `field` of a polynomial with FFElem coefficients, sorted
    by the canonical element key; the one root finder over F_q.  A field of
    order q <= SCAN_LIMIT is scanned in key order: F_p by ffield.fp_roots on
    the coefficient ints, F_q for f >= 2 by evaluation at each element.  A
    larger one is split deterministically, in memory independent of q: for
    odd p by the shifts a in key order, those outside F_p (keys p, ..., q-1)
    first, since for even f every element of F_p is a square in F_q and
    never separates two roots in F_p; for p = 2 by the trace of a Y for
    a = Y, ..., Y^(f-1), 1."""
    h, q = KPoly(field, coeffs), field.order
    if h.is_zero:
        raise ZeroElement("root set of the zero polynomial")
    if h.degree == 0:
        return []
    if q <= SCAN_LIMIT:
        if field.f == 1:
            return [field.element([r]) for r in fp_roots([c.coeffs[0] for c in h.coeffs], q)]
        return [r for r in field.elements() if not h(r)]
    one = KPoly(field, [field.one()])
    x = KPoly(field, [field.zero(), field.one()])

    def powmod(base: KPoly, k: int, mod: KPoly) -> KPoly:
        return power(base % mod, k, one, lambda a, b: a * b % mod)

    def proper_factor(g: KPoly) -> KPoly | None:
        # g is monic and squarefree, a product of at least two distinct
        # linear factors.  For p = 2, T(aY) separates roots r, s exactly when
        # T(a(r - s)) = 1; T is F_2-linear and onto, so a basis element does
        p = field.p
        keys = [2**i for i in range(1, field.f)] + [1] if p == 2 else chain(range(p, q), range(p))
        for k in keys:
            a = field.element(k // p**i for i in range(field.f))
            if p == 2:
                # trace map splitter: T(a*Y) = sum of (a*Y)^(2^i), i < f
                w, term = KPoly(field, []), (x * a) % g
                for _ in range(field.f):
                    w = w + term
                    term = term * term % g
            else:
                w = powmod(KPoly(field, [a, field.one()]), (q - 1) // 2, g) - one
            d = g.gcd(w)
            if 0 < d.degree < g.degree:
                return d
        return None

    roots: list[FFElem] = []
    # keep only the part splitting over this field
    work = [h.gcd(powmod(x, q, h) - x)]
    while work:
        g = work.pop()
        if g.degree == 1:
            roots.append(-g.coeffs[0])
        elif g.degree > 1:
            d = proper_factor(g)
            check(d is not None, "root splitter exhausted the field")
            work += [d, divmod(g, d)[0]]
    return sorted(roots, key=lambda r: r.key())


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ZeroElement("valuation of integer zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> int:
    if q == 0:
        raise ZeroElement("valuation of zero")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)
