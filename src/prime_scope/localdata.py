"""Local machinery at a finite prime: Dedekind's criterion, Hensel lifting of
the block factorization f = prod h_i^{e_i} to prime-power precision, and the
residue-field embedding data used by valuations and residue maps.

Everything here works on monic integer polynomials in the ``ffield`` kernel's
form (int tuples, lowest degree first) with coefficients reduced into [0, m).
All lifts carry exact congruence certificates; asserts reverify the defining
identities at each doubling step, so a lift that returns is correct by
construction.  The module has no polynomial arithmetic of its own: root
finding and evaluation over a residue field F_q run on numberfield's KPoly
with FFElem coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroElement
from .ffield import (
    FF,
    FFElem,
    bezout_lift,
    fadd,
    fdivmod,
    fext_gcd,
    fgcd,
    fmul,
    fred,
    fsub,
    ftrim,
    poly_factor_mod_p,
    reduce_qpoly_mod_p,
)
from .numberfield import KPoly
from .qpoly import QPoly


def _as_ints(f: QPoly) -> list[int]:
    out = []
    for c in f.coeffs:
        if c.denominator != 1:
            raise ValueError("integer polynomial expected")
        out.append(c.numerator)
    return out


# ---------------------------------------------------------------------------
# quadratic Hensel lifting of a coprime pair
# ---------------------------------------------------------------------------

def _hensel_pair_step(f, g, h, s, t, m: int, mm: int):
    """One quadratic step: from f = g*h and s*g + t*h = 1 (mod m) to the same
    identities mod mm, where m | mm | m^2; g, h stay monic of fixed degree and
    f is reduced mod mm.

    The correction terms live at low degree: writing e = f - g*h and
    s*e = q*h + r, the update (g + t*e + q*g, h + r) multiplies back to f
    modulo m^2 (hence mod mm) because s*g + t*h = 1 kills the cross terms;
    coefficients of the g-update above deg g cancel since the product is
    monic of degree deg f.  Capping at mm matters when f itself is only known
    to that precision, as happens for peeled cofactors."""
    e = fsub(f, fmul(g, h, mm), mm)
    assert all(c % m == 0 for c in e), "input factorization invalid"
    q, r = fdivmod(fmul(s, e, mm), h, mm)
    g2 = fadd(g, fadd(fmul(t, e, mm), fmul(q, g, mm), mm), mm)
    h2 = fadd(h, r, mm)
    assert len(g2) == len(g) and g2[-1] == 1, "factor lift lost monicity"
    assert len(h2) == len(h) and h2[-1] == 1
    assert not fsub(f, fmul(g2, h2, mm), mm), "factor lift broke product"
    s2, t2 = bezout_lift(g2, h2, s, t, mm)
    return g2, h2, s2, t2


def _lift_pair(f, gbar, hbar, p: int, N: int):
    """Lift the coprime factorization f = gbar*hbar (mod p) to mod p^N.
    Returns (G, H) monic integer polynomials with f = G*H (mod p^N)."""
    _, s, t = fext_gcd(gbar, hbar, p)
    g, h = gbar, hbar
    k = 1
    while k < N:
        k_next = min(2 * k, N)
        g, h, s, t = _hensel_pair_step(fred(f, p**k_next), g, h, s, t, p**k, p**k_next)
        k = k_next
    return g, h


def lift_block_factorization(f: QPoly, p: int, N: int):
    """Factor f mod p into prime-power blocks h_i^{e_i} and lift each block to
    an exact factor of f modulo p^N.

    Returns a list of (hbar_i, e_i, F_i), sorted by the canonical factor order
    (degree, then coefficients of hbar_i), where hbar_i is the mod-p
    irreducible (tuple over F_p), e_i its multiplicity, and F_i the block lift
    as an integer coefficient tuple with prod F_i = f (mod p^N)."""
    rem = fred(_as_ints(f), p**N)
    factors = poly_factor_mod_p(f, p)  # canonical order already
    blocks = []
    for hq, e in factors:
        hbar = reduce_qpoly_mod_p(hq, p)
        blk = hbar
        for _ in range(e - 1):
            blk = fmul(blk, hbar, p)
        blocks.append((hbar, e, blk))
    out = []
    for i, (hbar, e, blk) in enumerate(blocks):
        if i == len(blocks) - 1:
            out.append((hbar, e, rem))
            break
        cof = (1,)
        for other in blocks[i + 1 :]:
            cof = fmul(cof, other[2], p)
        G, rem = _lift_pair(rem, blk, cof, p, N)
        out.append((hbar, e, G))
    return out


# ---------------------------------------------------------------------------
# Dedekind's criterion
# ---------------------------------------------------------------------------

def dedekind_applies(f: QPoly, p: int) -> bool:
    """True when p does not divide [O_K : Z[alpha]] for K = Q[X]/(f).

    Criterion: with fbar = prod hbar_i^{e_i}, g = prod h_i (monic lifts),
    h = a monic lift of fbar/gbar, and T = (g*h - f)/p over Z, the reduction
    works iff gcd(Tbar, gbar, hbar/gbar-part) = 1 in F_p[X].  Concretely we
    test gcd(Tbar, gbar, fbar/gbar) = 1.  Tbar only needs g*h - f mod p^2,
    with g, h lifted by their coefficients in [0, p)."""
    f_ints = _as_ints(f)
    gbar = (1,)
    for hq, _e in poly_factor_mod_p(f, p):
        gbar = fmul(gbar, reduce_qpoly_mod_p(hq, p), p)
    hbar, r = fdivmod(fred(f_ints, p), gbar, p)
    assert not r
    T = fsub(fmul(gbar, hbar, p * p), fred(f_ints, p * p), p * p)
    assert all(c % p == 0 for c in T), "g*h != f mod p, factorization broken"
    Tbar = ftrim([c // p for c in T])
    return fgcd(fgcd(Tbar, gbar, p), hbar, p) == (1,)


# ---------------------------------------------------------------------------
# polynomial roots over a finite field (deterministic)
# ---------------------------------------------------------------------------

def ff_poly_roots(field: FF, coeffs: list[FFElem]) -> list[FFElem]:
    """All roots in `field` of a polynomial with FFElem coefficients, sorted
    by the canonical element key.  Deterministic: the splitting scan walks
    field elements in enumeration order rather than sampling."""
    h = KPoly(field, coeffs)
    if h.is_zero:
        raise ZeroElement("root set of the zero polynomial")
    one = KPoly(field, [field.one()])
    x = KPoly(field, [field.zero(), field.one()])

    def powmod(base: KPoly, k: int, mod: KPoly) -> KPoly:
        result, base = one, base % mod
        while k:
            if k & 1:
                result = result * base % mod
            base = base * base % mod
            k >>= 1
        return result

    # keep only the part splitting over this field
    q = field.order
    h = h.gcd(powmod(x, q, h) - x)
    roots: list[FFElem] = []

    def split(g: KPoly):
        # g is monic and squarefree, a product of distinct linear factors
        if g.degree == 0:
            return
        if g.degree == 1:
            roots.append(-g.coeffs[0])
            return
        for a in field.elements():
            if field.p == 2:
                # trace map splitter: T(a*Y) = sum of (a*Y)^(2^i), i < f
                if a.is_zero:
                    continue
                w, term = KPoly(field, []), (x * a) % g
                for _ in range(field.f):
                    w = w + term
                    term = term * term % g
            else:
                w = powmod(KPoly(field, [a, field.one()]), (q - 1) // 2, g) - one
            d = g.gcd(w)
            if 0 < d.degree < g.degree:
                split(d)
                split(divmod(g, d)[0])
                return
        raise AssertionError("root splitter exhausted the field")

    split(h)
    return sorted(roots, key=lambda r: r.key())


# ---------------------------------------------------------------------------
# residue embedding: F_p[X]/(hbar) -> FF(p, f), canonically
# ---------------------------------------------------------------------------

def _mat_inv_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    n = len(rows)
    a = [list(map(lambda v: v % p, row)) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] % p != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [(v * inv) % p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] % p:
                fac = a[r][col]
                a[r] = [(a[r][k] - fac * a[col][k]) % p for k in range(2 * n)]
    return [row[n:] for row in a]


class ResidueEmbedding:
    """Identification of F_p[X]/(hbar) with the canonical FF(p, f).

    rho is the least root of hbar in FF(p, f); classes of polynomials in X map
    by evaluation at rho.  The inverse matrix recovers, for a residue r, the
    digit vector (b_0..b_{f-1}) with r = sum b_l rho^l, which names the
    canonical lift sum b_l alpha^l of r."""

    def __init__(self, p: int, hbar: tuple[int, ...]):
        f = len(hbar) - 1
        self.p = p
        self.f = f
        self.field = FF(p, f)
        consts = [self.field.element([c]) for c in hbar]
        roots = ff_poly_roots(self.field, consts)
        assert len(roots) == f, "irreducible factor must split in its own field"
        self.rho = roots[0]
        self.rho_powers = [self.field.one()]
        for _ in range(1, f):
            self.rho_powers.append(self.rho_powers[-1] * self.rho)
        # columns are coords of rho^l; invert to map residues back to digits
        mat = [[self.rho_powers[l].coeffs[row] for l in range(f)] for row in range(f)]
        self.inv_mat = _mat_inv_mod_p(mat, p)

    def eval_poly(self, coeffs_mod_p: list[int]) -> FFElem:
        """Class of sum c_k X^k, evaluated at rho."""
        return KPoly(self.field, [self.field.element([c]) for c in coeffs_mod_p])(self.rho)

    def digits(self, r: FFElem) -> list[int]:
        """b with r = sum b_l rho^l, each b_l in [0, p)."""
        return [
            sum(self.inv_mat[i][j] * r.coeffs[j] for j in range(self.f)) % self.p
            for i in range(self.f)
        ]


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
