"""Independent oracles used to pin expected values in tests.

These deliberately avoid the package's own algorithms: factorization and real
root counts come from sympy, p-adic root existence from an integer-only
residue-tree search with its own Hensel certificate, written against the
textbook statements rather than against the package code.  The reference
helpers at the end (a canonical F_p modulus, a multiplicative order) are
kept here for the tests that use them as referees; the package itself has no
use for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

import sympy
from sympy import Poly, Symbol

from prime_scope.errors import ZeroElement
from prime_scope.qpoly import QPoly, rationals_of_height

X = Symbol("x")


def sym_poly(coeffs_ascending):
    """sympy Poly from ascending rational coefficients."""
    expr = 0
    for k, c in enumerate(coeffs_ascending):
        c = Fraction(c)
        expr += sympy.Rational(c.numerator, c.denominator) * X**k
    return Poly(expr, X)


def oracle_factor_mod_p(coeffs_ascending, p):
    """[(ascending int coeffs, multiplicity)] for the monic factorization
    mod p, canonically sorted like the package output."""
    poly = Poly(sym_poly(coeffs_ascending).as_expr(), X, modulus=p, symmetric=False)
    _, factors = poly.factor_list()
    out = []
    for f, m in factors:
        cs = [int(c) % p for c in reversed(f.all_coeffs())]
        out.append((tuple(cs), int(m)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def oracle_resultant(f_ascending, g_ascending) -> Fraction:
    """Res(f, g) = lc(f)^(deg g) prod g(root of f), the Sylvester
    determinant, by sympy.resultant with the higher degree first: sympy 1.14
    returns Res(g, f) when deg f < deg g (resultant(x, x**3 + 1) is -1, the
    Sylvester determinant 1), and Res(f, g) = (-1)^(deg f deg g) Res(g, f)."""
    f, g = sym_poly(f_ascending), sym_poly(g_ascending)
    sign = 1
    if len(f_ascending) < len(g_ascending):
        f, g = g, f
        sign = -1 if (len(f_ascending) - 1) * (len(g_ascending) - 1) % 2 else 1
    r = sympy.resultant(f, g)
    return sign * Fraction(int(r.p), int(r.q))


def oracle_real_root_count(coeffs_ascending):
    return len(sym_poly(coeffs_ascending).real_roots())


def oracle_distinct_real_root_count(coeffs_ascending):
    """Distinct real roots, for coefficients that are rationals or exact
    sympy algebraic numbers such as sqrt(2)."""
    expr = sum(sympy.sympify(c) * X**k for k, c in enumerate(coeffs_ascending))
    return len(sympy.real_roots(Poly(expr, X, extension=True), multiple=False))


def oracle_real_roots(coeffs_ascending):
    """Sorted real roots as sympy numbers (exact algebraic objects)."""
    return sym_poly(coeffs_ascending).real_roots()


def oracle_is_irreducible_over_q(coeffs_ascending):
    factors = sym_poly(coeffs_ascending).factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("v_p(0)")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_frac(q: Fraction, p: int) -> int:
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def oracle_padic_root_exists(int_coeffs_ascending, p) -> bool:
    """Exact decision of 'g has a root in Z_p ... or Q_p' for monic g over Z,
    by a residue-tree search with Hensel certificates on the squarefree part
    (computed by sympy; a repeated root is a root of the squarefree part, and
    the raw Hensel inequality can never fire on a repeated factor).

    Monic + integer coefficients puts every p-adic root in Z_p, so the tree
    over residues mod p^k suffices.  A branch x mod p^k is:
      - certified (root exists) when v(g(x)) > 2 v(g'(x)),
      - pruned when v(g(x)) < k (no root can extend it),
      - otherwise split on the next digit.
    Every branch resolves by depth 2D+1 where D = v_p(disc g): at that depth a
    live branch with v(g'(x)) <= D certifies, and one with v(g'(x)) > D cannot
    contain a root (a root u within p^{2D+1} of x would force
    v(g'(u)) = v(g'(x)) > D, impossible since v(g'(u)) <= v_p(disc)).
    """
    g = sym_poly(int_coeffs_ascending)
    squarefree = 1
    for fac, _mult in sympy.factor_list(g.as_expr())[1]:
        squarefree *= fac
    g = Poly(sympy.expand(squarefree), X)
    if g.degree() == 0:
        return False
    lc = int(g.all_coeffs()[0])
    assert lc in (1, -1), "squarefree part of a monic integer poly is monic"
    if lc == -1:
        g = Poly(-g.as_expr(), X)
    dg = g.diff(X)
    disc = int(sympy.discriminant(g.as_expr(), X))
    assert disc != 0, "squarefree part must have nonzero discriminant"
    D = vp_int(disc, p)
    depth_cap = 2 * D + 1

    def geval(x):
        return int(g.as_expr().subs(X, x))

    def dgeval(x):
        return int(dg.as_expr().subs(X, x))

    frontier = [(0, 0)]  # (residue, level)
    while frontier:
        x, k = frontier.pop()
        for d in range(p):
            cand = x + d * p**k
            gv = geval(cand)
            if gv == 0:
                return True
            a = vp_int(gv, p)
            if a < k + 1:
                continue
            dgv = dgeval(cand)
            b = a if dgv == 0 else vp_int(dgv, p)
            if dgv != 0 and a > 2 * b:
                return True
            if k + 1 >= depth_cap:
                continue  # b > D here, provably rootless (see docstring)
            frontier.append((cand, k + 1))
    return False


def oracle_four_square_check(q, parts) -> bool:
    q = Fraction(q)
    return sum(Fraction(t) ** 2 for t in parts) == q and len(parts) <= 4


def oracle_dedekind_applies(int_coeffs_ascending, p) -> bool:
    """Dedekind's criterion in full, with sympy's factorization mod p:
    for fbar = prod tbar_i^{e_i}, lifts t_i with coefficients in [0, p) and
    F = (f - prod t_i^{e_i}) / p over Z, p does not divide [O_K : Z[alpha]]
    iff no tbar_i with e_i >= 2 divides Fbar (Cohen, GTM 138, 6.1.4, where
    gcd(gbar, fbar/gbar) is the product of those tbar_i)."""
    f = sym_poly(int_coeffs_ascending)
    G = Poly(1, X)
    lifts = []
    for coeffs, e in oracle_factor_mod_p(int_coeffs_ascending, p):
        t = sym_poly(coeffs)
        lifts.append((t, e))
        G *= t**e
    F = Poly((f - G).as_expr() / p, X)
    Fbar = Poly(F.as_expr(), X, modulus=p)
    return all(
        not Fbar.rem(Poly(t.as_expr(), X, modulus=p)).is_zero for t, e in lifts if e >= 2
    )


def irreducible_poly(p: int, d: int) -> QPoly:
    """The canonical monic irreducible of degree d over F_p: candidates are
    X^d + c_{d-1}X^{d-1} + ... + c_0 scanned with (c_{d-1},...,c_0) as an
    ascending base-p counter, first irreducible by sympy's test wins."""
    if not sympy.isprime(p):
        raise ValueError(f"not a rational prime: {p}")
    if d < 1:
        raise ValueError("degree must be positive")
    for k in range(p**d):
        tail = [k // p**i % p for i in range(d)]
        if Poly(list(reversed(tail + [1])), X, modulus=p).is_irreducible:
            return QPoly([Fraction(c) for c in tail + [1]])
    raise ValueError(f"no monic irreducible of degree {d} over F_{p}")


def ffield_order(x) -> int:
    """Multiplicative order of a finite-field element: the least divisor k
    of q - 1 with x^k = 1, tried in increasing order; ZeroElement on 0."""
    if x.is_zero:
        raise ZeroElement("order of zero requested")
    n = x.field.order - 1
    return next(k for k in range(1, n + 1) if n % k == 0 and x**k == x.field.one())


def monomial(c, k: int) -> QPoly:
    """c X^k."""
    return QPoly([0] * k + [Fraction(c)])


_CYCLO_CACHE: dict[int, QPoly] = {}


def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial, exact, by recursive division of X^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    xn1 = monomial(1, n) - QPoly.one()
    for d in range(1, n):
        if n % d == 0:
            xn1 = xn1.exact_div(cyclotomic(d))
    _CYCLO_CACHE[n] = xn1
    return xn1


def rationals_by_height():
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, ...: ordered by height
    max(|num|, den), then denominator, then |num|, positives first."""
    yield Fraction(0)
    for h in count(1):
        yield from rationals_of_height(h)


def sign_at(f: QPoly, x) -> int:
    """The sign of f at the rational x."""
    v = f(Fraction(x))
    return (v > 0) - (v < 0)
