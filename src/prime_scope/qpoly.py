"""Dense univariate polynomials over Q, exact.

Coefficients are Fractions stored lowest-degree-first with trailing zeros
stripped; the zero polynomial has an empty coefficient tuple and degree -1.
Everything here is exact: no floats anywhere.

The gcd, squarefree part, resultant and Sturm chain are module functions
written once over any polynomial type with QPoly's interface (degree, lc,
coeff, is_zero, monic, derivative, +, -, *, divmod); the QPoly methods and
numberfield's KPoly methods delegate to them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

from .errors import FormulaSyntaxError

Q = Fraction


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class QPoly:
    """Immutable polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QPoly is immutable")

    # --- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def constant(c) -> "QPoly":
        return QPoly((Fraction(c),))

    @staticmethod
    def monomial(c, k: int) -> "QPoly":
        return QPoly([0] * k + [Fraction(c)])

    # --- basic queries ---------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({format_poly(self)!r})"

    # --- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QPoly.zero()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result, base = QPoly.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lcd = other.degree, other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lcd
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return QPoly(q), QPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division was not exact")
        return q

    # --- calculus / evaluation -------------------------------------------
    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner.  Works for Fractions and anything with ring ops."""
        if not self.coeffs:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        acc = self.coeffs[-1] if isinstance(x, (int, Fraction)) else x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        l = self.lc
        return QPoly([c / l for c in self.coeffs])

    def scale_arg(self, s) -> "QPoly":
        """p(s*X)."""
        s = Fraction(s)
        out, f = [], Fraction(1)
        for c in self.coeffs:
            out.append(c * f)
            f *= s
        return QPoly(out)

    # --- gcd and friends ---------------------------------------------------
    def gcd(self, other: "QPoly") -> "QPoly":
        return poly_gcd(self, _coerce(other))

    def squarefree_part(self) -> "QPoly":
        return poly_squarefree_part(self)

    def resultant(self, other: "QPoly") -> Fraction:
        return poly_resultant(self, _coerce(other))

    def discriminant(self) -> Fraction:
        n = self.degree
        if n < 1:
            raise ValueError("discriminant needs degree >= 1")
        res = self.resultant(self.derivative())
        s = -1 if (n * (n - 1) // 2) % 2 else 1
        return s * res / self.lc

    # --- integer forms ------------------------------------------------------
    def content_and_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Write self = c * A with c in Q (>0 numerator sign of lc kept in A)
        and A a primitive integer coefficient vector."""
        if self.is_zero:
            return Fraction(0), ()
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        return Fraction(g, den), tuple(ints)

    # --- real-root machinery -------------------------------------------------
    def sign_at(self, x) -> int:
        v = self(Fraction(x))
        return (v > 0) - (v < 0)

    def root_bound(self) -> Fraction:
        """Cauchy bound: all real roots lie in (-B, B)."""
        if self.degree < 1:
            return Fraction(1)
        m = max(abs(c) for c in self.coeffs[:-1]) if self.degree else Fraction(0)
        return 1 + m / abs(self.lc)

    def count_real_roots_between(self, lo, hi, _seq=None) -> int:
        """Distinct real roots in (lo, hi]; endpoints must not be roots of the
        squarefree part for the usual clean reading, which callers arrange."""
        seq = _seq if _seq is not None else sturm_sequence(self)
        return _variations(seq, lo) - _variations(seq, hi)

    def count_real_roots(self) -> int:
        seq = sturm_sequence(self)
        return _variations_at_minus_inf(seq) - _variations_at_plus_inf(seq)

    def isolate_real_roots(self) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals (lo, hi), each containing exactly one
        real root of self, sorted ascending; endpoints are never roots."""
        p = self.squarefree_part()
        if p.degree < 1:
            return []
        seq = sturm_sequence(p)
        b = p.root_bound()
        lo, hi = -b, b
        # endpoints of the Cauchy box are never roots (strict bound)
        total = p.count_real_roots_between(lo, hi, _seq=seq)
        out: list[tuple[Fraction, Fraction]] = []

        def rec(lo: Fraction, hi: Fraction, n: int):
            if n == 0:
                return
            if n == 1:
                out.append((lo, hi))
                return
            mid = (lo + hi) / 2
            while p(mid) == 0:
                mid = (lo + mid) / 2  # nudge off the root, stay inside
            nl = p.count_real_roots_between(lo, mid, _seq=seq)
            rec(lo, mid, nl)
            rec(mid, hi, n - nl)

        rec(lo, hi, total)
        return out


def _coerce(v) -> "QPoly":
    if isinstance(v, QPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return QPoly.constant(v)
    return NotImplemented


def sturm_sequence(p):
    """Sturm chain of the squarefree part of p: p0, p0', then negated
    remainders.  Serves QPoly and numberfield's KPoly alike."""
    p0 = p.squarefree_part()
    seq = [p0, p0.derivative()]
    while not seq[-1].is_zero:
        seq.append(-(seq[-2] % seq[-1]))
    seq.pop()
    return seq


def poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm; zero when both inputs are zero."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_squarefree_part(p):
    """p / gcd(p, p'), made monic: the product of the distinct irreducible
    factors of p, over a field of characteristic 0."""
    if p.degree <= 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.monic()
    q, r = divmod(p, g)
    assert r.is_zero, "gcd(p, p') does not divide p"
    return q.monic()


def poly_resultant(f, g):
    """Res(f, g) = lc(f)^{deg g} * prod g(root of f), by the Euclidean
    remainder chain (Cohen, GTM 138, 3.3).  The value lies in the coefficient
    ring, whose zero is coeff(-1) and whose one is that zero to the power 0,
    so the code serves QPoly (a Fraction) and numberfield's KPoly (a field
    element) alike."""
    zero = f.coeff(-1)
    if f.is_zero or g.is_zero:
        return zero
    negate = False
    acc = zero**0
    while True:
        df, dg = f.degree, g.degree
        if df == 0 or dg == 0:
            acc = acc * (g.lc**df if dg == 0 else f.lc**dg)
            return -acc if negate else acc
        if df * dg % 2:
            negate = not negate
        if df < dg:
            f, g = g, f
            continue
        r = f % g
        if r.is_zero:
            return zero
        acc = acc * g.lc ** (df - r.degree)
        f, g = g, r


def _variations(seq: Sequence[QPoly], x) -> int:
    signs = [p.sign_at(x) for p in seq]
    return sign_changes(signs)


def _variations_at_plus_inf(seq) -> int:
    return sign_changes([(p.lc > 0) - (p.lc < 0) for p in seq])


def _variations_at_minus_inf(seq) -> int:
    signs = []
    for p in seq:
        s = (p.lc > 0) - (p.lc < 0)
        if p.degree % 2:
            s = -s
        signs.append(s)
    return sign_changes(signs)


def sign_changes(signs: list[int]) -> int:
    """Sign variations in a sequence of -1/0/1, zeros skipped."""
    prev, n = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            n += 1
        prev = s
    return n


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

_CYCLO_CACHE: dict[int, QPoly] = {}


def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial, exact, by recursive division of X^n - 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    xn1 = QPoly.monomial(1, n) - QPoly.one()
    for d in range(1, n):
        if n % d == 0:
            xn1 = xn1.exact_div(cyclotomic(d))
    _CYCLO_CACHE[n] = xn1
    return xn1


# ---------------------------------------------------------------------------
# text format: "c0 + c1*X + ... + ck*X^k", also accepts compact "X^2+1"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""^(?P<sign>[+-])?                     # optional sign
        (?P<coef>\d+(?:/\d+)?)?              # optional rational coefficient
        (?P<star>\*)?                        # optional *
        (?P<var>X)?                          # optional variable
        (?:\^(?P<exp>\d+))?$                 # optional exponent
    """,
    re.VERBOSE,
)


def parse_poly(text: str) -> QPoly:
    """Parse 'X^2+1', '1 + 2*X - 1/2*X^3', '-X', '7' and similar."""
    s = text.replace(" ", "")
    if not s:
        raise FormulaSyntaxError("empty polynomial text")
    # split into signed terms
    terms, cur = [], ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, Fraction] = {}
    for t in terms:
        if t in ("", "+", "-"):
            raise FormulaSyntaxError(f"dangling sign in {text!r}")
        m = _TERM_RE.match(t)
        if not m or (m.group("exp") and not m.group("var")):
            raise FormulaSyntaxError(f"bad term {t!r} in {text!r}")
        coef_s, var, exp_s = m.group("coef"), m.group("var"), m.group("exp")
        if coef_s is None and var is None:
            raise FormulaSyntaxError(f"bad term {t!r} in {text!r}")
        c = Fraction(coef_s) if coef_s is not None else Fraction(1)
        if m.group("sign") == "-":
            c = -c
        if var is None:
            if m.group("star"):
                raise FormulaSyntaxError(f"bad term {t!r} in {text!r}")
            k = 0
        else:
            k = int(exp_s) if exp_s else 1
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return QPoly(out)


def _fmt_q(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: QPoly) -> str:
    """Canonical ascending-degree rendering, zero terms omitted."""
    if p.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _fmt_q(mag)
        elif mag == 1:
            body = "X" if k == 1 else f"X^{k}"
        else:
            body = f"{_fmt_q(mag)}*X" if k == 1 else f"{_fmt_q(mag)}*X^{k}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def is_square_rational(q: Fraction) -> bool:
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def rationals_by_height() -> Iterator[Fraction]:
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, ...: ordered by height
    max(|num|, den), then denominator, then |num|, positives first."""
    yield Fraction(0)
    h = 1
    while True:
        for den in range(1, h + 1):
            # max(|num|, den) == h forces num == h while den < h
            nums = range(1, h + 1) if den == h else (h,)
            for num in nums:
                if gcd(num, den) != 1:
                    continue
                yield Fraction(num, den)
                yield Fraction(-num, den)
        h += 1
