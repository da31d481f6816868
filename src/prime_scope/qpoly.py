"""Dense univariate polynomials over a field, exact: QPoly over Q, whose
ring arithmetic numberfield's KPoly inherits over a number field or F_q.

Coefficients are stored lowest-degree-first with trailing zeros stripped; the
zero polynomial has an empty coefficient tuple and degree -1.  The ring
methods ask of a coefficient only + - * and truth for "nonzero"; the rest of
the coefficient ring enters through hooks that KPoly overrides (_new, _zero,
_one, _inverse, _coerce), never once per coefficient.  The methods for Q
alone (sign_at, isolate_real_roots, ...) are QPoly's too.  No floats anywhere.

One Euclidean loop, remainder_chain, serves both classes: the gcd,
squarefree part, resultant and signed remainder sequence read its chain, and
field inverses fold its quotients.  Over Q the Sturm counts of root
isolation and of numberfield's ordering signs run on integers instead:
integer_sturm_chain gives primitive integer pseudo-remainders, each a
positive multiple of the matching sturm_sequence element, and chain_signs
reads their signs at a rational point by integer Horner sums.  The rational
sturm_sequence serves KPoly, whose coefficients have no integer content.

One powering loop, power, serves every ring of the package: FieldElement,
QPoly and KPoly, MPoly, and the modular powers of ffield and localdata.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import FormulaSyntaxError, check

Q = Fraction


def power(x, k: int, one, mul: Callable = operator.mul):
    """x^k for k >= 0, and `one` for k = 0, by left-to-right binary powering
    (Knuth, TAOCP vol. 2, 4.6.3): a square per bit of k after the top one and
    a product by x per set bit among them, floor(log2 k) + popcount(k) - 1
    products in all, each made by mul (the ring's * unless a reduction has to
    follow it)."""
    if k < 0:
        raise ValueError("negative exponent")
    if not k:
        return one
    acc = x
    for bit in bin(k)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class QPoly:
    """Immutable polynomial over Q; numberfield.KPoly inherits its ring methods."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    # --- coefficient-ring hooks, overridden by numberfield.KPoly ------------
    def _new(self, coeffs) -> "QPoly":
        """A polynomial over the receiver's ring with these coefficients."""
        return QPoly(coeffs)

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    @staticmethod
    def _inverse(c):
        return Fraction(c.denominator, c.numerator)

    def _coerce(self, other):
        """other as a polynomial over the receiver's ring, or NotImplemented."""
        if type(other) is QPoly:
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.constant(other)
        return NotImplemented

    def _operand(self, other):
        """_coerce for the named methods: TypeError on an unsupported operand."""
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"unsupported operand for {type(self).__name__}: {other!r}")
        return o

    # --- basic queries ---------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else self._zero()

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self._one()

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({format_poly(self)!r})"

    # --- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._new(())
        out = [self._zero()] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self._new([self._one()]))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, b = other.degree, other.coeffs
        q = [self._zero()] * max(0, self.degree - d + 1)
        rem = list(self.coeffs)
        # 1/lc(other), formed at the first division step; a monic divisor
        # needs no inversion (compared with the ring's one: FFElem != 1)
        inv = None
        while len(rem) > d:
            if not rem[-1]:
                rem.pop()
                continue
            if inv is None:
                one = self._one()
                inv = one if b[-1] == one else self._inverse(b[-1])
            k = len(rem) - 1 - d
            f = rem[-1] * inv
            q[k] = f
            for i, c in enumerate(b):
                rem[k + i] -= f * c
            rem.pop()
        return self._new(q), self._new(rem)

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
        return self._new([i * c for i, c in enumerate(self.coeffs[1:], 1)])

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
        inv = self._inverse(self.lc)
        return self._new([c * inv for c in self.coeffs])

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
        return poly_gcd(self, self._operand(other))

    def squarefree_part(self) -> "QPoly":
        return poly_squarefree_part(self)

    def resultant(self, other: "QPoly") -> Fraction:
        return poly_resultant(self, self._operand(other))

    def discriminant(self) -> Fraction:
        n = self.degree
        if n < 1:
            raise ValueError("discriminant needs degree >= 1")
        res = self.resultant(self.derivative())
        s = -1 if (n * (n - 1) // 2) % 2 else 1
        return s * res / self.lc

    # --- real-root machinery -------------------------------------------------
    def sign_at(self, x) -> int:
        """The sign of self at the rational x, read on its primitive integer
        multiple."""
        return chain_signs([_primitive(self.coeffs)], x)[0]

    def root_bound(self) -> Fraction:
        """Cauchy bound: all real roots lie in (-B, B)."""
        if self.degree < 1:
            return Fraction(1)
        m = max(abs(c) for c in self.coeffs[:-1])
        return 1 + m / abs(self.lc)

    def isolate_real_roots(self) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals (lo, hi), each containing exactly one
        real root of self, sorted ascending; endpoints are never roots."""
        if self.degree < 1:
            return []
        chain = integer_sturm_chain(self, self.derivative())
        b = self.root_bound()
        lo, hi = -b, b
        # endpoints of the Cauchy box are never roots (strict bound)
        vlo, vhi = sign_changes(chain_signs(chain, lo)), sign_changes(chain_signs(chain, hi))
        out: list[tuple[Fraction, Fraction]] = []
        # bisection with an explicit stack, left half on top: the intervals
        # come out ascending however many halvings separate two roots; each
        # entry carries the variation counts at its ends
        stack = [(lo, hi, vlo, vhi)]
        while stack:
            lo, hi, vlo, vhi = stack.pop()
            n = vlo - vhi
            if n == 1:
                out.append((lo, hi))
            if n <= 1:
                continue
            mid = (lo + hi) / 2
            signs = chain_signs(chain, mid)
            while signs[0] == 0:
                mid = (lo + mid) / 2  # nudge off the root, stay inside
                signs = chain_signs(chain, mid)
            vmid = sign_changes(signs)
            stack.append((mid, hi, vmid, vhi))
            stack.append((lo, mid, vlo, vmid))
        return out


def remainder_chain(f, g):
    """The Euclidean remainder chain [f, g, f % g, ...] down to its last
    nonzero remainder, and the quotient of each division.  The one Euclidean
    loop over QPoly and numberfield's KPoly: gcd, resultant, Sturm sequence
    and field inverse read it."""
    rems, quots = [f, g], []
    while not rems[-1].is_zero:
        q, r = divmod(rems[-2], rems[-1])
        quots.append(q)
        rems.append(r)
    return rems[:-1], quots


def sturm_sequence(p, q):
    """The signed remainder sequence (-1)^(i // 2) r_i of the chain r_i of
    (p, q), as a % (-b) = a % b.  Between two non-roots a < b of p its sign
    variations drop by the Cauchy index of q/p on (a, b) (Basu, Pollack and
    Roy, Algorithms in Real Algebraic Geometry, ch. 2): for q = p' the number
    of distinct real roots of p there, with no squarefree step, and for a p
    with one simple root x there, sign(p'(x) q(x))."""
    return [-r if i % 4 > 1 else r for i, r in enumerate(remainder_chain(p, q)[0])]


def integer_sturm_chain(p: QPoly, q: QPoly) -> list[tuple[int, ...]]:
    """sturm_sequence(p, q) over Q, p nonzero, on integers: primitive integer
    polynomials, lowest degree first, each a positive rational multiple of
    the matching element of the sequence, so the two agree in sign at every
    point.  The first two are p and q made primitive; then R, the remainder
    of P_(i-1) by P_i pseudo-divided with |lc(P_i)|, is a positive multiple
    of P_(i-1) % P_i, and P_(i+1) = -R / content(R)."""
    chain = [_primitive(f.coeffs) for f in (p, q) if f.coeffs]
    while len(chain) > 1:
        a, b = chain[-2:]
        db, m = len(b) - 1, abs(b[-1])
        rem = list(a)
        while len(rem) > db:
            # rem <- m rem - t X^k b, with t = sign(lc b) times the top
            # coefficient, which the top term of b cancels
            t = rem.pop() if b[-1] > 0 else -rem.pop()
            if t:
                if m != 1:
                    rem = [m * c for c in rem]
                for i, v in enumerate(b[:-1], len(rem) - db):
                    rem[i] -= t * v
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        g = -gcd(*rem)
        chain.append(tuple(c // g for c in rem))
    return chain


def _primitive(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer multiple of a rational polynomial by a positive
    rational (the zero polynomial stays empty)."""
    L = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (L // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def chain_signs(chain: Sequence[Sequence[int]], x) -> list[int]:
    """The signs of integer polynomials at the rational x = a/b, b > 0, each
    from the Horner sum sum_i c_i a^i b^(n-i) = b^n P(a/b)."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    out = []
    for P in chain:
        v, bk = 0, 1
        for c in reversed(P):
            v = v * a + c * bk
            bk *= b
        out.append((v > 0) - (v < 0))
    return out


def poly_gcd(a, b):
    """Monic gcd, the chain's last remainder; zero when both inputs are zero."""
    return remainder_chain(a, b)[0][-1].monic()


def poly_squarefree_part(p):
    """p / gcd(p, p'), made monic: the product of the distinct irreducible
    factors of p, over a field of characteristic 0."""
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    q, r = divmod(p, g)
    check(r.is_zero, "gcd(p, p') does not divide p")
    return q.monic()


def poly_resultant(f, g):
    """Res(f, g) = lc(f)^{deg g} * prod g(root of f)."""
    return chain_resultant(remainder_chain(f, g)[0])


def chain_resultant(rems):
    """Res(r_0, r_1) read off their remainder chain r_0, ..., r_k by
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg(a % b)) Res(b, a % b),
    ending with Res(a, c) = c^(deg a) for a constant c (Cohen, GTM 138,
    3.3): a Fraction for QPoly, a field element for numberfield's KPoly."""
    if len(rems) < 2 or rems[0].is_zero or rems[-1].degree > 0:
        return rems[-1].coeff(-1)
    acc = rems[-1].lc ** rems[-2].degree
    for a, b, r in zip(rems, rems[1:], rems[2:]):
        acc = acc * b.lc ** (a.degree - r.degree)
        acc = -acc if a.degree * b.degree % 2 else acc
    return acc


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
            body = str(mag)
        elif mag == 1:
            body = "X" if k == 1 else f"X^{k}"
        else:
            body = f"{mag}*X" if k == 1 else f"{mag}*X^{k}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def rationals_of_height(h: int) -> list[Fraction]:
    """The rationals of height max(|num|, den) == h >= 1, by denominator,
    then |num|, positives first."""
    out = []
    for den in range(1, h + 1):
        # max(|num|, den) == h forces num == h while den < h
        nums = range(1, h + 1) if den == h else (h,)
        for num in nums:
            if gcd(num, den) == 1:
                out += (Fraction(num, den), Fraction(-num, den))
    return out


def rationals_by_height() -> Iterator[Fraction]:
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, ...: ordered by height
    max(|num|, den), then denominator, then |num|, positives first."""
    yield Fraction(0)
    for h in count(1):
        yield from rationals_of_height(h)
