"""Number fields Q[X]/(f), their elements, their orderings, and KPoly, the
polynomials over K or over a finite field F_q.

A field is created from a monic polynomial whose irreducibility is certified
(or refused) by an explicit pipeline; elements are coordinate vectors over the
power basis 1, a, ..., a^{n-1}.  Orderings correspond to the real roots of f,
carried as shrinking rational isolating intervals; every sign query is decided
exactly, floats never enter.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count, product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import (
    DivisionByZero,
    FormulaSyntaxError,
    NotMonic,
    Reducible,
    UncertifiedIrreducibility,
)
from .ffield import is_irreducible, is_prime, reduce_qpoly_mod_p
from .qpoly import (
    QPoly,
    format_poly,
    parse_poly,
    poly_gcd,
    poly_resultant,
    poly_squarefree_part,
    rationals_of_height,
    sign_changes,
    sturm_sequence,
)

# the primes certify_irreducible tries for a mod-p irreducibility certificate
_CERTIFICATE_PRIMES = tuple(p for p in range(1001) if is_prime(p))


# ---------------------------------------------------------------------------
# irreducibility certification
# ---------------------------------------------------------------------------

def _rational_roots(f: QPoly) -> list[Fraction]:
    """All rational roots of a monic integer-coefficient polynomial."""
    _, ints = f.content_and_primitive()
    if not ints:
        return []
    a0 = ints[0]
    if a0 == 0:
        return [Fraction(0)] + _rational_roots(QPoly(f.coeffs[1:]))
    out = []
    # monic integer polynomial: rational roots are integer divisors of a0
    d = 1
    divisors = set()
    while d * d <= abs(a0):
        if a0 % d == 0:
            divisors.update({d, -d, a0 // d, -(a0 // d)})
        d += 1
    for r in sorted(divisors, key=lambda v: (abs(v), v < 0)):
        if f(Fraction(r)) == 0:
            out.append(Fraction(r))
    return out


def _integer_monic_form(f: QPoly) -> tuple[QPoly, Fraction]:
    """For monic f over Q return (g, m) with g = m^n f(X/m) monic over Z.

    Irreducibility of g and f are equivalent (the substitution is invertible
    over Q)."""
    den = lcm(*(c.denominator for c in f.coeffs))
    if den == 1:
        return f, Fraction(1)
    m = Fraction(den)
    g = f.scale_arg(Fraction(1, m))  # f(X/m), lc = m^{-n}
    g = QPoly([c * m ** f.degree for c in g.coeffs])
    return g, m


def _mignotte_bound(f: QPoly) -> int:
    """Every coefficient of every monic factor of monic integer f is bounded
    by 2^n * (1 + sum |a_i|)."""
    s = sum(abs(c) for c in f.coeffs)
    return int(2 ** f.degree * (1 + s)) + 1


def _bounded_factor_search(f: QPoly, max_deg: int) -> QPoly | None:
    """Look for a monic integer factor of degree 2..max_deg by exhaustive
    coefficient enumeration under the Mignotte-style bound.  Returns a factor
    or None.  Only called for small degrees; the mod-p certificate almost
    always fires first."""
    _, ints = f.content_and_primitive()
    a0 = ints[0]  # nonzero: a rational root would have been caught already
    bound = _mignotte_bound(f)
    # small-|c| first so genuine factors surface quickly
    mids = [0]
    for c in range(1, bound + 1):
        mids.extend((c, -c))
    for d in range(2, max_deg + 1):
        # constant coefficient of a monic factor divides a0
        consts = set()
        k = 1
        while k * k <= abs(a0):
            if a0 % k == 0:
                consts.update({k, -k, a0 // k, -(a0 // k)})
            k += 1

        def rec(coeffs: list[int], left: int):
            if left == 0:
                cand = QPoly(coeffs + [1])
                q, r = divmod(f, cand)
                if r.is_zero and all(c.denominator == 1 for c in q.coeffs):
                    return cand
                return None
            for c in mids:
                got = rec(coeffs + [c], left - 1)
                if got is not None:
                    return got
            return None

        for c0 in sorted(consts, key=lambda v: (abs(v), v < 0)):
            got = rec([c0], d - 1)
            if got is not None:
                return got
    return None


def certify_irreducible(f: QPoly) -> None:
    """Raise Reducible (with a witness in the detail) or
    UncertifiedIrreducibility; return silently when certified irreducible.

    Pipeline: squarefree check, rational root theorem, mod-p irreducibility
    for p <= 1000, bounded integer factor search (complete through degree 7),
    then honest refusal.
    """
    n = f.degree
    if n == 1:
        return
    g = f.gcd(f.derivative())
    if g.degree >= 1:
        raise Reducible(f"repeated factor: {format_poly(g)}")
    fz, _m = _integer_monic_form(f)
    roots = _rational_roots(fz)
    if roots:
        # translate back through X -> m X to witness a factor of f itself
        r = roots[0] / _m
        cof = f.exact_div(QPoly((-r, 1)))
        raise Reducible(f"({format_poly(QPoly((-r, 1)))})({format_poly(cof)})")
    for p in _CERTIFICATE_PRIMES:
        red = reduce_qpoly_mod_p(fz, p)
        if len(red) - 1 != n:
            continue
        if is_irreducible(red, p):
            return
    if n <= 3:
        return  # no rational root and degree <= 3: irreducible
    if n <= 7:
        factor = _bounded_factor_search(fz, n // 2)
        if factor is None:
            return
        # map the witness back through the scaling substitution
        if _m != 1:
            factor = QPoly(
                [c / _m ** (factor.degree - k) for k, c in enumerate(factor.coeffs)]
            )
        raise Reducible(
            f"({format_poly(factor)})({format_poly(f.exact_div(factor))})"
        )
    raise UncertifiedIrreducibility(
        f"degree {n} polynomial passed no implemented certificate"
    )


# ---------------------------------------------------------------------------
# the field and its elements
# ---------------------------------------------------------------------------

class NumberField:
    """Q[X]/(f) for monic irreducible f.  Degree 1 gives Q itself."""

    def __init__(self, poly: QPoly):
        if not poly.is_monic:
            raise NotMonic(f"defining polynomial must be monic: {format_poly(poly)}")
        if poly.degree < 1:
            raise NotMonic("defining polynomial must have positive degree")
        certify_irreducible(poly)
        self.poly = poly
        self.degree = poly.degree
        self._orderings: list[Ordering] | None = None
        self._prime_cache: dict[int, tuple] = {}

    # --- element constructors ------------------------------------------
    def element(self, coords: Iterable) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            rem = QPoly(cs) % self.poly
            cs = list(rem.coeffs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs[: self.degree]))

    def zero(self) -> "FieldElement":
        return self.element([])

    def one(self) -> "FieldElement":
        return self.element([1])

    def gen(self) -> "FieldElement":
        """The class of X (for degree 1 this is the rational root of f)."""
        if self.degree == 1:
            return self.element([-self.poly.coeff(0)])
        return self.element([0, 1])

    def rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    # --- orderings -------------------------------------------------------
    def orderings(self) -> list["Ordering"]:
        if self._orderings is None:
            ivs = self.poly.isolate_real_roots()
            self._orderings = [
                Ordering(self, i, lo, hi) for i, (lo, hi) in enumerate(ivs)
            ]
        return self._orderings

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({format_poly(self.poly)})"


class FieldElement:
    """Coordinate vector over the power basis; exact arithmetic throughout."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # --- representations --------------------------------------------------
    def as_qpoly(self) -> QPoly:
        return QPoly(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def height(self) -> int:
        h = 1
        for c in self.coords:
            h = max(h, abs(c.numerator), c.denominator)
        return h

    # --- ring ops ----------------------------------------------------------
    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        raise TypeError(f"cannot coerce {other!r}")

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        prod = self.as_qpoly() * o.as_qpoly()
        return self.field.element(prod.coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        # extended euclid in Q[X]: s*g + t*f = 1 with g our representative
        g, f = self.as_qpoly(), self.field.poly
        r0, r1 = f, g
        s0, s1 = QPoly.zero(), QPoly.one()
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 is a nonzero constant gcd since f is irreducible and g != 0 mod f
        c = r0.coeff(0)
        inv = QPoly([x / c for x in s0.coeffs])
        return self.field.element(inv.coeffs)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result, base = self.field.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((self.field.poly.coeffs, self.coords))

    def norm(self) -> Fraction:
        """Field norm N(x) = prod of conjugates = Res(f, rep of x)."""
        if self.is_zero:
            return Fraction(0)
        return self.field.poly.resultant(self.as_qpoly())

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# element literals: "[c0, c1, ...]" with rational entries; bare rationals OK
# ---------------------------------------------------------------------------

RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def format_element(x: FieldElement) -> str:
    if x.is_rational():
        return str(x.coords[0])
    return "[" + ", ".join(map(str, x.coords)) + "]"


def parse_element(field: NumberField, text: str) -> FieldElement:
    s = text.strip()
    if RAT_RE.match(s):
        return field.rational(Fraction(s))
    if not (s.startswith("[") and s.endswith("]")):
        raise FormulaSyntaxError(f"bad element literal {text!r}")
    body = s[1:-1].strip()
    parts = [p.strip() for p in body.split(",")] if body else []
    for p in parts:
        if not RAT_RE.match(p):
            raise FormulaSyntaxError(f"bad coordinate {p!r} in {text!r}")
    if len(parts) > field.degree:
        raise FormulaSyntaxError(
            f"{len(parts)} coordinates for a degree-{field.degree} field"
        )
    return field.element([Fraction(p) for p in parts])


# ---------------------------------------------------------------------------
# orderings and exact sign computation
# ---------------------------------------------------------------------------

class Ordering:
    """An ordering of the field: the real embedding sending the generator to
    the unique root of f in (lo, hi).  The stored interval is immutable (it is
    the canonical isolating interval); sign queries refine a local copy, so an
    Ordering value never changes behind a caller's back.  Endpoints are never
    roots of f."""

    def __init__(self, field: NumberField, index: int, lo: Fraction, hi: Fraction):
        self.field = field
        self.index = index
        self._lo = lo
        self._hi = hi

    @property
    def kind(self) -> str:
        return "ordering"

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return (self._lo, self._hi)

    def sign(self, x: FieldElement) -> int:
        """Exact sign of x under this embedding: -1, 0, or 1."""
        if x.is_zero:
            return 0
        g = x.as_qpoly()
        if g.degree == 0:
            c = g.coeff(0)
            return 1 if c > 0 else -1
        if self.field.degree == 1:
            v = g(self.field.gen().as_fraction())
            return (v > 0) - (v < 0)
        # x = g(root); nonzero since f is irreducible and deg g < deg f.
        # shrink the interval until g has no root inside and no root at the
        # endpoints; then the sign is constant on the interval.
        seq = sturm_sequence(g)
        lo, hi = self._lo, self._hi
        while True:
            if g(lo) != 0 and g(hi) != 0:
                if g.count_real_roots_between(lo, hi, _seq=seq) == 0:
                    return g.sign_at(lo)
            lo, hi = _refine_once(self.field.poly, lo, hi)

    def to_json(self) -> dict:
        lo, hi = self.interval
        return {
            "kind": "ordering",
            "index": self.index,
            "interval": [str(lo), str(hi)],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Ordering)
            and self.field == other.field
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.field.poly.coeffs, "ordering", self.index))

    def __repr__(self):
        lo, hi = self.interval
        return f"Ordering#{self.index}({lo},{hi})"


def _refine_once(f: QPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve an isolating interval of f, keeping the root strictly inside."""
    mid = (lo + hi) / 2
    while f(mid) == 0:
        mid = (lo + mid) / 2
    if f.sign_at(lo) * f.sign_at(mid) < 0:
        return lo, mid
    return mid, hi


def nf_create(poly: QPoly | str) -> NumberField:
    if isinstance(poly, str):
        poly = parse_poly(poly)
    return NumberField(poly)


def real_embeddings(field: NumberField) -> list[Ordering]:
    return field.orderings()


def sign_at(ordering: Ordering, x: FieldElement) -> int:
    return ordering.sign(x)


# ---------------------------------------------------------------------------
# polynomials over a number field
# ---------------------------------------------------------------------------

class KPoly:
    """Dense polynomial over a field, lowest degree first: over a NumberField
    K with FieldElement coefficients, or over a finite field ffield.FF with
    FFElem coefficients.  The arithmetic needs only the field's zero() and
    one() and its elements' + - *, inverse() and is_zero; the ordering,
    derivative and rational-evaluation methods are for K."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Sequence):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def from_qpoly(field: NumberField, p: QPoly) -> "KPoly":
        return KPoly(field, [field.rational(c) for c in p.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> FieldElement:
        return self.coeffs[-1] if self.coeffs else self.field.zero()

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def coeff(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def __eq__(self, other):
        return (
            isinstance(other, KPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return KPoly(self.field, out)

    def __neg__(self):
        return KPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, KPoly):
            return KPoly(self.field, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return KPoly(self.field, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca.is_zero:
                continue
            for j, cb in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ca * cb
        return KPoly(self.field, out)

    def __divmod__(self, other: "KPoly"):
        if other.is_zero:
            raise ZeroDivisionError
        q = [self.field.zero()] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        inv_lc = other.lc.inverse()
        while len(rem) - 1 >= d:
            if rem[-1].is_zero:
                rem.pop()
                continue
            k = len(rem) - 1 - d
            f = rem[-1] * inv_lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * c
            rem.pop()
        return KPoly(self.field, q), KPoly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "KPoly":
        if self.is_zero:
            return self
        inv = self.lc.inverse()
        return KPoly(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other: "KPoly") -> "KPoly":
        return poly_gcd(self, other)

    def derivative(self) -> "KPoly":
        return KPoly(
            self.field, [c * k for k, c in enumerate(self.coeffs)][1:]
        )

    def squarefree_part(self) -> "KPoly":
        return poly_squarefree_part(self)

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def resultant(self, other: "KPoly") -> FieldElement:
        return poly_resultant(self, other)

    def eval_fraction(self, q) -> FieldElement:
        return self(self.field.rational(q))

    def shift_scale(self, a: FieldElement, s: FieldElement) -> "KPoly":
        """p(a + s*X)."""
        K = self.field
        acc = KPoly(K, [])
        lin = KPoly(K, [a, s])
        for c in reversed(self.coeffs):
            acc = acc * lin + KPoly(K, [c])
        return acc

    # --- real-root counting relative to an ordering ------------------------
    def count_roots_in_ordering(
        self, P: Ordering, lo: Fraction | None, hi: Fraction | None
    ) -> int:
        """Distinct roots (in the real closure at P) in (lo, hi]; None means
        the corresponding infinity."""
        seq = sturm_sequence(self)

        def var_at(x: Fraction | None, plus: bool) -> int:
            signs = []
            for p in seq:
                if x is None:
                    s = P.sign(p.lc)
                    if not plus and p.degree % 2:
                        s = -s
                else:
                    s = P.sign(p.eval_fraction(x))
                signs.append(s)
            return sign_changes(signs)

        return var_at(lo, plus=False if lo is None else True) - var_at(
            hi, plus=True if hi is None else True
        )

    def has_root_in_ordering(self, P: Ordering) -> bool:
        return self.count_roots_in_ordering(P, None, None) > 0

    def __repr__(self):
        return f"KPoly([{', '.join(map(repr, self.coeffs))}])"


# ---------------------------------------------------------------------------
# canonical element enumeration
# ---------------------------------------------------------------------------

def elements_by_height(field: NumberField, include_zero: bool = True) -> Iterator[FieldElement]:
    """All field elements: blocks of increasing max-coordinate-height, inside
    a block lexicographic in the canonical rational order per coordinate.
    For degree 1 this is exactly the rational enumeration."""
    n = field.degree
    if include_zero:
        yield field.zero()
    ladder: list[Fraction] = [Fraction(0)]
    for h in count(1):
        new = rationals_of_height(h)
        old_len = len(ladder)
        ladder += new
        # vectors of height exactly h: the last coordinate is new unless an
        # earlier one already is
        for head in product(range(len(ladder)), repeat=n - 1):
            prefix = [ladder[j] for j in head]
            tail = ladder if head and max(head) >= old_len else new
            for q in tail:
                yield field.element(prefix + [q])
