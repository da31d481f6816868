"""Number fields Q[X]/(f), their elements, their orderings, and KPoly, the
polynomials over K or over a finite field F_q: a qpoly.QPoly subclass that
runs QPoly's ring arithmetic on FieldElement or FFElem coefficients.

A field is created from a monic polynomial whose irreducibility over Q is
decided for every degree, by factoring mod small primes and recombining
Hensel lifts (a reducible polynomial is refused with a factor as witness);
elements are coordinate vectors over the power basis 1, a, ..., a^{n-1}
(over Q, degree 1, products and inverses are taken on the one Fraction
coordinate), and square_root decides exactly whether one is a square in K.
Orderings correspond to the real roots of f, each carried as a fixed rational
isolating interval; every sign query is one exact Cauchy-index count on that
interval, and floats never enter.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, product
from math import isqrt, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DivisionByZero, FormulaSyntaxError, NotMonic, Reducible, check
from .ffield import (
    FFElem,
    factor_fpoly,
    fadd,
    fmul,
    fneg,
    fred,
    fscale,
    hensel_lift,
    is_prime,
    reduce_qpoly_mod_p,
)
from .qpoly import (
    QPoly,
    chain_signs,
    format_poly,
    integer_sturm_chain,
    parse_poly,
    power,
    rationals_of_height,
    remainder_chain,
    sign_changes,
    sturm_sequence,
)

# the number of good primes (f squarefree mod p) certify_irreducible factors
# at before it recombines the lifts from the one with the fewest factors
_GOOD_PRIMES = 5


# ---------------------------------------------------------------------------
# irreducibility certification
# ---------------------------------------------------------------------------

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


def certify_irreducible(f: QPoly) -> None:
    """Raise Reducible (with a witness in the detail) or return silently when
    f is irreducible over Q; complete for every degree.

    The integral monic form fz of f is factored mod the primes p = 2, 3,
    5, ... at which it stays squarefree; one irreducible reduction proves fz
    irreducible.  Otherwise the factors mod the good prime with the fewest of
    them, among the first _GOOD_PRIMES, are Hensel-lifted to p^N > 2 *
    (Mignotte bound), so every monic integer factor of fz is, in symmetric
    residues, the product of a subset of the lifts; the subsets of at most
    half of them are tried by exact division (Zassenhaus; Cohen, GTM 138,
    section 3.5).

    A squarefree reduction mod any p already proves f squarefree over Q (a
    repeated factor of f stays one of fz mod every p), so the rational
    gcd(f, f') runs only after _GOOD_PRIMES reductions with repeated factors:
    it either raises Reducible or shows that only the finitely many p | disc
    are left to skip.
    """
    if f.degree == 1:
        return
    fz, m = _integer_monic_form(f)
    candidates, repeated = [], 0
    for p in filter(is_prime, count(2)):
        factors = factor_fpoly(reduce_qpoly_mod_p(fz, p), p)
        if any(e > 1 for _, e in factors):
            repeated += 1
            if repeated == _GOOD_PRIMES:
                g = f.gcd(f.derivative())
                if g.degree >= 1:
                    raise Reducible(f"repeated factor: {format_poly(g)}")
            continue
        if len(factors) == 1:
            return
        candidates.append((len(factors), p, [h for h, _ in factors]))
        if len(candidates) == _GOOD_PRIMES:
            break
    _, p, factors = min(candidates)
    bound, N = 2 * _mignotte_bound(fz), 1
    while p**N <= bound:
        N += 1
    M = p**N
    a0 = fz.coeffs[0].numerator
    lifts = hensel_lift([c.numerator for c in fz.coeffs], factors, p, N)
    for k in range(1, len(lifts) // 2 + 1):
        for subset in combinations(lifts, k):
            # the constant term of a factor divides a0: a cheap first test
            b0 = 1
            for h in subset:
                b0 = b0 * h[0] % M
            b0 = b0 - M if 2 * b0 > M else b0
            if a0 and (b0 == 0 or a0 % b0):
                continue
            prod = (1,)
            for h in subset:
                prod = fmul(prod, h, M)
            factor = QPoly([c - M if 2 * c > M else c for c in prod])
            if divmod(fz, factor)[1].is_zero:
                # map the witness back through X -> m X
                d = factor.degree
                factor = QPoly([c / m ** (d - i) for i, c in enumerate(factor.coeffs)])
                raise Reducible(
                    f"({format_poly(factor)})({format_poly(f.exact_div(factor))})"
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
        self._split_primes: list[tuple[int, list[int]]] = []

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
        if self.degree == 1:
            return FieldElement(self, (Fraction(q),))
        return self.element([Fraction(q)])

    @cached_property
    def _integral_model(self) -> tuple[tuple[int, ...], int, int, int]:
        """(F, m, disc, B): F = m^n f(X/m) monic over Z as integer
        coefficients, lowest first, so b = m*a is an algebraic integer with
        K = Q(b); disc = |disc(F)|, and every complex root of F has absolute
        value below the Cauchy bound B = 1 + max |F_i| (i < n)."""
        fz, m = _integer_monic_form(self.poly)
        F = tuple(c.numerator for c in fz.coeffs)
        disc = abs(fz.discriminant().numerator)
        return F, m.numerator, disc, 1 + max(abs(c) for c in F[:-1])

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

    def __bool__(self):
        return any(self.coords)

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
        """other in this field; NotImplemented for another type (KPoly's turn)."""
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.field.degree == 1:  # Q computes on its rational coordinate
            return FieldElement(self.field, (self.coords[0] * o.coords[0],))
        prod = self.as_qpoly() * o.as_qpoly()
        return self.field.element(prod.coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        if self.field.degree == 1:
            return FieldElement(self.field, (1 / self.coords[0],))
        # the chain of f and our representative g ends in a constant c, as f
        # is irreducible; s_(i+1) = s_(i-1) - q_i s_i from s_0 = 0, s_1 = 1
        # folds its quotients into the Bezout cofactor, s_k g = c mod f
        rems, quots = remainder_chain(self.field.poly, self.as_qpoly())
        s0, s1 = QPoly.zero(), QPoly.one()
        for q in quots[:-1]:
            s0, s1 = s1, s0 - q * s1
        c = rems[-1].coeff(0)
        return self.field.element([x / c for x in s1.coeffs])

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.field.one())

    def __eq__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.coords == o.coords

    def __hash__(self):
        return hash((self.field.poly.coeffs, self.coords))

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
    the canonical isolating interval), and sign queries only read it.
    Endpoints are never roots of f."""

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
        """Exact sign of x under this embedding: -1, 0, or 1.

        x = g(alpha) with g != 0 mod f, as f is irreducible and deg g < deg f.
        The Cauchy index of g/f on (lo, hi), a count on the signed remainder
        sequence of (f, g), read on its integer form, is
        sign(f'(alpha) g(alpha)) = +-1 for the one root alpha of f there,
        and f'(alpha) has the sign of f(hi)."""
        if x.is_zero:
            return 0
        g = x.as_qpoly()
        if g.degree == 0:
            c = g.coeff(0)
            return 1 if c > 0 else -1
        chain = integer_sturm_chain(self.field.poly, g)
        at_hi = chain_signs(chain, self._hi)
        index = sign_changes(chain_signs(chain, self._lo)) - sign_changes(at_hi)
        check(abs(index) == 1, "Cauchy index on an isolating interval is not +-1")
        return index * at_hi[0]

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


def nf_create(poly: QPoly | str) -> NumberField:
    if isinstance(poly, str):
        poly = parse_poly(poly)
    return NumberField(poly)


# ---------------------------------------------------------------------------
# polynomials over a number field
# ---------------------------------------------------------------------------

class KPoly(QPoly):
    """Dense polynomial over a field other than Q, lowest degree first: over
    a NumberField K with FieldElement coefficients, or over a finite field
    ffield.FF with FFElem coefficients.  The ring arithmetic is QPoly's, run
    through the hooks below; an operand is a KPoly over an equal field or an
    element of that field, and KPolys over different fields compare unequal.
    Evaluation, shift_scale and the root count at an ordering are for K.
    Unhashable."""

    __slots__ = ("field",)
    __hash__ = None

    def __init__(self, field, coeffs: Sequence):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def from_qpoly(field: NumberField, p: QPoly) -> "KPoly":
        return KPoly(field, [field.rational(c) for c in p.coeffs])

    # --- coefficient-ring hooks of QPoly's arithmetic ----------------------
    def _new(self, coeffs) -> "KPoly":
        return KPoly(self.field, coeffs)

    def _zero(self):
        return self.field.zero()

    def _one(self):
        return self.field.one()

    @staticmethod
    def _inverse(c):
        return c.inverse()

    def _coerce(self, other):
        if isinstance(other, (FieldElement, FFElem)):
            other = KPoly(other.field, [other])
        if isinstance(other, KPoly) and (other.field is self.field or other.field == self.field):
            return other
        return NotImplemented

    def __call__(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_scale(self, a: FieldElement, s: FieldElement) -> "KPoly":
        """p(a + s*X)."""
        acc, lin = self._new([]), self._new([a, s])
        for c in reversed(self.coeffs):
            acc = acc * lin + c
        return acc

    # --- real-root counting relative to an ordering ------------------------
    def count_roots_in_ordering(self, P: Ordering) -> int:
        """Distinct roots in the real closure at P."""
        at = sturm_variations(P, self)
        return at(None, -1) - at(None, 1)

    def __repr__(self):
        return f"KPoly([{', '.join(map(repr, self.coeffs))}])"


def sturm_variations(P: Ordering, g: KPoly) -> Callable[..., int]:
    """at(x, side=1): the sign variations under P of the signed remainder
    sequence of (g, g') at the rational x, or at side * infinity when x is
    None.  The sequence is built once, here, and read at every point.

    For a < b not roots of g, at(a) - at(b) counts the distinct roots of g
    in (a, b) in the real closure at P (qpoly.sturm_sequence: g need not be
    squarefree); at a simple root b the count takes in b, and at a repeated
    root every element vanishes, so at(b) = 0 < at(a)."""
    seq = sturm_sequence(g, g.derivative())

    def at(x: Fraction | None, side: int = 1) -> int:
        if x is None:  # at -infinity an odd degree flips the sign
            return sign_changes([P.sign(p.lc) * (side if p.degree % 2 else 1) for p in seq])
        y = P.field.rational(x)
        return sign_changes([P.sign(p(y)) for p in seq])

    return at


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


# ---------------------------------------------------------------------------
# exact square roots
# ---------------------------------------------------------------------------

def _split_primes(K: NumberField) -> Iterator[tuple[int, list[int]]]:
    """Odd primes l prime to disc at which the integral model F of K splits
    into distinct linear factors, each with the roots of F mod l, in
    increasing order of l; memoised on K."""
    F, _, disc, _ = K._integral_model
    known = K._split_primes
    yield from known
    for l in filter(is_prime, count(known[-1][0] + 1 if known else 3)):
        if disc % l == 0:
            continue
        factors = factor_fpoly(fred(F, l), l)
        if len(factors) == len(F) - 1:
            known.append((l, [-h[0] % l for h, _ in factors]))
            yield known[-1]


def square_root(r: FieldElement) -> FieldElement | None:
    """y in K with y * y == r, or None when r is not a square in K.

    With b = m*a the root of the integral model F (NumberField._integral_model)
    and D the least positive integer with D*r in Z[b], s = D^2 r lies in
    Z[b], and a root z = D*y of s is an algebraic integer, so Y = disc*z lies
    in Z[b].  Hadamard's inequality on the Vandermonde matrix of the roots of
    F bounds the coordinates of Y by sqrt(disc) * n * Z * A with Z^2 =
    sum |s_i| B^i >= |s| at every root and A = ((n-1)^(1/2) B^(n-1))^(n-1).
    At the first odd prime l that splits F completely, is prime to disc and
    leaves s a unit at every root a_j, a non-residue s(a_j) (X^2 - s(a_j)
    irreducible mod l) proves r a non-square.  Otherwise X^2 - s(a_j) factors
    mod l as (X - t_j)(X + t_j), and the factors are Hensel-lifted to the two
    square roots +-t_j mod l^N, together with the a_j; for each of the
    2^(n-1) sign patterns the Lagrange interpolant of disc * (+-t_j) is
    lifted symmetrically, and once l^N > 2 * (bound) one pattern gives Y (or
    -Y) exactly when r is a square.  A candidate counts only after y * y == r
    is checked exactly (Couveignes, "Computing a square root for the number
    field sieve", LNM 1554, 1993; Cohen, GTM 138, section 3.6)."""
    K = r.field
    if r.is_zero:
        return r
    F, m, disc, B = K._integral_model
    n = K.degree
    # coordinates over the power basis of b
    rb = [c / m**i for i, c in enumerate(r.coords)]
    D = lcm(*(c.denominator for c in rb))
    s = [int(c * D) * D for c in rb]
    zsq = sum(abs(c) * B**i for i, c in enumerate(s))
    bound = isqrt(disc * n * n * zsq * (n - 1) ** (n - 1) * B ** (2 * (n - 1) ** 2)) + 1
    for l, roots in _split_primes(K):
        values = [sum(c * pow(a, i, l) for i, c in enumerate(s)) % l for a in roots]
        root_pairs = [[h for h, _ in factor_fpoly((-v % l, 0, 1), l)] for v in values if v]
        if any(len(hs) == 1 for hs in root_pairs):
            return None  # a non-residue at a degree-1 prime
        if len(root_pairs) == n:
            break
    N, M = 1, l
    while M <= 2 * bound:
        N, M = N + 1, M * l
    A = [-h[0] % M for h in hensel_lift(F, [(-a % l, 1) for a in roots], l, N)]
    terms = []
    for j, (a, hs) in enumerate(zip(A, root_pairs)):
        c = sum(v * pow(a, i, M) for i, v in enumerate(s)) % M
        t = -hensel_lift([-c, 0, 1], hs, l, N)[0][0] % M
        basis, den = (1,), 1
        for k, ak in enumerate(A):
            if k != j:
                basis = fmul(basis, (-ak % M, 1), M)
                den = den * (a - ak) % M
        terms.append(fscale(basis, disc * t * pow(den, -1, M), M))
    for signs in product((1, -1), repeat=n - 1):
        acc = terms[0]
        for sign, term in zip(signs, terms[1:]):
            acc = fadd(acc, term if sign == 1 else fneg(term, M), M)
        Y = [c - M if 2 * c > M else c for c in acc]
        if any(abs(c) > bound for c in Y):
            continue
        y = K.element([Fraction(c * m**i, disc * D) for i, c in enumerate(Y)])
        if y * y == r:
            return y
    return None
