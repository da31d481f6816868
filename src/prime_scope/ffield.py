"""Finite fields F_p[Y]/(m), polynomial arithmetic mod p^k, and polynomial
factorization over F_p.

Polynomials are int tuples, lowest degree first, coefficients in [0, m),
trailing zeros stripped.  The kernel ``ftrim``/``fadd``/``fsub``/``fmul``/
``fdivmod``/``fmonic`` is valid modulo any m = p^k: it needs inputs already
reduced into [0, m) (``fred`` does that once where raw integers enter), and a
divisor or a polynomial made monic must have a unit leading coefficient, which
over F_p means nonzero and mod p^k means prime to p.  A finite field is
``FF(p, modulus)`` for a monic irreducible modulus of degree f over F_p, and
its elements are coefficient tuples of length f; the residue field at a prime
P of a number field is F_p[X]/(hbar_P) in exactly this form.

``fpowmod`` runs qpoly's one powering loop with each product one fused
product and reduction by the monic form of its modulus, on plain ints,
reducing each coefficient mod p once.

Factorization is squarefree split + distinct-degree + equal-degree
(Cantor-Zassenhaus); a polynomial coprime to its derivative goes straight to
the distinct-degree split.  For p <= SCAN_LIMIT, the order up to which
localdata.ff_poly_roots scans a residue field, the distinct-degree stage
takes the linear factors from one scan of F_p (``fp_roots``: Horner on every
element at once, the scan that ff_poly_roots runs over a residue field F_p)
and divides them out; the root-free cofactor is irreducible below degree 4,
and only from degree 4 up does it take Frobenius powers X^(p^d), from d = 2.
So below the limit no equal-degree split runs for a linear factor.  The
equal-degree randomness is drawn from a PRNG seeded
deterministically from the input polynomial and p, so results never depend
on run order, and made only when an equal-degree split runs.
``hensel_lift`` lifts a factorization into pairwise coprime factors mod p to
one mod p^N by quadratic steps, reverifying the product and Bezout
identities at each step; it serves both the block lifts at a prime of a
number field and the irreducibility certificate over Q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotPIntegral, Unsupported, ZeroElement, check
from .qpoly import QPoly, power

FPoly = tuple[int, ...]

# Miller-Rabin with the primes up to 41 as bases is exact below this limit
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the primes up to 37 alone are proven only below 3.2e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality; Unsupported at and above the range where the
    fixed Miller-Rabin bases are proven exact."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise Unsupported(f"primality of {n} is decided only below {_MR_LIMIT}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial arithmetic mod m = p^k
# ---------------------------------------------------------------------------

def ftrim(c: Sequence[int]) -> FPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fred(a: Sequence[int], m: int) -> FPoly:
    """Arbitrary integer coefficients reduced into the kernel's form mod m."""
    return ftrim([c % m for c in a])


def fadd(a: FPoly, b: FPoly, m: int) -> FPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % m
    return ftrim(out)


def fneg(a: FPoly, m: int) -> FPoly:
    return tuple((-v) % m for v in a)


def fsub(a: FPoly, b: FPoly, m: int) -> FPoly:
    return fadd(a, fneg(b, m), m)


def fmul(a: FPoly, b: FPoly, m: int) -> FPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va:
            for j, vb in enumerate(b):
                out[i + j] = (out[i + j] + va * vb) % m
    return ftrim(out)


def fscale(a: FPoly, c: int, m: int) -> FPoly:
    c %= m
    return ftrim([v * c % m for v in a])


def fdivmod(a: FPoly, b: FPoly, m: int) -> tuple[FPoly, FPoly]:
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        f = rem.pop() * inv % m  # b's top term cancels the popped coefficient
        if f:
            q[k] = f
            for i, v in enumerate(low, k):
                rem[i] = (rem[i] - f * v) % m
    return ftrim(q), ftrim(rem)


def fmod(a: FPoly, b: FPoly, p: int) -> FPoly:
    return fdivmod(a, b, p)[1]


def fmonic(a: FPoly, m: int) -> FPoly:
    if not a:
        return a
    return fscale(a, pow(a[-1], -1, m), m)


def fgcd(a: FPoly, b: FPoly, p: int) -> FPoly:
    while b:
        a, b = b, fmod(a, b, p)
    return fmonic(a, p)


def fext_gcd(a: FPoly, b: FPoly, p: int) -> tuple[FPoly, FPoly, FPoly]:
    """(g, s, t) with s*a + t*b = g = monic gcd, over F_p."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = fdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fsub(s0, fmul(q, s1, p), p)
        t0, t1 = t1, fsub(t0, fmul(q, t1, p), p)
    if not r0:
        return (), s0, t0
    inv = pow(r0[-1], -1, p)
    return fmonic(r0, p), fscale(s0, inv, p), fscale(t0, inv, p)


def bezout_lift(g: FPoly, h: FPoly, s: FPoly, t: FPoly, m: int) -> tuple[FPoly, FPoly]:
    """One Newton step on the Bezout identity of monic g, h: from
    s*g + t*h = 1 modulo some m0 with m | m0^2 to the same identity mod m.

    With b = s*g + t*h - 1 (so b = 0 mod m0), the pair (s*(1 - b), t*(1 - b))
    gives 1 - b^2 = 1 mod m; reducing the first entry mod h, s*b = c*h + d,
    and moving c*g onto the second keeps deg s < deg h without changing the
    sum.  With those degrees the pair is unique mod m."""
    b = fsub(fadd(fmul(s, g, m), fmul(t, h, m), m), (1,), m)
    c, d = fdivmod(fmul(s, b, m), h, m)
    s2 = fsub(s, d, m)
    t2 = fsub(fsub(t, fmul(t, b, m), m), fmul(c, g, m), m)
    check(fadd(fmul(s2, g, m), fmul(t2, h, m), m) == (1,), "bezout lift failed")
    return s2, t2


def _hensel_step(f, g, h, s, t, m: int, mm: int):
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
    check(all(c % m == 0 for c in e), "input factorization invalid")
    q, r = fdivmod(fmul(s, e, mm), h, mm)
    g2 = fadd(g, fadd(fmul(t, e, mm), fmul(q, g, mm), mm), mm)
    h2 = fadd(h, r, mm)
    check(len(g2) == len(g) and g2[-1] == 1, "factor lift lost monicity")
    check(len(h2) == len(h) and h2[-1] == 1, "cofactor lift lost monicity")
    check(not fsub(f, fmul(g2, h2, mm), mm), "factor lift broke product")
    s2, t2 = bezout_lift(g2, h2, s, t, mm)
    return g2, h2, s2, t2


def hensel_lift(f: Sequence[int], factors: Sequence[FPoly], p: int, N: int) -> list[FPoly]:
    """Lift f = prod factors (mod p), for monic integer f and pairwise coprime
    monic factors over F_p, to monic F_i = factors[i] (mod p) with
    prod F_i = f (mod p^N); such lifts are unique, with coefficients in
    [0, p^N).

    The factors are peeled off in order: each is lifted against the product
    of those after it, and the lifted cofactor carries on to the next."""
    rem = fred(f, p**N)
    out = []
    for i, g in enumerate(factors[:-1]):
        h = (1,)
        for other in factors[i + 1 :]:
            h = fmul(h, other, p)
        _, s, t = fext_gcd(g, h, p)
        k = 1
        while k < N:
            kk = min(2 * k, N)
            g, h, s, t = _hensel_step(fred(rem, p**kk), g, h, s, t, p**k, p**kk)
            k = kk
        out.append(g)
        rem = h
    out.append(rem)
    return out


def _fmulmod_monic(x: FPoly, y: FPoly, neg: list[int], p: int) -> FPoly:
    """x*y mod (m, p) for monic m of degree n = len(neg), neg = [-m_0, ...,
    -m_{n-1}]: the product is formed on plain ints, its top folded down by
    X^n = neg_0 + ... + neg_{n-1} X^{n-1}, and each coefficient left is
    reduced mod p once."""
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y, i):
                out[j] += xi * yj
    for k in range(len(out) - len(neg) - 1, -1, -1):
        c = out.pop() % p
        if c:
            for i, v in enumerate(neg, k):
                out[i] += c * v
    return ftrim([c % p for c in out])


def fpowmod(a: FPoly, e: int, m: FPoly, p: int) -> FPoly:
    """a^e mod (m, p); a non-monic m leaves the same remainders as fmonic(m)."""
    neg = [-c for c in fmonic(m, p)[:-1]]
    return power(fmod(a, m, p), e, (1,), lambda x, y: _fmulmod_monic(x, y, neg, p))


def fderiv(a: FPoly, p: int) -> FPoly:
    return ftrim([i * c % p for i, c in enumerate(a)][1:])


def is_irreducible(a: FPoly, p: int) -> bool:
    """Monic a of degree >= 1: irreducible iff X^{p^d} = X mod a and
    gcd(X^{p^{d/l}} - X, a) = 1 for every prime l | d."""
    d = len(a) - 1
    if d < 1:
        return False
    x: FPoly = (0, 1)
    if fpowmod(x, p ** d, a, p) != fmod(x, a, p):
        return False
    for l in prime_divisors(d):
        h = fsub(fpowmod(x, p ** (d // l), a, p), fmod(x, a, p), p)
        if fgcd(h, a, p) != (1,):
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------

def reduce_qpoly_mod_p(g: QPoly, p: int) -> FPoly:
    """Reduce a rational polynomial mod p; denominators divisible by p are
    rejected."""
    out = []
    for c in g.coeffs:
        if c.denominator % p == 0:
            raise NotPIntegral(f"coefficient {c} is not {p}-integral")
        out.append(c.numerator * pow(c.denominator, p - 2, p) % p)
    return ftrim(out)


# F_p and the residue fields F_q of localdata.ff_poly_roots are scanned up to
# this order, larger ones split (BENCH_rootfind.json)
SCAN_LIMIT = 200


def fp_roots(a: FPoly, p: int) -> list[int]:
    """The roots in [0, p) of a nonzero polynomial over F_p, ascending: one
    Horner pass over all of F_p at once, a list comprehension per
    coefficient, so linear in p (callers keep p <= SCAN_LIMIT)."""
    xs = range(p)
    acc = [a[-1]] * p
    for c in reversed(a[:-1]):
        acc = [(v * x + c) % p for v, x in zip(acc, xs)]
    return [x for x, v in zip(xs, acc) if not v]


def _edf_seed(a: FPoly, p: int) -> int:
    seed = p
    for c in a:
        seed = (seed * 1000003 + c + 1) & 0xFFFFFFFFFFFF
    return seed


def _equal_degree_split(a: FPoly, d: int, p: int, rng: random.Random) -> list[FPoly]:
    """Cantor-Zassenhaus: a is monic, squarefree, all factors of degree d."""
    n = len(a) - 1
    if n == d:
        return [a]
    while True:
        h = ftrim([rng.randrange(p) for _ in range(n)] + [1])
        if p == 2:
            # trace map over F_{2^d}
            t: FPoly = ()
            acc = fmod(h, a, p)
            for _ in range(d):
                t = fadd(t, acc, p)
                acc = fmod(fmul(acc, acc, p), a, p)
            g = fgcd(t, a, p)
        else:
            e = (p ** d - 1) // 2
            g = fgcd(fsub(fpowmod(h, e, a, p), (1,), p), a, p)
        if g not in ((1,), ()) and len(g) - 1 < n:
            other = fdivmod(a, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(other, d, p, rng)


def factor_fpoly(a: FPoly, p: int) -> list[tuple[FPoly, int]]:
    """Full factorization of a nonzero polynomial over F_p into monic
    irreducibles with multiplicities, canonically sorted."""
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    seed = _edf_seed(a, p)
    rng = None  # seeded on the first equal-degree split that needs it
    a = fmonic(a, p)
    factors: dict[FPoly, int] = {}

    def add(f: FPoly, mult: int):
        factors[f] = factors.get(f, 0) + mult

    def squarefree_split(g: FPoly, outer_mult: int):
        if len(g) - 1 < 1:
            return
        dg = fderiv(g, p)
        if not dg:
            # g = h(X^p) = h(X)^p over F_p: deflate exponents and recurse
            h = ftrim([g[i] for i in range(0, len(g), p)])
            squarefree_split(h, outer_mult * p)
            return
        s = fgcd(g, dg, p)
        if s == (1,):
            for f in _distinct_degree(g, p):
                add(f, outer_mult)
            return
        w = fdivmod(g, s, p)[0]  # each factor of multiplicity not divisible by p, once
        i = 1
        while w != (1,):
            y = fgcd(w, s, p)
            band = fdivmod(w, y, p)[0]  # factors of exact multiplicity i
            if len(band) - 1 >= 1:
                for f in _distinct_degree(band, p):
                    add(f, i * outer_mult)
            s = fdivmod(s, y, p)[0]
            w = y
            i += 1
        # s now holds exactly the factors with multiplicity divisible by p
        if len(s) - 1 >= 1:
            squarefree_split(s, outer_mult)

    def _distinct_degree(g: FPoly, p: int) -> list[FPoly]:
        nonlocal rng
        out = []
        x: FPoly = (0, 1)
        frob = x
        d = 1
        if p <= SCAN_LIMIT:
            # the linear factors from one scan of F_p; the cofactor has no
            # root, so it is irreducible below degree 4 and otherwise enters
            # the split at d = 2 with X^p mod it
            for r in fp_roots(g, p):
                out.append(((-r) % p, 1))
                g = fdivmod(g, out[-1], p)[0]
            d = 2
            if len(g) - 1 >= 2 * d:
                frob = fpowmod(x, p, g, p)
        while len(g) - 1 >= 2 * d:
            frob = fpowmod(frob, p, g, p)
            h = fgcd(fsub(frob, x, p), g, p)
            if h != (1,):
                if rng is None and len(h) - 1 > d:
                    rng = random.Random(seed)
                out.extend(_equal_degree_split(h, d, p, rng))
                g = fdivmod(g, h, p)[0]
                frob = fmod(frob, g, p)
            d += 1
        if len(g) - 1 >= 1:
            out.append(g)
        return out

    squarefree_split(a, 1)
    items = [(f, m) for f, m in factors.items()]
    items.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return items


def poly_factor_mod_p(g: QPoly, p: int) -> list[tuple[QPoly, int]]:
    """Factor g mod p into monic irreducibles; coefficients lifted to [0,p).

    Raises NotPIntegral when a denominator is divisible by p.
    """
    a = reduce_qpoly_mod_p(g, p)
    if not a:
        raise ValueError("polynomial vanishes mod p")
    return [
        (QPoly([Fraction(c) for c in f]), m)
        for f, m in factor_fpoly(a, p)
    ]


# ---------------------------------------------------------------------------
# the field F_p[Y]/(m)
# ---------------------------------------------------------------------------

class FF:
    """F_{p^f} as F_p[Y] modulo a monic irreducible m of degree f, given as a
    reduced int tuple; one object per (p, m), so elements compare by field
    identity."""

    _cache: dict[tuple[int, FPoly], "FF"] = {}

    def __new__(cls, p: int, modulus: Sequence[int]):
        key = (p, tuple(modulus))
        if key not in cls._cache:
            if not is_prime(p):
                raise ValueError(f"not a rational prime: {p}")
            m = key[1]
            if m != fred(m, p) or len(m) < 2 or m[-1] != 1 or not is_irreducible(m, p):
                raise ValueError(f"not a reduced monic irreducible mod {p}: {m}")
            obj = super().__new__(cls)
            obj.p, obj.f, obj.modulus = p, len(m) - 1, m
            obj._neg = [-c for c in m[:-1]]  # the negated tail of _fmulmod_monic
            cls._cache[key] = obj
        return cls._cache[key]

    @property
    def order(self) -> int:
        return self.p ** self.f

    def element(self, coeffs: Iterable[int]) -> "FFElem":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.f:
            cs = list(fmod(ftrim(cs), self.modulus, self.p))
        cs = cs + [0] * (self.f - len(cs))
        return FFElem(self, tuple(cs[: self.f]))

    def zero(self) -> "FFElem":
        return self.element([])

    def one(self) -> "FFElem":
        return self.element([1])

    def elements(self):
        """All elements, in base-p counter order of coefficient vectors."""
        for k in range(self.order):
            cs, kk = [], k
            for _ in range(self.f):
                cs.append(kk % self.p)
                kk //= self.p
            yield FFElem(self, tuple(cs))

    def __repr__(self):
        return f"FF({self.p},{list(self.modulus)})"


class FFElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FF, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def _operand(self, other):
        """other's coefficients; NotImplemented for a type other than FFElem."""
        if not isinstance(other, FFElem):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("elements of different finite fields")
        return other.coeffs

    def __add__(self, other):
        b = self._operand(other)
        return b if b is NotImplemented else self.field.element(fadd(self.coeffs, b, self.field.p))

    def __sub__(self, other):
        b = self._operand(other)
        return b if b is NotImplemented else self.field.element(fsub(self.coeffs, b, self.field.p))

    def __neg__(self):
        return self.field.element(fneg(self.coeffs, self.field.p))

    def __mul__(self, other):
        b, F = self._operand(other), self.field
        return b if b is NotImplemented else F.element(_fmulmod_monic(self.coeffs, b, F._neg, F.p))

    def __pow__(self, e: int):
        F = self.field
        if e < 0:
            return self.inverse() ** (-e)
        return F.element(fpowmod(self.coeffs, e, F.modulus, F.p))

    def inverse(self) -> "FFElem":
        if self.is_zero:
            raise ZeroElement("inverse of zero in a finite field")
        return self ** (self.field.order - 2)

    def key(self) -> int:
        """Base-p integer encoding; fixes the canonical element order."""
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.field.p + c
        return k

    def __repr__(self):
        return f"FFElem({self.field!r},{list(self.coeffs)})"


def ff_is_square(x: FFElem) -> bool:
    if x.is_zero:
        return True
    q = x.field.order
    if q % 2 == 0:
        return True
    return x ** ((q - 1) // 2) == x.field.one()
