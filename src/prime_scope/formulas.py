"""First-order formulas over the ring language with a holomorphy predicate R.

Terms are trees over constants, variables, +, *, and a formal inverse;
formulas add =, R(term), the propositional connectives, and quantifiers.
R^x(t), "t is a unit of R", is sugar for R(t) and R(1/t) and is expanded at
emission time, so printed formulas contain only the core connectives.

The emitters produce the three families used throughout:

  phi_n   -- an n-variable form built from a polynomial g whose reduction mod
             p has no zero in F_{p^f_abs}; it detects "some argument is a
             p-adic unit" through its valuation.
  chi     -- the two-parameter cut that picks primes of type tau out of the
             set of all primes above p.
  nu      -- the axiom sentence "for all y != 0 there are x_0..x_{n-1} making
             phi_n(y^(e!) p^i x_i^n) a unit", witnessing that value groups
             are Z-groups.

Every walk over a tree -- parse, substitute, evaluate, the quantifier-free
test -- is a generator that yields the sub-walk it needs and is resumed with
that sub-walk's result.  One driver, _run, runs it from an explicit stack, as
the printer walks its own, so no formula the package prints is too deep to
read back or evaluate (chi's s^((p-1)/2) is a left-nested product that deep).

Text form is s-expressions; see parse/print near the bottom.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction

from .config import DEFAULT
from .errors import FormulaSyntaxError, InverseOfZero, Unsupported
from .ffield import is_irreducible, is_prime
from .numberfield import RAT_RE, FieldElement, NumberField, elements_by_height, format_element
from .primes import PrimeType, holomorphy_member, is_infinite_place, primes_of_type
from .qpoly import QPoly, power


# ---------------------------------------------------------------------------
# term and formula ASTs (structurally compared and hashed, from a stack like
# every other walk).  Nodes are not frozen, so a node that is shared or used
# as a key must not be changed.
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if not isinstance(a, _Node):
                if a != b:
                    return False
            elif a is not b:
                if type(a) is not type(b):
                    return False
                pa, pb = _parts(a), _parts(b)
                if len(pa) != len(pb):
                    return False
                pairs.extend(zip(pa, pb))
        return True

    def __hash__(self):
        def walk(node):
            hs = [type(node)]
            for part in _parts(node):
                hs.append((yield walk(part)) if isinstance(part, _Node) else hash(part))
            return hash(tuple(hs))

        return _run(walk(self))

    def __repr__(self):
        return print_formula(self)


class Term(_Node):
    __slots__ = ()


class Formula(_Node):
    __slots__ = ()


_node = dataclass(slots=True, eq=False, repr=False)


@_node
class TConst(Term):
    """Constant from the field: a Fraction, or a coordinate vector (length
    >= 2, trailing zeros stripped) for elements outside the prime field."""

    value: object

    def __post_init__(self):
        v = self.value
        if isinstance(v, (FieldElement, tuple)):
            coords = list(v.coords if isinstance(v, FieldElement) else v)
            while len(coords) > 1 and coords[-1] == 0:
                coords.pop()
            v = coords[0] if len(coords) == 1 else tuple(coords)
        self.value = Fraction(v) if isinstance(v, int) else v


@_node
class TVar(Term):
    name: str


@_node
class TAdd(Term):
    a: Term
    b: Term


@_node
class TMul(Term):
    a: Term
    b: Term


@_node
class TInv(Term):
    a: Term


@_node
class FEq(Formula):
    a: Term
    b: Term


@_node
class FR(Formula):
    t: Term


@_node
class FNot(Formula):
    f: Formula


@_node
class FAnd(Formula):
    args: tuple

    def __post_init__(self):
        self.args = tuple(self.args)
        if len(self.args) < 2:
            raise ValueError("conjunction needs at least two conjuncts")


@_node
class FOr(Formula):
    args: tuple

    def __post_init__(self):
        self.args = tuple(self.args)
        if len(self.args) < 2:
            raise ValueError("disjunction needs at least two disjuncts")


@_node
class FImp(Formula):
    a: Formula
    b: Formula


@_node
class FAll(Formula):
    var: str
    body: Formula


@_node
class FEx(Formula):
    var: str
    body: Formula


# ---------------------------------------------------------------------------
# walking a tree (see the module docstring)
# ---------------------------------------------------------------------------


def _run(walk):
    """The result of a walk generator, its sub-walks run from a stack."""
    stack, value = [walk], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _parts(node) -> list:
    """A node's fields in order, with an argument tuple spliced in."""
    out = []
    for f in fields(node):
        v = getattr(node, f.name)
        out.extend(v if isinstance(v, tuple) else (v,))
    return out


def r_unit(t: Term) -> Formula:
    """R^x(t) desugared: R(t) and R(t^-1)."""
    return FAnd((FR(t), FR(TInv(t))))


def conjunction(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    return parts[0] if len(parts) == 1 else FAnd(parts)


def substitute(phi: Formula, mapping: dict) -> Formula:
    """Substitute terms for free variables; bound occurrences are left alone.
    Substituted terms are expected to be closed (constants), as in every use
    here, so no alpha-renaming is attempted."""

    def walk(node, shadowed: frozenset):
        if isinstance(node, TVar):
            return node if node.name in shadowed else mapping.get(node.name, node)
        if isinstance(node, (TConst, str)):
            return node
        if isinstance(node, (FAll, FEx)):
            shadowed = shadowed | {node.var}
        parts = []
        for part in _parts(node):
            parts.append((yield walk(part, shadowed)))
        return type(node)(parts) if isinstance(node, (FAnd, FOr)) else type(node)(*parts)

    return _run(walk(phi, frozenset()))


# ---------------------------------------------------------------------------
# multivariate polynomials over Q (sparse; only what phi_n needs)
# ---------------------------------------------------------------------------


class MPoly:
    """Polynomial in a fixed number of variables, {exponent tuple: coeff}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: Fraction(c) for e, c in terms.items() if c != 0}

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    def __pow__(self, k: int) -> "MPoly":
        return power(self, k, MPoly.const(self.nvars, 1))

    def substitute(self, args: list) -> "MPoly":
        """Plug MPoly arguments (all in the same target variable set)."""
        if not args or len(args) != self.nvars:
            raise ValueError(f"substitute needs {self.nvars} arguments, got {len(args)}")
        n = args[0].nvars
        acc = MPoly(n, {})
        for e, c in self.terms.items():
            mono = MPoly.const(n, c)
            for i, k in enumerate(e):
                if k:
                    mono = mono * args[i] ** k
            acc = acc + mono
        return acc

    def __call__(self, values: list) -> FieldElement:
        """Evaluate at FieldElements of one field by Horner's rule, one
        variable at a time: a field multiplication per step between two
        exponents of a variable, and none for a coefficient."""
        K = values[0].field
        pows: dict = {}

        def power(i, k):
            if (i, k) not in pows:
                pows[i, k] = values[i] ** k
            return pows[i, k]

        def horner(terms, i):
            if i == self.nvars:
                return K.rational(terms[0][1])
            groups: dict = {}
            for e, c in terms:
                groups.setdefault(e[i], []).append((e, c))
            ks = sorted(groups, reverse=True)
            acc = horner(groups[ks[0]], i + 1)
            for hi, lo in zip(ks, ks[1:]):
                acc = acc * power(i, hi - lo) + horner(groups[lo], i + 1)
            return acc * power(i, ks[-1]) if ks[-1] else acc

        if not self.terms:
            return K.zero()
        return horner(list(self.terms.items()), 0)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.terms})"


# ---------------------------------------------------------------------------
# phi_n
# ---------------------------------------------------------------------------


def _least_prime_above(n: int) -> int:
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


def rootless_poly(p: int, f_abs: int) -> QPoly:
    """Least monic integer polynomial (constant-coefficient-major scan over
    lifts in [0,p)) of the least prime degree > f_abs that is irreducible mod
    p.  Prime degree l > f_abs makes its roots generate F_{p^l}, which meets
    F_{p^f_abs} only in F_p, so the reduction has no zero there.

    The scan starts at c_0 = 1: every candidate with c_0 = 0 is X times a
    polynomial of degree l - 1 >= 1, hence reducible, so skipping those
    p^(l-1) codes returns the same g.  About 1/l of the remaining candidates
    are irreducible, so the expected cost is O(l) irreducibility tests."""
    if not is_prime(p):
        raise ValueError(f"not a rational prime: {p}")
    if f_abs < 1:
        raise ValueError(f"f_abs must be positive: {f_abs}")
    ell = _least_prime_above(f_abs)
    # (c_0, c_1, ..., c_{l-1}) lexicographically ascending: the constant
    # coefficient is the most significant digit of the counter
    for code in range(p ** (ell - 1), p**ell):
        coeffs = [(code // p ** (ell - 1 - i)) % p for i in range(ell)]
        if is_irreducible(tuple(coeffs + [1]), p):
            return QPoly([Fraction(c) for c in coeffs] + [Fraction(1)])
    raise AssertionError("no irreducible polynomial found; unreachable")


def build_phi_n(p: int, f_abs: int, n: int):
    """(g, phi_n): g monic over Z with rootless reduction in F_{p^f_abs};
    phi_1 = X_1, phi_2 = Y^deg(g) g(X/Y), phi_n = phi_2(X_1, phi_{n-1}(...))."""
    if n < 1:
        raise ValueError("n must be positive")
    g = rootless_poly(p, f_abs)
    ell = g.degree
    if n == 1:
        return g, MPoly.var(1, 0)
    phi2 = MPoly(2, {(k, ell - k): g.coeff(k) for k in range(ell + 1)})
    phi = phi2
    for m in range(3, n + 1):
        x1 = MPoly.var(m, 0)
        shifted = MPoly(m, {(0,) + e: c for e, c in phi.terms.items()})
        phi = phi2.substitute([x1, shifted])
    return g, phi


# ---------------------------------------------------------------------------
# chi and nu emitters
# ---------------------------------------------------------------------------


def _tpow(t: Term, k: int) -> Term:
    if k == 0:
        return TConst(Fraction(1))
    acc = t
    for _ in range(k - 1):
        acc = TMul(acc, t)
    return acc


def emit_chi(p, tau: PrimeType) -> Formula:
    """Free variables t, s.  R^x(t^e / p) and R^x(s) and, for every proper
    divisor n of p^f - 1, R^x(s^n - 1).  For the infinite place: t = t."""
    t, s = TVar("t"), TVar("s")
    if is_infinite_place(p):
        return FEq(t, t)
    conj = [r_unit(TMul(_tpow(t, tau.e), TConst(Fraction(1, p))))]
    conj.append(r_unit(s))
    m = p**tau.f - 1
    for n in range(1, m):
        if m % n == 0:
            conj.append(r_unit(TAdd(_tpow(s, n), TConst(Fraction(-1)))))
    return conjunction(conj)


def _phi_term(g: QPoly, us: list) -> Term:
    """phi_n as a nested term: phi_2(u_0, phi_2(u_1, ...)) without expansion."""
    if len(us) == 1:
        return us[0]
    ell = g.degree
    b = _phi_term(g, us[1:])
    a = us[0]
    parts = []
    for k in range(ell, -1, -1):
        c = g.coeff(k)
        if c == 0:
            continue
        mono_factors = []
        if c != 1:
            mono_factors.append(TConst(c))
        if k:
            mono_factors.append(_tpow(a, k))
        if ell - k:
            mono_factors.append(_tpow(b, ell - k))
        if not mono_factors:
            mono_factors = [TConst(Fraction(1))]
        mono = mono_factors[0]
        for fct in mono_factors[1:]:
            mono = TMul(mono, fct)
        parts.append(mono)
    acc = parts[0]
    for q in parts[1:]:
        acc = TAdd(acc, q)
    return acc


def _nu_parts(p: int, tau: PrimeType, n: int):
    """(x-variable names, inner R^x formula) for nu_{p,n}^tau; phi_n enters
    as the nested term of rootless_poly(p, f), never expanded."""
    if n < 1:
        raise ValueError("n must be positive")
    g = rootless_poly(p, tau.f)
    efact = math.factorial(tau.e)
    xs = [f"x{i}" for i in range(n)]
    us = []
    for i in range(n):
        factors = [_tpow(TVar("y"), efact)]
        if i:
            factors.append(TConst(Fraction(p**i)))
        factors.append(_tpow(TVar(xs[i]), n))
        u = factors[0]
        for fct in factors[1:]:
            u = TMul(u, fct)
        us.append(u)
    inner = r_unit(_phi_term(g, us))
    return xs, inner


def emit_nu(p: int, tau: PrimeType, n: int) -> Formula:
    """forall y (y != 0 -> exists x_0..x_{n-1} R^x(phi_n(y^(e!) p^i x_i^n)))."""
    if is_infinite_place(p):
        raise Unsupported("nu is defined for finite p only")
    xs, inner = _nu_parts(p, tau, n)
    body = inner
    for name in reversed(xs):
        body = FEx(name, body)
    return FAll("y", FImp(FNot(FEq(TVar("y"), TConst(Fraction(0)))), body))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _value(K: NumberField, node, env: dict, r_member):
    """Walk to the value of a term (a FieldElement) or of a quantifier-free
    formula (a bool).  Operands are taken left to right, and and/or/-> stop
    at the first one that decides them, so an inverse of zero past it is
    never evaluated."""
    if isinstance(node, TConst):
        v = node.value
        if isinstance(v, tuple):
            if len(v) > K.degree:
                raise ValueError(f"constant {node!r} does not fit in a degree-{K.degree} field")
            return K.element(list(v) + [Fraction(0)] * (K.degree - len(v)))
        return K.rational(v)
    if isinstance(node, TVar):
        if node.name not in env:
            raise ValueError(f"free variable {node.name} in quantifier-free evaluation")
        return env[node.name]
    if isinstance(node, (TAdd, TMul, FEq)):
        a = yield _value(K, node.a, env, r_member)
        b = yield _value(K, node.b, env, r_member)
        return a + b if isinstance(node, TAdd) else a * b if isinstance(node, TMul) else a == b
    if isinstance(node, TInv):
        v = yield _value(K, node.a, env, r_member)
        if v.is_zero:
            raise InverseOfZero("formal inverse of a term evaluating to 0")
        return v.inverse()
    if isinstance(node, FR):
        return r_member((yield _value(K, node.t, env, r_member)))
    if isinstance(node, FNot):
        return not (yield _value(K, node.f, env, r_member))
    if isinstance(node, FImp):
        node = FOr((FNot(node.a), node.b))
    if isinstance(node, (FAnd, FOr)):
        decisive = isinstance(node, FOr)
        for g in node.args:
            if bool((yield _value(K, g, env, r_member))) is decisive:
                return decisive
        return not decisive
    raise ValueError(f"not a term or quantifier-free formula: {type(node).__name__}")


def eval_qf(K: NumberField, p, tau: PrimeType, phi: Formula, r_member=None) -> bool:
    """Evaluate a closed quantifier-free formula; R(t) means membership in the
    holomorphy ring R_p^tau(K) unless a custom r_member predicate is given."""
    if r_member is None:
        r_member = lambda x: holomorphy_member(K, p, tau, x)
    return _run(_value(K, phi, {}, r_member))


class EvalVerdict:
    """Proven | Refuted | Unknown(bound); Proven/Refuted carry the witness or
    counterexample that discharged the outermost quantifier, when there is
    one."""

    __slots__ = ("status", "bound", "witness")

    def __init__(self, status: str, bound=None, witness=None):
        self.status = status
        self.bound = bound
        self.witness = witness

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.witness is not None:
            out["witness"] = format_element(self.witness)
        return out

    def __repr__(self):
        extra = f", bound={self.bound}" if self.bound is not None else ""
        extra += f", witness={self.witness!r}" if self.witness is not None else ""
        return f"EvalVerdict({self.status}{extra})"


def _qf_ids(phi: Formula) -> set:
    """The ids of phi's quantifier-free subformulas, found in one walk."""
    out = set()

    def walk(f):
        qf = not isinstance(f, (FAll, FEx))
        for part in _parts(f):
            if isinstance(part, Formula):
                qf = (yield walk(part)) and qf
        if qf:
            out.add(id(f))
        return qf

    _run(walk(phi))
    return out


def is_qf(phi: Formula) -> bool:
    """True when phi contains no quantifier."""
    return id(phi) in _qf_ids(phi)


def eval_bounded(
    K: NumberField, p, tau: PrimeType, phi: Formula, height_bound: int | None = None
) -> EvalVerdict:
    """Three-valued bounded evaluation.

    Existentials are Proven only by an exactly verified witness from the
    canonical height enumeration; universals are Refuted only by a verified
    counterexample; everything else is Unknown(bound).  An inverse-of-zero
    inside the search skips that candidate rather than erroring.
    """
    bound = height_bound if height_bound is not None else DEFAULT.height_bound
    r_member = lambda x: holomorphy_member(K, p, tau, x)
    qf = _qf_ids(phi)

    def walk(f: Formula, env: dict):
        if id(f) in qf:
            try:
                ok = _run(_value(K, f, env, r_member))
            except InverseOfZero:
                return EvalVerdict("Unknown", bound=bound)
            return EvalVerdict("Proven" if ok else "Refuted")
        if isinstance(f, (FAll, FEx)):
            # a witness decides an existential, a counterexample a universal
            decisive = "Proven" if isinstance(f, FEx) else "Refuted"
            for _, cand in zip(range(bound), elements_by_height(K)):
                sub = yield walk(f.body, {**env, f.var: cand})
                if sub.status == decisive:
                    return EvalVerdict(decisive, witness=cand)
            return EvalVerdict("Unknown", bound=bound)
        if isinstance(f, FNot):
            sub = yield walk(f.f, env)
            if sub.status == "Unknown":
                return sub
            return EvalVerdict("Refuted" if sub.status == "Proven" else "Proven")
        if isinstance(f, FImp):
            f = FOr((FNot(f.a), f.b))
        if isinstance(f, (FAnd, FOr)):
            decisive = "Proven" if isinstance(f, FOr) else "Refuted"
            unknown = None
            for g in f.args:
                sub = yield walk(g, env)
                if sub.status == decisive:
                    return sub
                if sub.status == "Unknown":
                    unknown = sub
            return unknown or EvalVerdict("Refuted" if isinstance(f, FOr) else "Proven")
        raise TypeError(f"not a formula node: {f!r}")

    return _run(walk(phi, {}))


def prove_nu(K: NumberField, p: int, tau: PrimeType, n: int) -> EvalVerdict:
    """Sound discharge of the nu sentence over K.

    The inner matrix R^x(phi_n(...)) depends on y only through the valuations
    v_P(y) mod n: replacing y by y' with the same residues shifts each
    v_P(u_i) by a multiple of n, which a rescaling of x_i absorbs.  So it
    suffices to check one representative y per residue pattern; each check
    instantiates the matrix with a zgroup_witness tuple and evaluates it
    exactly.  Requires S_p^tau(K) = S_p^{=tau}(K) so that the witness
    guarantee covers every prime R quantifies over.
    """
    from .dense import weak_approx_value, zgroup_witness

    S_le = primes_of_type(K, p, tau, exact=False)
    S_eq = primes_of_type(K, p, tau, exact=True)
    if S_le != S_eq:
        raise Unsupported(
            "pattern discharge needs the exact-type and below-type prime sets to agree"
        )
    if not S_eq:
        return EvalVerdict("Proven")
    xs, inner = _nu_parts(p, tau, n)

    for pat in itertools.product(range(n), repeat=len(S_eq)):
        parts = [([P], P.uniformizer ** j) for P, j in zip(S_eq, pat)]
        y = weak_approx_value(K, parts)
        witness = zgroup_witness(K, p, tau, n, y)
        env = {"y": TConst(y)}
        for name, x in zip(xs, witness):
            env[name] = TConst(x)
        if not eval_qf(K, p, tau, substitute(inner, env)):
            return EvalVerdict("Refuted", witness=y)
    return EvalVerdict("Proven")


# ---------------------------------------------------------------------------
# s-expression text form: "(head field ...)" with a node's fields in order and
# an argument tuple spliced in; variables are bare names, constants rational
# literals or coordinate vectors "[c0, c1, ...]"
# ---------------------------------------------------------------------------

_HEADS = {
    TAdd: "+",
    TMul: "*",
    TInv: "inv",
    FEq: "=",
    FR: "R",
    FNot: "not",
    FAnd: "and",
    FOr: "or",
    FImp: "->",
    FAll: "forall",
    FEx: "exists",
}
_NODE_OF_HEAD = {head: cls for cls, head in _HEADS.items()}


def print_formula(node) -> str:
    """Text form of a formula or a term.  Written from an explicit stack of
    nodes and literal strings, so a deep term (chi's s^((p-1)/2) is a
    left-nested product of that depth) cannot overflow the Python stack."""
    out: list[str] = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, TVar):
            out.append(item.name)
        elif isinstance(item, TConst):
            v = item.value
            out.append("[" + ", ".join(map(str, v)) + "]" if isinstance(v, tuple) else str(v))
        else:
            head = _HEADS.get(type(item))
            if head is None:
                raise TypeError(f"not a formula node: {type(item).__name__}")
            seq = ["(" + head]
            for part in _parts(item):
                seq += [" ", part]
            seq.append(")")
            stack.extend(reversed(seq))
    return "".join(out)


_SYM = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            toks.append((ch, i))
            i += 1
            continue
        if ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise FormulaSyntaxError(f"unterminated '[' at position {i}")
            toks.append((text[i : j + 1], i))
            i = j + 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()[]":
            j += 1
        toks.append((text[i:j], i))
        i = j
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise FormulaSyntaxError(f"unexpected end of input at position {tok[1]}")
        self.pos += 1
        return tok

    def expect(self, what: str):
        tok, at = self.next()
        if tok != what:
            raise FormulaSyntaxError(f"expected {what!r} at position {at}, got {tok!r}")

    def atom_term(self, tok: str, at: int) -> Term:
        if RAT_RE.match(tok):
            return TConst(Fraction(tok))
        if tok.startswith("["):
            body = tok[1:-1].strip()
            parts = [s.strip() for s in body.split(",")] if body else []
            for s in parts:
                if not RAT_RE.match(s):
                    raise FormulaSyntaxError(f"bad coordinate {s!r} at position {at}")
            if not parts:
                raise FormulaSyntaxError(f"empty coordinate vector at position {at}")
            return TConst(tuple(Fraction(s) for s in parts))
        if _SYM.match(tok) and tok not in _NODE_OF_HEAD:
            return TVar(tok)
        raise FormulaSyntaxError(f"expected a term at position {at}, got {tok!r}")

    def node(self, kind: type):
        """Walk to the next Term or Formula: the head names the node class,
        whose field annotations ("Term", "Formula", "str" for a bound
        variable, "tuple" for two or more formulas) say what to read next."""
        tok, at = self.next()
        if tok != "(":
            if kind is Term:
                return self.atom_term(tok, at)
            raise FormulaSyntaxError(f"expected '(' at position {at}, got {tok!r}")
        head, hat = self.next()
        cls = _NODE_OF_HEAD.get(head)
        if cls is None or not issubclass(cls, kind):
            raise FormulaSyntaxError(
                f"unknown {kind.__name__.lower()} head {head!r} at position {hat}"
            )
        args = []
        for f in fields(cls):
            if f.type == "str":
                var, vat = self.next()
                if not _SYM.match(var) or var in _NODE_OF_HEAD:
                    raise FormulaSyntaxError(f"bad bound variable at position {vat}")
                args.append(var)
            elif f.type == "tuple":
                items = []
                while self.peek()[0] != ")":
                    items.append((yield self.node(Formula)))
                if len(items) < 2:
                    raise FormulaSyntaxError(
                        f"{head} needs at least two arguments at position {hat}"
                    )
                args.append(items)
            else:
                args.append((yield self.node(Term if f.type == "Term" else Formula)))
        self.expect(")")
        return cls(*args)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    phi = _run(p.node(Formula))
    tok, at = p.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"trailing input at position {at}: {tok!r}")
    return phi
