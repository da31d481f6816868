"""The benchmark's workloads: seeded inputs, the operations run on them, and
the referees that check every answer.

Each workload is a closed loop with one client.  Its operations come in
blocks: a block holds a fixed number of operations of each kind, shuffled by
the seed, so the mix is the same in every run and only the order and the
inputs depend on the seed.  Where the cost of a kind depends strongly on a
parameter (the place, the exponent k, the search height), the parameter is
drawn from a seeded cycle that visits every value once per round, so that a
run of a few seconds already samples every cost class in proportion.

Every operation only builds its inputs with the package's constructors and
calls the package's public API.  The ``check_*`` methods run after the timed
phase and use referees that do not reuse the code under test where one
exists: sympy factorization and real-root counts, the residue-tree oracle
``suite.brute_root_in_padic``, exact re-sums and re-computations with
Fractions, the unit law of phi_n, and ``in_ring`` re-verification of
witnesses.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import prime_scope as ps
from prime_scope import closure, suite
from prime_scope.errors import IndexDivisible, InverseOfZero
from prime_scope.formulas import TConst


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

class Draw:
    """The seeded input source: free draws plus stratified cycles."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._cycles: dict[str, list[int]] = {}

    def cycle(self, key: str, n: int) -> int:
        """An index in range(n); each index comes once per round, in an
        order shuffled afresh for every round."""
        order = self._cycles.get(key)
        if not order:
            order = list(range(n))
            self.rng.shuffle(order)
            self._cycles[key] = order
        return order.pop()


def field(text: str):
    return ps.NumberField(ps.parse_poly(text))


def pool(K, n: int) -> list:
    """The first n nonzero elements of K in the canonical height order."""
    return list(itertools.islice(ps.elements_by_height(K, include_zero=False), n))


def kpoly(K, coeffs) -> "ps.KPoly":
    """Monic-or-not KPoly from ascending coefficients, each an int/Fraction
    (a rational) or a tuple of power-basis coordinates."""
    return ps.KPoly(
        K, [K.element(c) if isinstance(c, tuple) else K.rational(c) for c in coeffs]
    )


def fmt(x) -> str:
    return ps.format_element(x)


def vp_frac(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational, by integer division only."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def units_at(p: int, candidates) -> list:
    return [u for u in candidates if Fraction(u).numerator % p and Fraction(u).denominator % p]


PRIMES_100 = [p for p in range(2, 100) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class Workload:
    """Base: one schedule block of op kinds, and dispatch by kind."""

    name = ""
    block: list[str] = []
    # answers of the first ``digest_ops`` operations make up the run digest;
    # every run executes at least that many
    digest_ops = 0
    # operations per second of --seconds in the traced run (a fixed count,
    # so that per-layer call counts repeat exactly for a seed)
    trace_ops_per_s = 0

    def stream(self, state, seed: int):
        draw = Draw(seed)
        while True:
            kinds = list(self.block)
            draw.rng.shuffle(kinds)
            for kind in kinds:
                yield kind, getattr(self, "draw_" + kind)(state, draw)

    def run(self, state, kind: str, params):
        return getattr(self, "run_" + kind)(state, params)

    def check(self, state, kind: str, params, answer) -> bool:
        return bool(getattr(self, "check_" + kind)(state, params, answer))

    def show(self, state, kind: str, params, answer):
        """A canonical, JSON-able form of the inputs and the answer."""
        return [kind, getattr(self, "show_" + kind)(state, params, answer)]


# ---------------------------------------------------------------------------
# phi-valuation: formula layer and element arithmetic
# ---------------------------------------------------------------------------

class PhiValuation(Workload):
    name = "phi-valuation"
    block = ["phi"] * 17 + ["chi"] * 3
    digest_ops = 100
    trace_ops_per_s = 22

    POOL = 60
    # tuples per phi operation: a batch keeps the median operation well above
    # a millisecond, where latency follows the host's speed less erratically
    PHI_BATCH = 4
    DEEP_EXPONENTS = (16, 30)
    PLACES = (("X", (2, 3, 5), 4), ("X^2+1", (2, 3, 5), 4), ("X^3-2", (5, 7), 3))
    # (field, p, tau) of the chi family; the prime is the first above p
    CHI = (("X", 5, (1, 1)), ("X", 2, (1, 1)), ("X^2+1", 3, (1, 2)),
           ("X^2+1", 2, (2, 1)), ("X^3-2", 5, (1, 1)))

    def setup(self):
        fields = {text: field(text) for text, _, _ in self.PLACES}
        pools = {text: pool(K, self.POOL) for text, K in fields.items()}
        tables = {}
        combos = []
        for text, primes, nmax in self.PLACES:
            K = fields[text]
            for p in primes:
                for P in ps.primes_above(K, p):
                    pi = self._primitive_uniformizer(P, pools[text])
                    for n in range(1, nmax + 1):
                        key = (p, P.f, n)
                        if key not in tables:
                            tables[key] = ps.build_phi_n(p, P.f, n)
                        g, phi = tables[key]
                        combos.append(SimpleNamespace(
                            label=f"{text}@{p}#{P.index}/n{n}", text=text,
                            P=P, pi=pi, g=g, phi=phi, n=n))
        chis = []
        for text, p, (e, f) in self.CHI:
            P = ps.primes_above(fields[text], p)[0]
            chis.append(SimpleNamespace(
                label=f"{text}@{p}{(e, f)}", text=text, K=fields[text], p=p,
                P=P, tau=ps.PrimeType(e, f)))
        return SimpleNamespace(pools=pools, combos=combos, chis=chis)

    @staticmethod
    def _primitive_uniformizer(P, elements):
        """An element x with v_P(x) = 1 whose coordinates have no common
        factor p, or None.  Where e = 1, P.uniformizer is p itself, and the
        valuation of p^j sits in the content; the valuation of x^j sits in
        the primitive part, where v_P needs lifts past p^16 once j >= 16."""
        if P.e != 1:
            return None
        for x in elements:
            if (ps.valuation(P, x) == 1
                    and min(vp_frac(c, P.p) for c in x.coords if c) == 0):
                return x
        return None

    # phi_n on PHI_BATCH tuples, then v of the inputs and of each result;
    # where the prime has a primitive uniformizer pi, also v(pi^j x) with
    # j in [16, 30] for the first input x
    def draw_phi(self, st, draw):
        c = draw.cycle("phi", len(st.combos))
        n = st.combos[c].n
        batch = tuple(tuple(draw.rng.randrange(self.POOL) for _ in range(n))
                      for _ in range(self.PHI_BATCH))
        j = draw.rng.randint(*self.DEEP_EXPONENTS) if st.combos[c].pi else 0
        return c, batch, j

    def run_phi(self, st, params):
        c, batch, j = params
        case = st.combos[c]
        out = []
        for idx in batch:
            xs = [st.pools[case.text][i] for i in idx]
            vs = [ps.valuation(case.P, x) for x in xs]
            out.append((vs, ps.valuation(case.P, case.phi(xs))))
        deep = None
        if j:
            x = st.pools[case.text][batch[0][0]]
            deep = ps.valuation(case.P, case.pi ** j * x)
        return out, deep

    def check_phi(self, st, params, answer):
        c, batch, j = params
        case = st.combos[c]
        out, deep = answer
        ok = len(out) == len(batch)
        if j:
            # v(pi^j x) = j + v(x), with v(pi) = 1
            ok = ok and deep == j + out[0][0][0]
        for vs, v in out:
            m = min(vs)
            # unit law: v(phi_n(xs)) = 0 exactly when min v(x_i) = 0
            ok = ok and (v == 0) == (m == 0)
            if case.n == 1:
                ok = ok and v == vs[0]
            if case.n == 2:
                ok = ok and v == case.g.degree * m
        return ok

    def show_phi(self, st, params, answer):
        c, batch, j = params
        case = st.combos[c]
        pl = st.pools[case.text]
        return [case.label, [[fmt(pl[i]) for i in idx] for idx in batch], j, answer]

    # emit chi, substitute (t, s), evaluate with R = O_P
    def draw_chi(self, st, draw):
        c = draw.cycle("chi", len(st.chis))
        return c, draw.rng.randrange(self.POOL), draw.rng.randrange(self.POOL)

    def _chi_inputs(self, st, params):
        c, ti, si = params
        case = st.chis[c]
        pl = st.pools[case.text]
        return case, pl[ti], pl[si]

    def run_chi(self, st, params):
        case, t, s = self._chi_inputs(st, params)
        chi = ps.emit_chi(case.p, case.tau)
        closed = ps.substitute(chi, {"t": TConst(t), "s": TConst(s)})
        P = case.P
        try:
            return ps.eval_qf(case.K, case.p, case.tau, closed,
                              r_member=lambda x: ps.in_ring(P, x))
        except InverseOfZero:
            return "InverseOfZero"

    def check_chi(self, st, params, answer):
        case, t, s = self._chi_inputs(st, params)
        want = ps.chi_member(case.P, case.tau, t, s)
        if answer == "InverseOfZero":
            # the formula has no value only where the definitional test is False
            return want is False
        return answer is want

    def show_chi(self, st, params, answer):
        case, t, s = self._chi_inputs(st, params)
        return [case.label, fmt(t), fmt(s), answer]


# ---------------------------------------------------------------------------
# closure-decide: root existence in p-adic and real closures
# ---------------------------------------------------------------------------

class ClosureDecide(Workload):
    name = "closure-decide"
    block = ["shallow"] * 13 + ["order"] * 4 + ["deep"] * 3
    digest_ops = 100
    trace_ops_per_s = 20

    PADIC = (("X", (2, 3, 5, 7)), ("X^2+1", (2, 3, 5, 13)), ("X^2-2", (2, 3, 5, 13)))
    REAL = ("X", "X^2-2", "X^2-3", "X^3-2", "X^3-3X+1")
    # X^2 - u p^(2k): (field, p, k max, units u at p that are not squares
    # in K); u = 1 is always drawn too.  Over Q(i) at 5, u = 1 + i and
    # u = 1 - i (coordinates (1, 1) and (1, -1)) are each a square at one
    # prime above 5 and not at the other.  The root found there is a 5-adic
    # integer, so v(g(y)) sits in the primitive part of g(y), and the
    # valuations in padic_root need lifts past p^16 for targets of 16 and up.
    DEEP = (("X", 5, 3, (2,)), ("X", 3, 4, (2,)), ("X", 2, 4, (3,)),
            ("X^2+1", 2, 2, (3,)), ("X^2+1", 5, 2, ((1, 1), (1, -1))))
    PADIC_ROOT_SHARE = 0.25
    MAX_ROOT_VALUATION = 30

    def setup(self):
        fields = {}

        def K_(text):
            if text not in fields:
                fields[text] = field(text)
            return fields[text]

        places = []
        for text, primes in self.PADIC:
            for p in primes:
                for P in ps.primes_above(K_(text), p):
                    places.append(SimpleNamespace(
                        label=f"{text}@{p}#{P.index}", K=K_(text), P=P, p=p))
        orderings = []
        for text in self.REAL:
            for O in K_(text).orderings():
                orderings.append(SimpleNamespace(label=f"{text}@inf#{O.index}", K=K_(text), O=O))
        deeps = []
        for text, p, kmax, nonsquares in self.DEEP:
            for P in ps.primes_above(K_(text), p):
                for k in range(1, kmax + 1):
                    for u0 in (1, *nonsquares):
                        deeps.append(SimpleNamespace(
                            label=f"{text}@{p}#{P.index}/k{k}/u{u0}",
                            K=K_(text), P=P, p=p, k=k, u0=u0))
        return SimpleNamespace(places=places, orderings=orderings, deeps=deeps)

    def _root_target(self, draw):
        if draw.rng.random() < self.PADIC_ROOT_SHARE:
            return draw.rng.randint(1, self.MAX_ROOT_VALUATION)
        return 0

    def _decide(self, P, g, kt):
        rep = ps.has_root_in_closure(P, g)
        y = ps.padic_root(P, g, kt) if rep.has_root and kt else None
        return rep, y

    def _check_padic(self, case, coeffs, answer, kt):
        rep, y = answer
        g = kpoly(case.K, coeffs)
        if case.K.degree == 1:
            ok = brute_has_root(coeffs, case.p) == rep.has_root
        else:
            ok = closure.verify_root_report(case.P, g, rep)
        if y is not None:
            ok = ok and ps.valuation(case.P, g(y)) >= kt
        return ok

    # shallow random monic polynomials at p-adic places
    def draw_shallow(self, st, draw):
        c = draw.cycle("shallow", len(st.places))
        d = draw.rng.randint(1, 4)
        coeffs = tuple(draw.rng.randint(-5, 5) for _ in range(d)) + (1,)
        return c, coeffs, self._root_target(draw)

    def run_shallow(self, st, params):
        c, coeffs, kt = params
        return self._decide(st.places[c].P, kpoly(st.places[c].K, coeffs), kt)

    def check_shallow(self, st, params, answer):
        c, coeffs, kt = params
        return self._check_padic(st.places[c], coeffs, answer, kt)

    def show_shallow(self, st, params, answer):
        c, coeffs, kt = params
        rep, y = answer
        return [st.places[c].label, coeffs, kt, rep.to_json(), y and fmt(y)]

    # root counts at orderings of real fields (Sturm sequences)
    def draw_order(self, st, draw):
        c = draw.cycle("order", len(st.orderings))
        n = st.orderings[c].K.degree
        d = draw.rng.randint(1, 4)
        coeffs = tuple(
            tuple(draw.rng.randint(-5, 5) for _ in range(n)) for _ in range(d)
        ) + (1,)
        return c, coeffs

    def run_order(self, st, params):
        c, coeffs = params
        case = st.orderings[c]
        return ps.has_root_in_closure(case.O, kpoly(case.K, coeffs))

    def check_order(self, st, params, rep):
        c, coeffs = params
        case = st.orderings[c]
        if case.K.degree == 1:
            want = sympy_real_root_count(tuple(cs[0] if isinstance(cs, tuple) else cs
                                               for cs in coeffs))
            return rep.certificate.get("sturm_count") == want and rep.has_root == (want > 0)
        return closure.verify_root_report(case.O, kpoly(case.K, coeffs), rep)

    def show_order(self, st, params, rep):
        c, coeffs = params
        return [st.orderings[c].label, coeffs, rep.to_json()]

    # deep inputs X^2 - u p^(2k)
    def draw_deep(self, st, draw):
        c = draw.cycle("deep", len(st.deeps))
        p = st.deeps[c].p
        w = draw.rng.choice([w for w in (1, 2, 3, 4) if w % p])
        return c, w, draw.rng.randint(1, self.MAX_ROOT_VALUATION)

    def _deep_coeffs(self, case, w):
        scale = -w * w * case.p ** (2 * case.k)
        if isinstance(case.u0, tuple):
            return (tuple(scale * c for c in case.u0), 0, 1)
        return (scale * case.u0, 0, 1)

    def run_deep(self, st, params):
        c, w, kt = params
        case = st.deeps[c]
        return self._decide(case.P, kpoly(case.K, self._deep_coeffs(case, w)), kt)

    def check_deep(self, st, params, answer):
        c, w, kt = params
        case = st.deeps[c]
        return self._check_padic(case, self._deep_coeffs(case, w), answer, kt)

    def show_deep(self, st, params, answer):
        c, w, kt = params
        rep, y = answer
        return [st.deeps[c].label, w, kt, rep.to_json(), y and fmt(y)]


def brute_has_root(coeffs, p: int) -> bool:
    """Residue-tree oracle over Q, run deep enough to be exact: a residue
    alive at depth 2D+1, D = v_p(disc), carries a Hensel root."""
    g = ps.QPoly([Fraction(c) for c in coeffs])
    h = g.squarefree_part()
    D = vp_frac(h.discriminant(), p) if h.degree > 1 else 0
    return suite.brute_root_in_padic(g, p, depth=max(12, 2 * D + 1))


# The sympy referees are imported lazily, so sympy adds neither to setup_s nor
# to peak_rss_mb, and cached, since the split corpus repeats its fields.
@functools.lru_cache(maxsize=None)
def sympy_real_root_count(coeffs: tuple) -> int:
    """Distinct real roots of a rational polynomial, by sympy."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x**k
               for k, c in enumerate(coeffs))
    return len(sympy.Poly(expr, x).sqf_part().real_roots())


@functools.lru_cache(maxsize=None)
def sympy_factor_mod_p(coeffs: tuple, p: int) -> list:
    """[(ascending coefficient tuple, multiplicity)] of the monic
    factorization of an integer polynomial mod p, sorted."""
    import sympy

    x = sympy.Symbol("x")
    expr = sum(int(c) * x**k for k, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, x, modulus=p, symmetric=False).factor_list()
    return sorted(
        (tuple(int(c) % p for c in reversed(f.all_coeffs())), int(m)) for f, m in factors
    )


@functools.lru_cache(maxsize=None)
def sympy_discriminant(coeffs: tuple) -> int:
    import sympy

    x = sympy.Symbol("x")
    return int(sympy.discriminant(sum(int(c) * x**k for k, c in enumerate(coeffs)), x))


# ---------------------------------------------------------------------------
# split-witness: cold splitting, witness searches, sums of squares
# ---------------------------------------------------------------------------

class SplitWitness(Workload):
    name = "split-witness"
    block = (["split"] * 30 + ["dpadic"] * 3
             + ["dorder", "ud", "weak", "zgroup"]
             + ["four_int", "four_rat", "kochen", "level", "noshort_q", "noshort_m2"])
    digest_ops = 100
    trace_ops_per_s = 25

    POOL = 30
    SPLIT_PRIMES = 3
    WARM = {"X": (2, 3, 5, 7), "X^2+1": (2, 3, 5, 13), "X^2-2": (2, 3, 7, 17)}
    # (field, p) with at least two primes above p
    MULTI = (("X^2+1", 5), ("X^2+1", 13), ("X^2-2", 7), ("X^2-2", 17))
    UNITS = (1, 2, 3, 7, Fraction(1, 3), Fraction(3, 7))
    ORDER_RADII = (1, 2, Fraction(1, 2), Fraction(1, 100), 5, Fraction(3, 7))
    NOSHORT_Q = ((3, (100, 200, 300)), (7, (100, 200, 300)), (11, (100, 200, 300)))
    # height 5 costs 0.4-0.75 s a call and would take half the workload's time
    NOSHORT_M2 = (3, 4)

    def setup(self):
        fields = {text: field(text) for text in self.WARM}
        pools = {text: pool(K, self.POOL) for text, K in fields.items()}
        places = []
        for text, primes in self.WARM.items():
            for p in primes:
                for P in ps.primes_above(fields[text], p):
                    places.append(SimpleNamespace(label=f"{text}@{p}#{P.index}",
                                                  text=text, K=fields[text], P=P, p=p))
        orderings = []
        for text, K in fields.items():
            for O in K.orderings():
                orderings.append(SimpleNamespace(label=f"{text}@inf#{O.index}",
                                                 text=text, K=K, O=O))
        multi = []
        for text, p in self.MULTI:
            multi.append(SimpleNamespace(label=f"{text}@{p}", text=text, K=fields[text],
                                         p=p, S=ps.primes_above(fields[text], p)))
        Q = fields["X"]
        noshort_q = []
        for p, bounds in self.NOSHORT_Q:
            for bound in bounds:
                noshort_q.append(SimpleNamespace(label=f"X@{p}/b{bound}",
                                                 P=ps.primes_above(Q, p)[0], bound=bound))
        M2 = field("X^2+2")
        P3 = ps.primes_above(M2, 3)[0]
        return SimpleNamespace(fields=fields, pools=pools, places=places,
                               orderings=orderings, multi=multi, noshort_q=noshort_q,
                               Q=Q, M2=M2, P3=P3)

    # cold splitting: a fresh field, SPLIT_PRIMES primes below 100, orderings
    def draw_split(self, st, draw):
        return (draw.rng.choice(suite.FIELD_CORPUS),
                tuple(draw.rng.sample(PRIMES_100, self.SPLIT_PRIMES)))

    def run_split(self, st, params):
        text, ps_ = params
        K = ps.NumberField(ps.parse_poly(text))
        facs = []
        for p in ps_:
            try:
                facs.append(sorted((P.e, P.f, tuple(P.hbar)) for P in ps.primes_above(K, p)))
            except IndexDivisible:
                facs.append("IndexDivisible")
        return facs, len(K.orderings())

    def check_split(self, st, params, answer):
        text, ps_ = params
        facs, n_ord = answer
        f = tuple(int(c) for c in ps.parse_poly(text).coeffs)
        if n_ord != sympy_real_root_count(f):
            return False
        for p, fac in zip(ps_, facs):
            if fac == "IndexDivisible":
                # p | [O_K : Z[alpha]] needs p^2 | disc(f)
                if sympy_discriminant(f) % (p * p):
                    return False
                continue
            if sum(e * fd for e, fd, _ in fac) != len(f) - 1:
                return False
            if sorted((h, e) for e, _, h in fac) != sympy_factor_mod_p(f, p):
                return False
        return len(facs) == len(ps_)

    def show_split(self, st, params, answer):
        facs, n_ord = answer
        return [*params, [fac if isinstance(fac, str) else [list(x) for x in fac]
                          for fac in facs], n_ord]

    # witness searches on warm fields; g = (X - r) h has the root r
    def _g(self, pl, draw):
        r = draw.rng.randrange(len(pl))
        h = tuple(draw.rng.randint(-3, 3) for _ in range(draw.rng.randint(0, 2))) + (1,)
        return r, h

    def _build_g(self, K, pl, r, h):
        return ps.KPoly(K, [-pl[r], K.one()]) * kpoly(K, h)

    @staticmethod
    def _defining(P, g, a, x) -> bool:
        K = a.field
        return ps.in_ring(P, K.one() - g(x) ** 2 * a.inverse() ** 2)

    def draw_dpadic(self, st, draw):
        c = draw.cycle("dpadic", len(st.places))
        case = st.places[c]
        r, h = self._g(st.pools[case.text], draw)
        return c, r, h, draw.rng.randint(0, 6), draw.rng.choice(units_at(case.p, self.UNITS))

    def _dpadic_inputs(self, st, params):
        c, r, h, j, u = params
        case = st.places[c]
        g = self._build_g(case.K, st.pools[case.text], r, h)
        return case, g, case.P.uniformizer ** j * case.K.rational(u)

    def run_dpadic(self, st, params):
        case, g, a = self._dpadic_inputs(st, params)
        return ps.d_witness(case.P, g, a).witness

    def check_dpadic(self, st, params, x):
        case, g, a = self._dpadic_inputs(st, params)
        return self._defining(case.P, g, a, x)

    def show_dpadic(self, st, params, x):
        return [st.places[params[0]].label, *params[1:4], str(params[4]), fmt(x)]

    def draw_dorder(self, st, draw):
        c = draw.cycle("dorder", len(st.orderings))
        case = st.orderings[c]
        r, h = self._g(st.pools[case.text], draw)
        return c, r, h, draw.rng.choice(self.ORDER_RADII)

    def _dorder_inputs(self, st, params):
        c, r, h, a = params
        case = st.orderings[c]
        return case, self._build_g(case.K, st.pools[case.text], r, h), case.K.rational(a)

    def run_dorder(self, st, params):
        case, g, a = self._dorder_inputs(st, params)
        return ps.d_witness(case.O, g, a).witness

    def check_dorder(self, st, params, x):
        case, g, a = self._dorder_inputs(st, params)
        return self._defining(case.O, g, a, x)

    def show_dorder(self, st, params, x):
        return [st.orderings[params[0]].label, *params[1:3], str(params[3]), fmt(x)]

    def draw_ud(self, st, draw):
        c = draw.cycle("multi", len(st.multi))
        case = st.multi[c]
        r, h = self._g(st.pools[case.text], draw)
        return c, r, h, draw.rng.randint(1, 3)

    def _ud_inputs(self, st, params):
        c, r, h, j = params
        case = st.multi[c]
        g = self._build_g(case.K, st.pools[case.text], r, h)
        return case, g, case.K.rational(case.p ** j)

    def run_ud(self, st, params):
        case, g, a = self._ud_inputs(st, params)
        return ps.ud_witness(case.K, case.S, g, a).witness

    def check_ud(self, st, params, x):
        case, g, a = self._ud_inputs(st, params)
        return all(self._defining(P, g, a, x) for P in case.S)

    def show_ud(self, st, params, x):
        return [st.multi[params[0]].label, *params[1:], fmt(x)]

    def draw_weak(self, st, draw):
        c = draw.cycle("weak", len(st.multi))
        case = st.multi[c]
        units = units_at(case.p, self.UNITS)
        return c, tuple((draw.rng.randint(-3, 5), draw.rng.choice(units)) for _ in case.S)

    def _weak_targets(self, st, params):
        c, spec = params
        case = st.multi[c]
        return case, [P.uniformizer ** m * case.K.rational(u) for P, (m, u) in zip(case.S, spec)]

    def run_weak(self, st, params):
        case, zs = self._weak_targets(st, params)
        return ps.weak_approx_value(case.K, [([P], z) for P, z in zip(case.S, zs)])

    def check_weak(self, st, params, z):
        case, zs = self._weak_targets(st, params)
        if z.is_zero:
            return False
        # v_P(z) = v_P(z_i) exactly when z / z_i is a unit at P
        return all(ps.in_ring(P, z / zi) and ps.in_ring(P, zi / z) for P, zi in zip(case.S, zs))

    def show_weak(self, st, params, z):
        return [st.multi[params[0]].label, [[m, str(u)] for m, u in params[1]], fmt(z)]

    def draw_zgroup(self, st, draw):
        c = draw.cycle("zgroup", len(st.places))
        return c, draw.rng.randint(1, 3), draw.rng.randrange(self.POOL)

    def _zgroup_inputs(self, st, params):
        c, n, yi = params
        case = st.places[c]
        return case, ps.PrimeType(case.P.e, case.P.f), n, st.pools[case.text][yi]

    def run_zgroup(self, st, params):
        case, tau, n, y = self._zgroup_inputs(st, params)
        return ps.zgroup_witness(case.K, case.p, tau, n, y)

    def check_zgroup(self, st, params, xs):
        case, tau, n, y = self._zgroup_inputs(st, params)
        K = case.K
        efact = math.factorial(tau.e)
        for P in ps.primes_above(K, case.p):
            if (P.e, P.f) != (tau.e, tau.f):
                continue
            terms = [y ** efact * K.rational(case.p ** i) * xs[i] ** n for i in range(n)]
            if any(t.is_zero or not ps.in_ring(P, t) for t in terms):
                return False
            if not any(ps.in_ring(P, t.inverse()) for t in terms):
                return False
        return len(xs) == n

    def show_zgroup(self, st, params, xs):
        return [st.places[params[0]].label, *params[1:], [fmt(x) for x in xs]]

    # sums of squares
    def draw_four_int(self, st, draw):
        return int(10 ** draw.rng.uniform(6, 10))

    def run_four_int(self, st, n):
        return ps.four_squares(n).parts

    def check_four_int(self, st, n, parts):
        return len(parts) == 4 and sum(c * c for c in parts) == n

    def show_four_int(self, st, n, parts):
        return [n, [str(c) for c in parts]]

    def draw_four_rat(self, st, draw):
        return Fraction(draw.rng.randrange(1, 10**6), draw.rng.randrange(1, 10**3))

    run_four_rat = run_four_int
    check_four_rat = check_four_int

    def show_four_rat(self, st, q, parts):
        return [str(q), [str(c) for c in parts]]

    def draw_kochen(self, st, draw):
        p = draw.rng.choice((2, 3, 5, 7))
        return p, Fraction(draw.rng.randrange(-60, 61), draw.rng.randrange(1, 40))

    def run_kochen(self, st, params):
        p, x = params
        val = ps.kochen(p, st.Q.rational(x))
        return val.value.as_fraction() if val.is_defined else None

    def check_kochen(self, st, params, value):
        p, x = params
        w = x**p - x
        d = w * w - 1
        if d == 0:
            return value is None
        want = w / (p * d)
        return value == want and (want == 0 or vp_frac(want, p) >= 0)

    def show_kochen(self, st, params, value):
        return [params[0], str(params[1]), None if value is None else str(value)]

    def draw_level(self, st, draw):
        return draw.rng.choice(PRIMES_100), draw.rng.randint(1, 3)

    def run_level(self, st, params):
        return ps.level_finite_field(*params)

    def check_level(self, st, params, level):
        p, f = params
        # -1 is a square in F_q exactly when q = 1 mod 4 (or p = 2)
        return level == (1 if p == 2 or p**f % 4 == 1 else 2)

    def show_level(self, st, params, level):
        return [*params, level]

    def draw_noshort_q(self, st, draw):
        c = draw.cycle("noshort_q", len(st.noshort_q))
        return c, draw.rng.choice((1, 2, Fraction(1, 2)))

    def run_noshort_q(self, st, params):
        c, u = params
        case = st.noshort_q[c]
        Q = st.Q
        res = ps.no_short_representation_check(
            case.P, kpoly(Q, (1, 0, 1)), Q.rational(case.P.p * u), 2, case.bound)
        return res.status, res.searched

    def check_noshort_q(self, st, params, answer):
        # g = X^2 + 1 has no root mod p = 3 mod 4 and v_p(eps) = 1: certified
        return answer[0] == "Certified" and answer[1] > 0

    def show_noshort_q(self, st, params, answer):
        return [st.noshort_q[params[0]].label, str(params[1]), *answer]

    def draw_noshort_m2(self, st, draw):
        height = self.NOSHORT_M2[draw.cycle("noshort_m2", len(self.NOSHORT_M2))]
        return height, draw.rng.choice(((1, 0, 1), (2, 1, 1))), draw.rng.choice((1, 2))

    def run_noshort_m2(self, st, params):
        height, g, u = params
        res = ps.no_short_representation_check(
            st.P3, kpoly(st.M2, g), st.M2.rational(3 * u), 2, height)
        return res.status, res.searched

    def check_noshort_m2(self, st, params, answer):
        return answer[0] == "Certified" and answer[1] > 0

    def show_noshort_m2(self, st, params, answer):
        return [*params, *answer]


WORKLOADS = {w.name: w for w in (PhiValuation(), ClosureDecide(), SplitWitness())}
