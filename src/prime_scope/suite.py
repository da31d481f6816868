"""Self-contained acceptance corpus with a deterministic JSON transcript.

Every case freezes its corpus with fixed seeds, so two runs of run_suite with
the same Config produce byte-identical transcripts: no timestamps, no
machine-dependent ordering, cases sorted by id.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from .config import DEFAULT, Config
from .closure import has_root_in_closure
from .dense import d_witness, ud_witness, zgroup_witness
from .errors import IndexDivisible, InverseOfZero, PrimeScopeError
from .ffield import is_prime
from .formulas import TConst, build_phi_n, emit_chi, eval_qf, prove_nu, substitute
from .numberfield import KPoly, elements_by_height, nf_create
from .primes import (
    PrimeType,
    chi_member,
    in_ring,
    primes_above,
    valuation,
)
from .qpoly import QPoly, parse_poly
from .squares import four_squares, kochen, level_finite_field, no_short_representation_check


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# case 1: splitting
# ---------------------------------------------------------------------------

FIELD_CORPUS = [
    "X",
    "X^2+1",
    "X^2-2",
    "X^2-3",
    "X^2-5",
    "X^2+2",
    "X^2+3",
    "X^2+5",
    "X^2+X+1",
    "X^2+X+2",
    "X^2-X-1",
    "X^3-2",
    "X^3-3",
    "X^3+X+1",
    "X^3-X-1",
    "X^3+2X+1",
    "X^3+X^2+1",
    "X^4+X+1",
    "X^4-X-1",
    "X^4+X^3+X^2+X+1",
]

GAUSS_TABLE = {2: [(2, 1)], 3: [(1, 2)], 5: [(1, 1), (1, 1)], 13: [(1, 1), (1, 1)]}


def case_splitting(config: Config = DEFAULT):
    checked = skipped = 0
    for text in FIELD_CORPUS:
        K = nf_create(text)
        for p in _primes_upto(50):
            try:
                primes = primes_above(K, p)
            except IndexDivisible:
                skipped += 1
                continue
            if sum(P.e * P.f for P in primes) != K.degree:
                return False, f"sum e*f != degree for {text} at {p}"
            checked += 1
    gauss = nf_create("X^2+1")
    for p, want in sorted(GAUSS_TABLE.items()):
        got = sorted((P.e, P.f) for P in primes_above(gauss, p))
        if got != sorted(want):
            return False, f"Gauss table mismatch at {p}: {got}"
    return True, f"{len(FIELD_CORPUS)} fields, {checked} splittings fundamental-identity-exact, {skipped} index-divisible skips"


# ---------------------------------------------------------------------------
# case 2: denseness witnesses
# ---------------------------------------------------------------------------


def _random_monic(K, rng, max_deg):
    deg = rng.randrange(1, max_deg + 1)
    coeffs = [K.rational(Fraction(rng.randrange(-6, 7))) for _ in range(deg)]
    return KPoly(K, coeffs + [K.one()])


def case_dense_witnesses(config: Config = DEFAULT):
    rng = random.Random(101)
    fields = [nf_create("X"), nf_create("X^2+1"), nf_create("X^2-2")]
    unit_pool = [1, 2, 3, 7, 9, Fraction(1, 3), Fraction(3, 7)]
    padic = 0
    while padic < 100:
        K = fields[padic % len(fields)]
        p = rng.choice(_primes_upto(50))
        try:
            primes = primes_above(K, p)
        except IndexDivisible:
            continue
        P = rng.choice(primes)
        g = _random_monic(K, rng, 4)
        if not has_root_in_closure(P, g):
            continue
        j = rng.randrange(0, 13)
        u = rng.choice([c for c in unit_pool if Fraction(c).numerator % p and Fraction(c).denominator % p])
        a = P.uniformizer**j * K.rational(u)
        w = d_witness(P, g, a, config)
        r = K.one() - g(w.witness) ** 2 * (a.inverse()) ** 2
        if not in_ring(P, r):
            return False, f"p-adic defining membership failed at {p}"
        padic += 1
    ordering_cases = 0
    real_fields = [nf_create("X"), nf_create("X^2-2"), nf_create("X^2-3")]
    while ordering_cases < 50:
        K = real_fields[ordering_cases % len(real_fields)]
        P = rng.choice(K.orderings())
        g = _random_monic(K, rng, 4)
        if not has_root_in_closure(P, g):
            continue
        a = K.rational(rng.choice([1, 2, Fraction(1, 2), Fraction(1, 100), 5, Fraction(3, 7)]))
        w = d_witness(P, g, a, config)
        r = K.one() - g(w.witness) ** 2 * (a.inverse()) ** 2
        if not in_ring(P, r):
            return False, "ordering defining membership failed"
        ordering_cases += 1
    return True, "100 p-adic + 50 ordering witnesses, defining membership re-verified exactly in all 150"


# ---------------------------------------------------------------------------
# case 3: phi_n law
# ---------------------------------------------------------------------------


def case_phi_law(config: Config = DEFAULT):
    rng = random.Random(202)
    fields = [nf_create("X"), nf_create("X^2+1")]
    combos = [(K, p, n) for K in fields for p in (2, 3, 5) for n in (1, 2, 3, 4)]
    per = math.ceil(10**4 / len(combos))
    total = 0
    for K, p, n in combos:
        pools = {}
        for P in primes_above(K, p):
            g, phi = build_phi_n(p, P.f, n)
            pool = pools.setdefault(
                K, [x for x in itertools.islice(elements_by_height(K), 60) if not x.is_zero]
            )
            for _ in range(per):
                xs = [rng.choice(pool) for _ in range(n)]
                vs = [valuation(P, x) for x in xs]
                v = valuation(P, phi(xs))
                if (v == 0) != (min(vs) == 0):
                    return False, f"unit law broken at p={p} n={n}"
                if n == 2 and v != g.degree * min(vs):
                    return False, f"exact phi_2 identity broken at p={p}"
                total += 1
    return True, f"{total} tuples, unit law and exact phi_2 identity hold in every sample"


# ---------------------------------------------------------------------------
# case 4: Z-group axioms
# ---------------------------------------------------------------------------


def case_zgroup_axioms(config: Config = DEFAULT):
    Q = nf_create("X")
    tau = PrimeType(1, 1)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            verdict = prove_nu(Q, p, tau, n)
            if verdict.status != "Proven":
                return False, f"nu({p},(1,1),{n}) not proven: {verdict.status}"
    # worked instance: p=5, n=2, y=5 reproduces the unit 31
    y = Q.rational(5)
    xs = zgroup_witness(Q, 5, tau, 2, y)
    _, phi = build_phi_n(5, 1, 2)
    val = phi([y * xs[0] ** 2, y * Q.rational(5) * xs[1] ** 2])
    P5 = primes_above(Q, 5)[0]
    if val != Q.rational(31) or valuation(P5, val) != 0:
        return False, f"worked instance gave {val}, not 31"
    return True, "nu proven for p in {2,3,5}, n <= 4; worked instance lands on the unit 31"


# ---------------------------------------------------------------------------
# case 5: closure-root oracle equivalence
# ---------------------------------------------------------------------------


def _eval_mod(ic: list[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(ic):
        acc = (acc * x + c) % mod
    return acc


def _tree_has_root(ic: list[int], p: int, depth: int, initial) -> bool:
    mod = p
    survivors = [r for r in initial if _eval_mod(ic, r, mod) == 0]
    for _ in range(depth - 1):
        if not survivors:
            return False
        mod *= p
        step = mod // p
        survivors = [
            r + t * step
            for r in survivors
            for t in range(p)
            if _eval_mod(ic, r + t * step, mod) == 0
        ]
    return bool(survivors)


def brute_root_in_padic(g: QPoly, p: int, depth: int = 12) -> bool:
    """Depth-bounded residue-tree oracle: a root in the p-adics reduces to a
    root mod p^k for every k, so an empty tree at any level refutes; a branch
    alive at depth 12 is taken as existence (the corpus discriminants are far
    too small for a deeper obstruction).  Negative-valuation roots are found
    through the reversed polynomial restricted to the residue 0 branch."""
    h = g.squarefree_part()
    scale = math.lcm(*(c.denominator for c in h.coeffs))
    ic = [int(c * scale) for c in h.coeffs]
    if _tree_has_root(ic, p, depth, range(p)):
        return True
    rev = list(reversed(ic))
    while rev and rev[-1] == 0:
        rev.pop()
    if len(rev) <= 1:
        return False
    return _tree_has_root(rev, p, depth, [0])


def case_closure_oracle(config: Config = DEFAULT):
    Q = nf_create("X")
    span = range(-5, 6)
    compared = 0
    for p in (2, 3, 5, 7):
        P = primes_above(Q, p)[0]
        for deg in (1, 2, 3):
            for tail in itertools.product(span, repeat=deg):
                qp = QPoly([Fraction(c) for c in tail] + [Fraction(1)])
                g = KPoly.from_qpoly(Q, qp)
                mine = bool(has_root_in_closure(P, g))
                brute = brute_root_in_padic(qp, p)
                if mine != brute:
                    return False, f"disagreement at p={p}, g={tail}+X^{deg}"
                compared += 1
    return True, f"{compared} exhaustive comparisons, zero disagreements"


# ---------------------------------------------------------------------------
# case 6: UD merge
# ---------------------------------------------------------------------------


def case_ud_merge(config: Config = DEFAULT):
    gauss = nf_create("X^2+1")
    S = primes_above(gauss, 13)
    g = KPoly.from_qpoly(gauss, parse_poly("X^2-3"))
    a = gauss.rational(169)
    w = ud_witness(gauss, S, g, a, config)
    if w.witness != gauss.rational(108):
        return False, f"pinned witness drifted: {w.witness}"
    for P in S:
        if not in_ring(P, gauss.one() - g(w.witness) ** 2 * (a.inverse()) ** 2):
            return False, "pinned case membership failed"
    rng = random.Random(303)
    split = {"X^2+1": [5, 13, 17, 29, 37, 41], "X^2-2": [7, 17, 23, 31, 41, 47]}
    done = 0
    while done < 20:
        text = rng.choice(list(split))
        K = nf_create(text)
        p = rng.choice(split[text])
        S = primes_above(K, p)
        gg = _random_monic(K, rng, 2)
        if not all(has_root_in_closure(P, gg) for P in S):
            continue
        aa = K.rational(p) ** rng.randrange(1, 4)
        w = ud_witness(K, S, gg, aa, config)
        for P in S:
            if not in_ring(P, K.one() - gg(w.witness) ** 2 * (aa.inverse()) ** 2):
                return False, f"randomized case membership failed at {p}"
        done += 1
    return True, "pinned two-prime witness 108 plus 20 randomized merges, all re-verified at every prime"


# ---------------------------------------------------------------------------
# case 7: Kochen integrality
# ---------------------------------------------------------------------------


def case_kochen(config: Config = DEFAULT):
    Q = nf_create("X")
    rng = random.Random(404)
    checked = 0
    while checked < 10**4:
        p = rng.choice((2, 3, 5, 7))
        P = primes_above(Q, p)[0]
        x = Q.rational(Fraction(rng.randrange(-60, 61), rng.randrange(1, 40)))
        v = kochen(p, x)
        if not v.is_defined:
            continue
        if not v.value.is_zero and valuation(P, v.value) < 0:
            return False, f"gamma_{p}({x}) has negative valuation"
        checked += 1
    return True, "10000 defined gamma values, v_p >= 0 in every case"


# ---------------------------------------------------------------------------
# case 8: four squares
# ---------------------------------------------------------------------------


def case_four_squares(config: Config = DEFAULT):
    for n in range(10**4 + 1):
        dec = four_squares(n)
        if sum(c * c for c in dec.parts) != n:
            return False, f"reconstruction failed at {n}"
    return True, "all integers <= 10000 decomposed and re-summed exactly"


# ---------------------------------------------------------------------------
# case 9: short representations and levels
# ---------------------------------------------------------------------------


def case_no_short_and_levels(config: Config = DEFAULT):
    Q = nf_create("X")
    P3 = primes_above(Q, 3)[0]
    r = no_short_representation_check(
        P3, KPoly.from_qpoly(Q, parse_poly("X^2+1")), Q.rational(3), 2, 1000
    )
    if r.status != "Certified":
        return False, f"pinned check not certified: {r.status}"
    for p in _primes_upto(499):
        if p == 2:
            continue
        if (level_finite_field(p, 1) == 1) != (p % 4 == 1):
            return False, f"level law broken at {p}"
    return True, f"pinned case certified over {r.searched} candidates; level table exact for odd p < 500"


# ---------------------------------------------------------------------------
# case 10: chi consistency
# ---------------------------------------------------------------------------


def case_chi_consistency(config: Config = DEFAULT):
    rng = random.Random(505)
    Q = nf_create("X")
    gauss = nf_create("X^2+1")
    setups = [
        (Q, 5, PrimeType(1, 1)),
        (Q, 2, PrimeType(1, 1)),
        (gauss, 3, PrimeType(1, 2)),
        (gauss, 2, PrimeType(2, 1)),
    ]
    # the flagged degenerate: s a root of unity kills a divisor block, so the
    # formula has no value while the definitional test answers False.  It is
    # excluded from the agreement count and logged.
    P5 = primes_above(Q, 5)[0]
    chi5 = emit_chi(5, PrimeType(1, 1))
    degenerate = substitute(chi5, {"t": TConst(Q.rational(5)), "s": TConst(Q.one())})
    try:
        eval_qf(Q, 5, PrimeType(1, 1), degenerate, r_member=lambda x: in_ring(P5, x))
        return False, "flagged s-degenerate case unexpectedly evaluated"
    except InverseOfZero:
        pass
    if chi_member(P5, PrimeType(1, 1), Q.rational(5), Q.one()) is not False:
        return False, "flagged s-degenerate case: definitional test drifted"
    pools = {}
    checked = 0
    excluded = 1
    while checked < 200:
        K, p, tau = setups[(checked + excluded) % len(setups)]
        P = primes_above(K, p)[0]
        chi = emit_chi(p, tau)
        pool = pools.setdefault(
            K, [x for x in itertools.islice(elements_by_height(K), 60) if not x.is_zero]
        )
        t, s = rng.choice(pool), rng.choice(pool)
        closed = substitute(chi, {"t": TConst(t), "s": TConst(s)})
        try:
            got = eval_qf(K, p, tau, closed, r_member=lambda x: in_ring(P, x))
        except InverseOfZero:
            # s-degenerate: a root of unity zeroes a divisor block; the
            # definitional test says false, the formula has no value
            excluded += 1
            continue
        if got != chi_member(P, tau, t, s):
            return False, f"chi mismatch at p={p} t={t} s={s}"
        checked += 1
    return True, (
        f"200 agreements; {excluded} s-degenerate case(s) excluded: formula "
        "value undefined where the definitional test answers False"
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CASES = [
    ("01-splitting", case_splitting),
    ("02-dense-witnesses", case_dense_witnesses),
    ("03-phi-law", case_phi_law),
    ("04-zgroup-axioms", case_zgroup_axioms),
    ("05-closure-oracle", case_closure_oracle),
    ("06-ud-merge", case_ud_merge),
    ("07-kochen-integrality", case_kochen),
    ("08-four-squares", case_four_squares),
    ("09-no-short-and-levels", case_no_short_and_levels),
    ("10-chi-consistency", case_chi_consistency),
]


def run_suite(config: Config = DEFAULT) -> dict:
    """Run every case; the result dict is stable across runs (no clocks, no
    machine state, fixed seeds)."""
    results = []
    for case_id, fn in sorted(CASES):
        try:
            ok, detail = fn(config)
        except PrimeScopeError as exc:
            ok, detail = False, f"{exc.code}: {exc.detail}"
        results.append({"id": case_id, "ok": ok, "detail": detail})
    passed = sum(1 for r in results if r["ok"])
    return {
        "suite": "acceptance",
        "passed": passed,
        "failed": len(results) - passed,
        "cases": results,
    }


def transcript(config: Config = DEFAULT) -> str:
    return json.dumps(run_suite(config), sort_keys=True, separators=(",", ":")) + "\n"
