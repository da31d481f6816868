import itertools
import math
import random
import sys
from dataclasses import fields

import pytest
from fractions import Fraction

import prime_scope.formulas as formulas_module
from prime_scope.errors import FormulaSyntaxError, InverseOfZero, Unsupported
from prime_scope.ffield import is_irreducible
from prime_scope.formulas import (
    EvalVerdict,
    FAll,
    FAnd,
    FEq,
    FEx,
    FImp,
    FNot,
    FOr,
    FR,
    MPoly,
    TAdd,
    TConst,
    TInv,
    TMul,
    TVar,
    build_phi_n,
    emit_chi,
    emit_nu,
    eval_bounded,
    eval_qf,
    parse_formula,
    print_formula,
    prove_nu,
    r_unit,
    rootless_poly,
    substitute,
)
from prime_scope.numberfield import NumberField, elements_by_height
from prime_scope.primes import (
    PrimeType,
    chi_member,
    in_ring,
    primes_above,
    valuation,
)
from prime_scope.qpoly import QPoly, parse_poly

from test_goldens import CLI_GOLDENS, GOLDEN_DIR, _render

Q = NumberField(parse_poly("X"))
GAUSS = NumberField(parse_poly("X^2+1"))
T11 = PrimeType(1, 1)


# ---------------------------------------------------------------------------
# terms and constants
# ---------------------------------------------------------------------------


def test_tconst_normalizes_rational_field_element():
    assert TConst(Q.rational(Fraction(3, 2))) == TConst(Fraction(3, 2))


def test_tconst_strips_trailing_zeros():
    assert TConst((Fraction(5), Fraction(0))) == TConst(Fraction(5))
    assert TConst(GAUSS.element([3, 2])) == TConst((Fraction(3), Fraction(2)))


def test_tconst_accepts_int():
    assert TConst(7) == TConst(Fraction(7))


def _node_pairs():
    """(node, field-equal copy) for each node class; the TConst copies are
    the normal forms of an int, a tuple with a trailing zero and a
    FieldElement."""
    x, two = TVar("x"), TConst(2)
    r = FR(x)
    return [
        (TConst(7), TConst(Fraction(7))),
        (TConst((Fraction(5), Fraction(0))), TConst(Fraction(5))),
        (TConst(GAUSS.element([3, 2])), TConst((Fraction(3), Fraction(2)))),
        (x, TVar("x")),
        (TAdd(x, two), TAdd(TVar("x"), TConst(2))),
        (TMul(x, two), TMul(TVar("x"), TConst(2))),
        (TInv(x), TInv(TVar("x"))),
        (FEq(x, two), FEq(TVar("x"), TConst(2))),
        (r, FR(TVar("x"))),
        (FNot(r), FNot(FR(x))),
        (FAnd([r, r]), FAnd((r, FR(x)))),
        (FOr([r, FNot(r)]), FOr((r, FNot(r)))),
        (FImp(r, r), FImp(FR(x), r)),
        (FAll("x", r), FAll("x", FR(x))),
        (FEx("x", r), FEx("x", FR(x))),
    ]


def test_term_hashing():
    a = TMul(TVar("x"), TConst(2))
    b = TMul(TVar("x"), TConst(2))
    assert a == b and hash(a) == hash(b)
    assert a != TMul(TConst(2), TVar("x"))
    assert TAdd(TVar("x"), TConst(2)) != a
    for node, copy in _node_pairs():
        assert node == copy and hash(node) == hash(copy)
        assert repr(node) == print_formula(node)
    assert len({type(node) for node, _ in _node_pairs()}) == 13


def test_nary_connectives_need_two_args():
    with pytest.raises(ValueError):
        FAnd((FR(TVar("x")),))


# ---------------------------------------------------------------------------
# phi_n
# ---------------------------------------------------------------------------


def test_rootless_poly_2_1():
    g = rootless_poly(2, 1)
    assert g == parse_poly("X^2+X+1")


def test_rootless_poly_5_1_constant_major_scan():
    # the scan orders candidates by constant coefficient first, so X^2+X+1
    # (constant 1) beats X^2+2 (constant 2)
    assert rootless_poly(5, 1) == parse_poly("X^2+X+1")


def test_rootless_poly_degree_is_least_prime_above_f():
    assert rootless_poly(2, 1).degree == 2
    assert rootless_poly(2, 2).degree == 3
    assert rootless_poly(3, 3).degree == 5


def _rootless_reference(p, f_abs):
    """The full constant-coefficient-major scan from code 0."""
    ell = f_abs + 1
    while any(ell % d == 0 for d in range(2, ell)):
        ell += 1
    for code in range(p**ell):
        coeffs = [(code // p ** (ell - 1 - i)) % p for i in range(ell)]
        if is_irreducible(tuple(coeffs + [1]), p):
            return QPoly([Fraction(c) for c in coeffs] + [Fraction(1)])
    raise AssertionError("no irreducible polynomial")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("f_abs", [1, 2, 3, 4])
def test_rootless_poly_equals_full_scan(p, f_abs):
    assert rootless_poly(p, f_abs) == _rootless_reference(p, f_abs)


@pytest.mark.parametrize("f_abs", [0, -3])
def test_rootless_poly_rejects_nonpositive_f(f_abs):
    with pytest.raises(ValueError):
        rootless_poly(7, f_abs)
    with pytest.raises(ValueError):
        build_phi_n(7, f_abs, 1)


@pytest.mark.parametrize(
    "p, f_abs, want",
    [(13, 5, "X^7+10*X^6+1"), (101, 10, "X^11+22*X^10+1")],
)
def test_rootless_poly_large_degree_is_fast(p, f_abs, want, wall_clock_limit):
    # the scan skips the p^(l-1) candidates with c_0 = 0, so these take
    # milliseconds; a scan through them would need p^(l-1) tests
    with wall_clock_limit(2.0):
        g = rootless_poly(p, f_abs)
    assert g == parse_poly(want)


def test_phi_1_is_the_variable():
    _, phi = build_phi_n(5, 1, 1)
    assert phi == MPoly.var(1, 0)


def test_phi_2_at_p2():
    g, phi = build_phi_n(2, 1, 2)
    assert g == parse_poly("X^2+X+1")
    assert phi == MPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_phi_2_5_1_evaluates_to_31():
    _, phi = build_phi_n(5, 1, 2)
    assert phi([Q.rational(5), Q.rational(1)]) == Q.rational(31)


def test_phi_3_total_degree():
    _, phi = build_phi_n(2, 1, 3)
    assert max(sum(e) for e in phi.terms) == 4


def test_phi_law_exact_for_phi2():
    rng = random.Random(7)
    for K in (Q, GAUSS):
        for p in (2, 3, 5):
            for P in primes_above(K, p):
                g, phi = build_phi_n(p, P.f, 2)
                pool = [
                    x
                    for x in itertools.islice(elements_by_height(K), 40)
                    if not x.is_zero
                ]
                for _ in range(60):
                    x, y = rng.choice(pool), rng.choice(pool)
                    got = valuation(P, phi([x, y]))
                    assert got == g.degree * min(valuation(P, x), valuation(P, y))


def test_phi_law_unit_detection_n_3_and_4():
    rng = random.Random(8)
    for p in (2, 5):
        P = primes_above(Q, p)[0]
        for n in (3, 4):
            _, phi = build_phi_n(p, 1, n)
            pool = [
                x for x in itertools.islice(elements_by_height(Q), 40) if not x.is_zero
            ]
            for _ in range(50):
                xs = [rng.choice(pool) for _ in range(n)]
                vs = [valuation(P, x) for x in xs]
                assert (valuation(P, phi(xs)) == 0) == (min(vs) == 0)


def test_mpoly_substitute_matches_direct_eval():
    # phi_3 built by substitution agrees with evaluating the nesting by hand
    g, phi3 = build_phi_n(2, 1, 3)
    _, phi2 = build_phi_n(2, 1, 2)
    vals = [Q.rational(v) for v in (3, Fraction(1, 2), -4)]
    nested = phi2([vals[0], phi2(vals[1:])])
    assert phi3(vals) == nested


def _term_by_term(poly, values):
    K = values[0].field
    acc = K.zero()
    for e, c in poly.terms.items():
        part = K.rational(c)
        for x, k in zip(values, e):
            part = part * x**k
        acc = acc + part
    return acc


def test_mpoly_call_agrees_with_term_by_term_sum():
    # Horner evaluation against the expanded sum: sparse terms with exponent
    # gaps, no constant term, lowest exponents above zero, and the zero poly
    rng = random.Random(9)
    pool = [x for x in itertools.islice(elements_by_height(GAUSS), 30) if not x.is_zero]
    for nvars in (1, 2, 3, 4):
        for _ in range(15):
            terms = {
                tuple(rng.choice((0, 1, 2, 5)) for _ in range(nvars)):
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(rng.randint(0, 8))
            }
            poly = MPoly(nvars, terms)
            xs = [rng.choice(pool) for _ in range(nvars)]
            assert poly(xs) == _term_by_term(poly, xs)
    assert MPoly(2, {})(pool[:2]) == GAUSS.zero()


def test_phi_4_evaluates_as_its_nesting():
    # the 126 terms of phi_4 over F_9 against phi_2(x1, phi_2(x2, phi_2(x3, x4)))
    _, phi4 = build_phi_n(3, 2, 4)
    _, phi2 = build_phi_n(3, 2, 2)
    rng = random.Random(10)
    pool = [x for x in itertools.islice(elements_by_height(GAUSS), 30) if not x.is_zero]
    for _ in range(5):
        xs = [rng.choice(pool) for _ in range(4)]
        nested = phi2([xs[0], phi2([xs[1], phi2(xs[2:])])])
        assert phi4(xs) == nested == _term_by_term(phi4, xs)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_chi_5_11_shape():
    got = print_formula(emit_chi(5, T11))
    assert got == (
        "(and (and (R (* t 1/5)) (R (inv (* t 1/5))))"
        " (and (R s) (R (inv s)))"
        " (and (R (+ s -1)) (R (inv (+ s -1))))"
        " (and (R (+ (* s s) -1)) (R (inv (+ (* s s) -1)))))"
    )


def test_chi_infinite_place_is_trivial():
    assert print_formula(emit_chi("inf", T11)) == "(= t t)"
    assert print_formula(emit_chi(math.inf, PrimeType(2, 3))) == "(= t t)"


def test_chi_2_11_has_empty_divisor_block():
    # q - 1 = 1 has no proper divisors, so only the t and s unit conjuncts
    phi = emit_chi(2, T11)
    assert isinstance(phi, FAnd) and len(phi.args) == 2


def test_chi_ramified_type_powers_t():
    got = print_formula(emit_chi(2, PrimeType(2, 1)))
    assert got.startswith("(and (and (R (* (* t t) 1/2))")


def _print_recursively(node) -> str:
    """Reference printer: one Python frame per level of nesting."""
    if isinstance(node, TVar):
        return node.name
    if isinstance(node, TConst):
        v = node.value
        return "[" + ", ".join(map(str, v)) + "]" if isinstance(v, tuple) else str(v)
    parts = [formulas_module._HEADS[type(node)]]
    for f in fields(node):
        v = getattr(node, f.name)
        if isinstance(v, str):
            parts.append(v)
        elif isinstance(v, tuple):
            parts.extend(map(_print_recursively, v))
        else:
            parts.append(_print_recursively(v))
    return "(" + " ".join(parts) + ")"


@pytest.mark.parametrize(
    "name", sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name.startswith(("chi_", "nu_")))
)
def test_printer_agrees_with_the_recursive_one_on_golden_formulas(name):
    text = (GOLDEN_DIR / name).read_text().rstrip("\n")
    node = parse_formula(text)
    assert print_formula(node) == _print_recursively(node) == text


def test_printer_writes_a_term_deeper_than_the_recursion_limit():
    depth = 3 * sys.getrecursionlimit()
    term = TVar("s")
    for _ in range(depth):
        term = TMul(term, TVar("s"))
    assert print_formula(FR(term)) == "(R " + "(* " * depth + "s" + " s)" * depth + ")"


def test_nu_5_11_1_shape():
    got = print_formula(emit_nu(5, T11, 1))
    assert got == (
        "(forall y (-> (not (= y 0))"
        " (exists x0 (and (R (* y x0)) (R (inv (* y x0)))))))"
    )


def test_nu_uses_e_factorial_on_y():
    got = print_formula(emit_nu(2, PrimeType(2, 1), 2))
    assert "(* y y)" in got
    # and the p^i scaling constant appears on the second block
    assert " 2)" in got


def test_nu_quantifier_count():
    phi = emit_nu(3, T11, 3)
    assert isinstance(phi, FAll)
    body = phi.body.b
    names = []
    while isinstance(body, FEx):
        names.append(body.var)
        body = body.body
    assert names == ["x0", "x1", "x2"]


def test_nu_never_expands_phi_n(monkeypatch):
    # emit_nu and prove_nu build phi_n as a nested term, so the nu goldens
    # hold with the expansion out of reach
    def expanded(*args):
        raise AssertionError("phi_n was expanded")

    monkeypatch.setattr(formulas_module, "build_phi_n", expanded)
    assert print_formula(emit_nu(3, T11, 3)).startswith("(forall y")
    assert prove_nu(GAUSS, 5, T11, 2).status == "Proven"
    nu = [(name, argv) for name, argv in CLI_GOLDENS if name.startswith("nu_")]
    assert len(nu) == 3
    for name, argv in nu:
        assert _render(argv).encode() == (GOLDEN_DIR / name).read_bytes(), name


def test_nu_rejects_infinite_place():
    with pytest.raises(Unsupported):
        emit_nu("inf", T11, 2)


# ---------------------------------------------------------------------------
# quantifier-free evaluation
# ---------------------------------------------------------------------------


def test_eval_qf_holomorphy_examples():
    assert eval_qf(Q, 5, T11, FR(TConst(Fraction(1, 2)))) is True
    assert eval_qf(Q, 5, T11, FR(TConst(Fraction(1, 5)))) is False
    assert eval_qf(Q, 5, T11, r_unit(TConst(31))) is True
    assert eval_qf(Q, 5, T11, r_unit(TConst(10))) is False


def test_eval_qf_connectives():
    t = FR(TConst(1))
    f = FR(TConst(Fraction(1, 5)))
    assert eval_qf(Q, 5, T11, FImp(f, t)) is True
    assert eval_qf(Q, 5, T11, FImp(t, f)) is False
    assert eval_qf(Q, 5, T11, FOr((f, t))) is True
    assert eval_qf(Q, 5, T11, FNot(f)) is True
    assert eval_qf(Q, 5, T11, FEq(TAdd(TConst(2), TConst(3)), TConst(5))) is True


def test_eval_qf_inverse_of_zero():
    with pytest.raises(InverseOfZero):
        eval_qf(Q, 5, T11, FR(TInv(TAdd(TConst(2), TConst(-2)))))


def test_eval_qf_free_variable_rejected():
    with pytest.raises(ValueError):
        eval_qf(Q, 5, T11, FR(TVar("x")))


def test_eval_qf_quantifier_rejected():
    with pytest.raises(ValueError):
        eval_qf(Q, 5, T11, FAll("x", FR(TVar("x"))))


def test_eval_qf_connectives_stop_at_the_deciding_operand():
    # the inverse of zero after the deciding operand is never evaluated
    no_value = FR(TInv(TConst(0)))
    assert eval_qf(Q, 5, T11, parse_formula("(and (= 1 2) (R (inv 0)))")) is False
    assert eval_qf(Q, 5, T11, parse_formula("(or (= 1 1) (R (inv 0)))")) is True
    assert eval_qf(Q, 5, T11, FImp(FEq(TConst(1), TConst(2)), no_value)) is True
    with pytest.raises(InverseOfZero):
        eval_qf(Q, 5, T11, FAnd((FEq(TConst(1), TConst(1)), no_value)))


def test_eval_qf_vector_constant():
    # [0, 1] is a root of X^2+1, a unit above 5
    phi = r_unit(TConst((Fraction(0), Fraction(1))))
    assert eval_qf(GAUSS, 5, T11, phi) is True
    with pytest.raises(ValueError):
        eval_qf(Q, 5, T11, FR(TConst((Fraction(0), Fraction(1)))))


def test_eval_qf_r_member_override():
    P5 = primes_above(Q, 5)[0]
    phi = FR(TConst(Fraction(1, 3)))
    # 1/3 is in the holomorphy ring at 5 and also in O_P for the single prime
    assert eval_qf(Q, 5, T11, phi) is True
    assert eval_qf(Q, 5, T11, phi, r_member=lambda x: in_ring(P5, x)) is True
    assert eval_qf(Q, 5, T11, phi, r_member=lambda x: False) is False


# ---------------------------------------------------------------------------
# bounded three-valued evaluation
# ---------------------------------------------------------------------------


def test_eval_bounded_refutes_universal_with_witness():
    v = eval_bounded(Q, 5, T11, FAll("x", FR(TVar("x"))), height_bound=200)
    assert v.status == "Refuted"
    assert v.witness == Q.rational(Fraction(1, 5))


def test_eval_bounded_proves_existential_with_witness():
    phi = FEx("x", FEq(TMul(TVar("x"), TVar("x")), TConst(4)))
    v = eval_bounded(Q, 5, T11, phi, height_bound=200)
    assert v.status == "Proven"
    assert v.witness * v.witness == Q.rational(4)


def test_eval_bounded_unknown_for_rootless_equation():
    phi = FEx("x", FEq(TMul(TVar("x"), TVar("x")), TConst(2)))
    v = eval_bounded(Q, 5, T11, phi, height_bound=80)
    assert v.status == "Unknown"
    assert v.bound == 80


def test_eval_bounded_skips_inverse_of_zero_candidates():
    # x = 0 raises inside the body; the scan must move past it and prove
    phi = FEx("x", FEq(TMul(TVar("x"), TInv(TVar("x"))), TConst(1)))
    v = eval_bounded(Q, 5, T11, phi, height_bound=50)
    assert v.status == "Proven"


def test_eval_bounded_qf_leaf():
    assert eval_bounded(Q, 5, T11, FR(TConst(7)), height_bound=5).status == "Proven"
    assert (
        eval_bounded(Q, 5, T11, FR(TConst(Fraction(1, 5))), height_bound=5).status
        == "Refuted"
    )


def test_eval_bounded_connective_three_valuing():
    unknown = FEx("x", FEq(TMul(TVar("x"), TVar("x")), TConst(2)))
    false = FR(TConst(Fraction(1, 5)))
    true = FR(TConst(1))
    assert eval_bounded(Q, 5, T11, FAnd((unknown, false)), 30).status == "Refuted"
    assert eval_bounded(Q, 5, T11, FAnd((unknown, true)), 30).status == "Unknown"
    assert eval_bounded(Q, 5, T11, FOr((unknown, true)), 30).status == "Proven"
    assert eval_bounded(Q, 5, T11, FNot(unknown), 30).status == "Unknown"


def test_eval_bounded_is_linear_in_the_depth_of_negations(wall_clock_limit):
    # the quantifier-free test runs once over the tree, not once per level
    depth = 3 * sys.getrecursionlimit()
    text = "(not " * depth + "(exists x (= (* x x) 4))" + ")" * depth
    with wall_clock_limit(2):
        v = eval_bounded(Q, 5, T11, parse_formula(text), height_bound=200)
    assert v.status == ("Proven" if depth % 2 == 0 else "Refuted")
    assert v.witness is None


def test_eval_verdict_json():
    v = eval_bounded(Q, 5, T11, FAll("x", FR(TVar("x"))), height_bound=100)
    js = v.to_json()
    assert js["status"] == "Refuted"
    assert js["witness"] == "1/5"


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_free_occurrences():
    phi = FR(TMul(TVar("y"), TVar("x")))
    got = substitute(phi, {"y": TConst(5)})
    assert got == FR(TMul(TConst(5), TVar("x")))


def test_substitute_respects_shadowing():
    phi = FAnd((FR(TVar("x")), FEx("x", FR(TVar("x")))))
    got = substitute(phi, {"x": TConst(3)})
    assert got == FAnd((FR(TConst(3)), FEx("x", FR(TVar("x")))))


# ---------------------------------------------------------------------------
# s-expression text form
# ---------------------------------------------------------------------------


def test_parse_print_examples():
    for text in ["(R (inv 5))", "(forall y (not (= y 0)))"]:
        assert print_formula(parse_formula(text)) == text


def test_parse_tolerates_whitespace():
    assert print_formula(parse_formula("  ( R ( inv  5 ) )  ")) == "(R (inv 5))"


def test_parse_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(and")
    assert "position" in exc.value.detail


def test_parse_rejects_unary_and():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(and (R 1))")


def test_parse_rejects_unknown_head():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(xor (R 1) (R 2))")


def test_parse_rejects_trailing_input():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(R 1) (R 2)")


def test_parse_rejects_reserved_variable_names():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(forall not (R 1))")


def test_parse_vector_constant():
    phi = parse_formula("(R [3, 2])")
    assert phi == FR(TConst((Fraction(3), Fraction(2))))
    assert print_formula(phi) == "(R [3, 2])"


def test_parse_unterminated_vector():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(R [3, 2)")


def _random_term(rng, depth):
    if depth <= 0:
        pick = rng.randrange(3)
        if pick == 0:
            return TConst(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
        if pick == 1:
            return TConst((Fraction(rng.randrange(-4, 5)), Fraction(rng.randrange(1, 5))))
        return TVar(rng.choice("uvwz"))
    pick = rng.randrange(3)
    if pick == 0:
        return TAdd(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if pick == 1:
        return TMul(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    return TInv(_random_term(rng, depth - 1))


def _random_formula(rng, depth):
    if depth <= 0:
        if rng.randrange(2):
            return FR(_random_term(rng, 1))
        return FEq(_random_term(rng, 1), _random_term(rng, 1))
    pick = rng.randrange(6)
    if pick == 0:
        return FNot(_random_formula(rng, depth - 1))
    if pick == 1:
        n = rng.randrange(2, 4)
        return FAnd(tuple(_random_formula(rng, depth - 1) for _ in range(n)))
    if pick == 2:
        n = rng.randrange(2, 4)
        return FOr(tuple(_random_formula(rng, depth - 1) for _ in range(n)))
    if pick == 3:
        return FImp(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if pick == 4:
        return FAll(rng.choice("uvwz"), _random_formula(rng, depth - 1))
    return FEx(rng.choice("uvwz"), _random_formula(rng, depth - 1))


def test_roundtrip_100_random_formulas():
    rng = random.Random(2024)
    for _ in range(100):
        phi = _random_formula(rng, rng.randrange(1, 4))
        text = print_formula(phi)
        assert parse_formula(text) == phi
        assert print_formula(parse_formula(text)) == text


def test_roundtrip_emitted_chi_and_nu():
    for p in (2, 3, 5):
        for tau in (PrimeType(1, 1), PrimeType(2, 1), PrimeType(1, 2)):
            emitted = [emit_chi(p, tau)] + [emit_nu(p, tau, n) for n in (1, 2, 3)]
            for phi in emitted:
                assert parse_formula(print_formula(phi)) == phi


def test_deep_trees_parse_and_evaluate(wall_clock_limit):
    depth = 3 * sys.getrecursionlimit()
    negations = "(not " * depth + "(R 1/5)" + ")" * depth
    product = "(R " + "(* 1 " * depth + "1/5" + ")" * depth + ")"
    with wall_clock_limit(2):
        for text, want in ((negations, depth % 2 == 1), (product, False)):
            phi = parse_formula(text)
            assert print_formula(phi) == text
            assert eval_qf(Q, 5, T11, phi) is want
            assert print_formula(substitute(phi, {"x": TConst(3)})) == text


def test_chi_at_a_large_prime_reads_back_and_matches_chi_member(wall_clock_limit):
    # s^((p-1)/2) is a left-nested product 5003 deep
    tau = T11
    P = primes_above(Q, 10007)[0]
    t = Q.rational(10007)
    with wall_clock_limit(2):
        text = print_formula(emit_chi(10007, tau))
        chi = parse_formula(text)
        assert print_formula(chi) == text
        for s in (Q.rational(5), Q.rational(2)):
            closed = substitute(chi, {"t": TConst(t), "s": TConst(s)})
            assert eval_qf(Q, 10007, tau, closed) is chi_member(P, tau, t, s)
    assert chi_member(P, tau, t, Q.rational(5)) and not chi_member(P, tau, t, Q.rational(2))


def test_a_deep_tree_compares_and_hashes(wall_clock_limit):
    # equality and hashing walk the 5003-deep chi tree from a stack
    with wall_clock_limit(2):
        chi = emit_chi(10007, T11)
        back = parse_formula(print_formula(chi))
        assert chi is not back and chi == back and not chi != back
        assert hash(chi) == hash(back) and len({chi, back}) == 1
        assert chi != emit_chi(10009, T11)
    # 5000-deep chains that differ only at the bottom, or only in a node type
    a, b, c = TVar("s"), TVar("s"), TVar("t")
    for _ in range(5000):
        a, b, c = TMul(a, TVar("s")), TMul(b, TVar("s")), TMul(c, TVar("s"))
    assert a == b and hash(a) == hash(b)
    assert a != c and b != c
    assert TMul(a, TConst(1)) != TAdd(b, TConst(1))
    assert FNot(FEq(a, TConst(1))) != FNot(FEq(TAdd(TVar("s"), TVar("s")), TConst(1)))


# ---------------------------------------------------------------------------
# chi consistency and nu discharge
# ---------------------------------------------------------------------------


def test_chi_member_matches_formula_eval():
    tau = T11
    P5 = primes_above(Q, 5)[0]
    chi = emit_chi(5, tau)
    rng = random.Random(0)
    pool = [x for x in itertools.islice(elements_by_height(Q), 60) if not x.is_zero]
    checked = 0
    for _ in range(150):
        t, s = rng.choice(pool), rng.choice(pool)
        closed = substitute(chi, {"t": TConst(t), "s": TConst(s)})
        try:
            got = eval_qf(Q, 5, tau, closed, r_member=lambda x: in_ring(P5, x))
        except InverseOfZero:
            # s a root of s^n = 1: chi_member short-circuits to False while
            # the formal formula has no value; these stay out of the corpus
            continue
        assert got == chi_member(P5, tau, t, s)
        checked += 1
    assert checked >= 100


def test_chi_member_matches_formula_eval_inert_prime():
    tau = PrimeType(1, 2)
    P3 = primes_above(GAUSS, 3)[0]
    chi = emit_chi(3, tau)
    rng = random.Random(1)
    pool = [x for x in itertools.islice(elements_by_height(GAUSS), 60) if not x.is_zero]
    for _ in range(60):
        t, s = rng.choice(pool), rng.choice(pool)
        closed = substitute(chi, {"t": TConst(t), "s": TConst(s)})
        try:
            got = eval_qf(GAUSS, 3, tau, closed, r_member=lambda x: in_ring(P3, x))
        except InverseOfZero:
            continue
        assert got == chi_member(P3, tau, t, s)


def test_prove_nu_rationals():
    for p in (2, 3, 5):
        for n in (1, 2):
            assert prove_nu(Q, p, T11, n).status == "Proven"


def test_prove_nu_split_prime():
    assert prove_nu(GAUSS, 5, T11, 2).status == "Proven"


def test_prove_nu_ramified_type():
    assert prove_nu(GAUSS, 2, PrimeType(2, 1), 2).status == "Proven"


def test_prove_nu_type_mismatch_unsupported():
    # at a split prime, type (1,2) matches no prime exactly but both loosely
    with pytest.raises(Unsupported):
        prove_nu(GAUSS, 5, PrimeType(1, 2), 2)


def test_nu_worked_instance_reproduces_31():
    # p=5, n=2, y=5: the witness pair is (1, 1/5) and phi_2(5*1, 5*5*(1/5)^2)
    # lands on the unit 31
    from prime_scope.dense import zgroup_witness

    y = Q.rational(5)
    xs = zgroup_witness(Q, 5, T11, 2, y)
    _, phi = build_phi_n(5, 1, 2)
    u0 = y * xs[0] ** 2
    u1 = y * Q.rational(5) * xs[1] ** 2
    val = phi([u0, u1])
    assert val == Q.rational(31)
    P5 = primes_above(Q, 5)[0]
    assert valuation(P5, val) == 0
