"""Command-line front end.

Every verb prints one JSON value on stdout (or an indented / plain-text
rendering with --output text) and exits 0.  Domain errors print the shared
error JSON {"error": code, "detail": ..., "clause": ...} and exit 1; usage
and syntax problems exit 2; a failed internal self-check (InvariantViolated)
prints the same error JSON and exits 3.  Output is deterministic: it depends
only on the arguments.

Global flags come before the verb:

    prime-scope --output text formula emit-chi --p 5 --taue 1 --tauf 1

Field and polynomial arguments are parsed with rational coefficients
("X^2+1", "X^3-2X+1/2"); element arguments accept plain rationals ("125",
"-3/7") or coordinate vectors in the field basis ("[0, 1]" is the class of X,
so i for X^2+1).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .closure import has_root_in_closure, padic_root
from .config import Config
from .dense import d_witness, ud_witness, weak_approx_value, zgroup_witness
from .errors import InvariantViolated, PrimeScopeError, Unsupported
from .formulas import (
    build_phi_n,
    emit_chi,
    emit_nu,
    eval_bounded,
    eval_qf,
    is_qf,
    parse_formula,
    print_formula,
)
from .numberfield import KPoly, NumberField, format_element, nf_create, parse_element
from .primes import (
    PrimeType,
    chi_member,
    holomorphy_member,
    primes_above,
    primes_of_type,
    quadratic_step_search,
    valuation,
)
from .qpoly import format_poly, parse_poly
from .squares import (
    four_squares,
    kochen,
    level_finite_field,
    no_short_representation_check,
    r_infinity_member,
)
from .suite import run_suite


def _place(K: NumberField, p, index: int):
    """Select one place: a p-adic valuation for finite p, an ordering for
    "inf"."""
    pool = K.orderings() if p == "inf" else primes_above(K, p)
    kind = "orderings" if p == "inf" else f"primes above {p}"
    if not 0 <= index < len(pool):
        raise ValueError(f"index {index} out of range: {len(pool)} {kind}")
    return pool[index]


def _parse_places(K: NumberField, text: str):
    """Comma-separated place specs: "13" means every prime above 13, "13:0"
    one of them, "inf" every ordering, "inf:1" one ordering."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty place spec")
        base, _, idx = tok.partition(":")
        pool = K.orderings() if base == "inf" else primes_above(K, int(base))
        if idx:
            out.append(pool[_checked_index(int(idx), pool, tok)])
        else:
            out.extend(pool)
    return out


def _checked_index(i: int, pool, tok: str) -> int:
    if not 0 <= i < len(pool):
        raise ValueError(f"place spec {tok!r}: index out of range")
    return i


def _int_or_inf(text: str):
    return text if text == "inf" else int(text)


def _val_json(v):
    return "inf" if v == float("inf") or v is None or (isinstance(v, float) and v != v) else v


def render_mpoly(m) -> str:
    """Deterministic linear rendering, terms in descending lexicographic
    exponent order: "X1^2 + X1*X2 + X2^2"."""
    bits = []
    for exps in sorted(m.terms, reverse=True):
        c = m.terms[exps]
        if c == 0:
            continue
        factors = []
        for i, e in enumerate(exps):
            if e:
                factors.append(f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}")
        if not factors:
            bits.append(str(c))
        elif c == 1:
            bits.append("*".join(factors))
        elif c == -1:
            bits.append("-" + "*".join(factors))
        else:
            bits.append(f"{c}*" + "*".join(factors))
    return (" + ".join(bits) or "0").replace("+ -", "- ")


# ---------------------------------------------------------------------------
# handlers: each returns (exit_code, json_value, text_render_or_None)
# ---------------------------------------------------------------------------


def _h_field(args, config):
    K = nf_create(args.field)
    obj = {
        "poly": format_poly(K.poly),
        "degree": K.degree,
        "orderings": [O.to_json() for O in K.orderings()],
    }
    return 0, obj, None


def _h_primes(args, config):
    K = nf_create(args.field)
    if args.p == "inf":
        return 0, [O.to_json() for O in K.orderings()], None
    if args.taue is not None or args.tauf is not None:
        if args.taue is None or args.tauf is None:
            raise ValueError("--taue and --tauf go together")
        tau = PrimeType(args.taue, args.tauf)
        primes = primes_of_type(K, args.p, tau, exact=args.exact)
    else:
        primes = primes_above(K, args.p)
    return 0, [P.to_json() for P in primes], None


def _h_valuate(args, config):
    K = nf_create(args.field)
    P = _place(K, args.p, args.index)
    x = parse_element(K, args.x)
    if args.p == "inf":
        return 0, {"ordering": P.to_json(), "sign": P.sign(x)}, None
    v = valuation(P, x, config.precision_cap)
    return 0, {"prime": P.to_json(), "valuation": _val_json(v)}, None


def _h_chi(args, config):
    K = nf_create(args.field)
    P = _place(K, args.p, args.index)
    if args.p == "inf":
        tau = None
    else:
        e = P.e if args.taue is None else args.taue
        f = P.f if args.tauf is None else args.tauf
        tau = PrimeType(e, f)
    t = parse_element(K, args.t)
    s = parse_element(K, args.s)
    return 0, {"member": chi_member(P, tau, t, s)}, None


def _h_holomorphy(args, config):
    K = nf_create(args.field)
    tau = PrimeType(args.taue, args.tauf)
    x = parse_element(K, args.x)
    return 0, {"member": holomorphy_member(K, args.p, tau, x)}, None


def _h_closure_has_root(args, config):
    K = nf_create(args.field)
    P = _place(K, args.p, args.index)
    g = KPoly.from_qpoly(K, parse_poly(args.poly))
    return 0, has_root_in_closure(P, g).to_json(), None


def _h_closure_root(args, config):
    K = nf_create(args.field)
    if args.p == "inf":
        raise Unsupported("closure root approximants are p-adic; use an isolating interval instead")
    P = _place(K, args.p, args.index)
    g = KPoly.from_qpoly(K, parse_poly(args.poly))
    x = padic_root(P, g, args.k, config.precision_cap)
    achieved = valuation(P, g(x), config.precision_cap)
    return 0, {"root": format_element(x), "k": args.k, "achieved": _val_json(achieved)}, None


def _h_dense_d(args, config):
    K = nf_create(args.field)
    P = _place(K, args.p, args.index)
    g = KPoly.from_qpoly(K, parse_poly(args.poly))
    a = parse_element(K, args.a)
    return 0, d_witness(P, g, a, config).to_json(), None


def _h_dense_ud(args, config):
    K = nf_create(args.field)
    S = _parse_places(K, args.at)
    g = KPoly.from_qpoly(K, parse_poly(args.poly))
    a = parse_element(K, args.a)
    return 0, ud_witness(K, S, g, a, config).to_json(), None


def _h_dense_weak(args, config):
    K = nf_create(args.field)
    parts = []
    requested = []
    for tok in args.target.split(","):
        tok = tok.strip()
        place, _, val = tok.partition("=")
        if not val:
            raise ValueError(f"target {tok!r}: expected p:index=valuation")
        base, _, idx = place.partition(":")
        if base == "inf":
            raise ValueError("weak approximation targets are finite places")
        pool = primes_above(K, int(base))
        P = pool[_checked_index(int(idx), pool, tok)] if idx else pool[0]
        parts.append(([P], P.uniformizer ** int(val)))
        requested.append((place, P, int(val)))
    x = weak_approx_value(K, parts)
    vals = {place: _val_json(valuation(P, x)) for place, P, _ in requested}
    return 0, {"value": format_element(x), "valuations": vals}, None


def _h_dense_zgroup(args, config):
    K = nf_create(args.field)
    tau = PrimeType(args.taue, args.tauf)
    y = parse_element(K, args.y)
    xs = zgroup_witness(K, args.p, tau, args.n, y)
    return 0, {"xs": [format_element(x) for x in xs]}, None


def _h_formula_emit_phi(args, config):
    g, phi = build_phi_n(args.p, args.f_abs, args.n)
    rendered = render_mpoly(phi)
    obj = {"p": args.p, "f": args.f_abs, "n": args.n, "g": format_poly(g), "phi": rendered}
    return 0, obj, rendered


def _h_formula_emit_chi(args, config):
    tau = None if args.p == "inf" else PrimeType(args.taue, args.tauf)
    text = print_formula(emit_chi(args.p, tau))
    return 0, {"formula": text}, text


def _h_formula_emit_nu(args, config):
    text = print_formula(emit_nu(args.p, PrimeType(args.taue, args.tauf), args.n))
    return 0, {"formula": text}, text


def _h_formula_eval(args, config):
    K = nf_create(args.field)
    tau = PrimeType(args.taue, args.tauf)
    phi = parse_formula(args.formula)
    if is_qf(phi):
        return 0, {"value": eval_qf(K, args.p, tau, phi)}, None
    verdict = eval_bounded(K, args.p, tau, phi, config.height_bound)
    return 0, verdict.to_json(), None


def _h_formula_parse(args, config):
    text = print_formula(parse_formula(args.formula))
    return 0, {"formula": text}, text


def _h_squares_four(args, config):
    q = Fraction(args.q)
    return 0, four_squares(q).to_json(), None


def _h_squares_member(args, config):
    K = nf_create(args.field)
    x = parse_element(K, args.x)
    return 0, {"member": r_infinity_member(K, x)}, None


def _h_squares_level(args, config):
    return 0, level_finite_field(args.p, args.f), None


def _h_squares_kochen(args, config):
    K = nf_create(args.field)
    x = parse_element(K, args.x)
    return 0, kochen(args.p, x).to_json(), None


def _h_squares_s6(args, config):
    K = nf_create(args.field)
    P = _place(K, args.p, args.index)
    g = KPoly.from_qpoly(K, parse_poly(args.poly))
    eps = parse_element(K, args.eps)
    r = no_short_representation_check(P, g, eps, args.s, config.height_bound)
    return 0, r.to_json(), None


def _h_tower_step(args, config):
    K = nf_create(args.field)
    constraints = []
    for tok in args.want.split(","):
        tok = tok.strip()
        idx, _, behavior = tok.partition("=")
        if not behavior:
            raise ValueError(f"constraint {tok!r}: expected index=split|inert|ramified")
        constraints.append((int(idx), behavior))
    d = quadratic_step_search(K, args.p, constraints, config.height_bound)
    obj = {"d": format_element(d), "constraints": [[i, b] for i, b in constraints]}
    return 0, obj, None


def _h_suite_run(args, config):
    report = run_suite(config)
    lines = [
        f"{'ok' if c['ok'] else 'FAIL'} {c['id']}: {c['detail']}" for c in report["cases"]
    ]
    lines.append(f"passed {report['passed']} failed {report['failed']}")
    return (0 if report["failed"] == 0 else 1), report, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prime-scope",
        description="Exact computations with the primes of a number field.",
    )
    top.add_argument("--height-bound", type=int, default=1000, metavar="N")
    top.add_argument("--precision-cap", type=int, default=1000, metavar="N")
    top.add_argument("--output", choices=("json", "text"), default="json")
    verbs = top.add_subparsers(dest="verb", required=True)

    def verb(name, handler, **kw):
        sp = verbs.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    def field_arg(sp):
        sp.add_argument("--field", required=True, metavar="POLY",
                        help="defining polynomial, e.g. 'X^2+1' ('X' is the rationals)")

    sp = verb("field", _h_field, help="describe a number field and its orderings")
    field_arg(sp)

    sp = verb("primes", _h_primes, help="list the primes above p (or orderings for inf)")
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--taue", type=int, default=None, help="filter: ramification index")
    sp.add_argument("--tauf", type=int, default=None, help="filter: residue degree")
    sp.add_argument("--exact", action="store_true",
                    help="with --taue/--tauf: types equal to (e, f), not just dominating it")

    sp = verb("valuate", _h_valuate, help="valuation of x at one prime (or sign at an ordering)")
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--x", required=True)

    sp = verb("chi", _h_chi, help="membership in the type-tau chi set at one prime")
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--taue", type=int, default=None, help="defaults to the prime's own e")
    sp.add_argument("--tauf", type=int, default=None, help="defaults to the prime's own f")
    sp.add_argument("--t", required=True)
    sp.add_argument("--s", required=True)

    sp = verb("holomorphy", _h_holomorphy,
              help="membership in the holomorphy ring cut out by all type-(e,f) primes above p")
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--taue", required=True, type=int)
    sp.add_argument("--tauf", required=True, type=int)
    sp.add_argument("--x", required=True)

    closure = verb("closure", None, help="roots in real and p-adic closures").add_subparsers(
        dest="sub", required=True
    )
    sp = closure.add_parser("has-root", help="decide existence of a closure root")
    sp.set_defaults(handler=_h_closure_has_root)
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--poly", required=True, metavar="POLY")
    sp = closure.add_parser("root", help="field element x with v(g(x)) >= k")
    sp.set_defaults(handler=_h_closure_root)
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--poly", required=True, metavar="POLY")
    sp.add_argument("--k", required=True, type=int)

    dense = verb("dense", None, help="denseness witnesses").add_subparsers(dest="sub", required=True)
    sp = dense.add_parser("d-witness", help="witness for the one-prime dense set D")
    sp.set_defaults(handler=_h_dense_d)
    field_arg(sp)
    sp.add_argument("--p", "--prime", dest="p", required=True, type=_int_or_inf)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--poly", required=True, metavar="POLY")
    sp.add_argument("--a", required=True)
    sp = dense.add_parser("ud-witness", help="witness shared by several places")
    sp.set_defaults(handler=_h_dense_ud)
    field_arg(sp)
    sp.add_argument("--poly", required=True, metavar="POLY")
    sp.add_argument("--a", required=True)
    sp.add_argument("--at", required=True, metavar="PLACES",
                    help='comma-separated: "13" all primes above 13, "13:0" one, "inf" orderings')
    sp = dense.add_parser("weak-approx", help="element with prescribed leading valuations")
    sp.set_defaults(handler=_h_dense_weak)
    field_arg(sp)
    sp.add_argument("--target", required=True, metavar="SPEC",
                    help='comma-separated "p:index=valuation", e.g. "5:0=1,5:1=0"')
    sp = dense.add_parser("zgroup", help="value-group witnesses x_0..x_{n-1} for y")
    sp.set_defaults(handler=_h_dense_zgroup)
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--taue", required=True, type=int)
    sp.add_argument("--tauf", required=True, type=int)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--y", required=True)

    formula = verb("formula", None, help="formula families").add_subparsers(dest="sub", required=True)
    sp = formula.add_parser("emit-phi", help="the n-variable unit-detecting polynomial")
    sp.set_defaults(handler=_h_formula_emit_phi)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--f-abs", required=True, type=int, dest="f_abs")
    sp.add_argument("--n", required=True, type=int)
    sp = formula.add_parser("emit-chi", help="the quantifier-free chi formula")
    sp.set_defaults(handler=_h_formula_emit_chi)
    sp.add_argument("--p", required=True, type=_int_or_inf)
    sp.add_argument("--taue", type=int, default=1)
    sp.add_argument("--tauf", type=int, default=1)
    sp = formula.add_parser("emit-nu", help="the n-th value-group axiom")
    sp.set_defaults(handler=_h_formula_emit_nu)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--taue", type=int, default=1)
    sp.add_argument("--tauf", type=int, default=1)
    sp.add_argument("--n", required=True, type=int)
    sp = formula.add_parser("eval", help="evaluate a closed formula over a field")
    sp.set_defaults(handler=_h_formula_eval)
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--taue", type=int, default=1)
    sp.add_argument("--tauf", type=int, default=1)
    sp.add_argument("--formula", required=True)
    sp = formula.add_parser("parse", help="parse and reprint a formula canonically")
    sp.set_defaults(handler=_h_formula_parse)
    sp.add_argument("--formula", required=True)

    squares = verb("squares", None, help="sums of squares").add_subparsers(dest="sub", required=True)
    sp = squares.add_parser("four", help="four-square decomposition of a rational")
    sp.set_defaults(handler=_h_squares_four)
    sp.add_argument("--q", required=True)
    sp = squares.add_parser("member", help="totally nonnegative test (sums of squares cone)")
    sp.set_defaults(handler=_h_squares_member)
    field_arg(sp)
    sp.add_argument("--x", required=True)
    sp = squares.add_parser("level", help="level of the finite field with p^f elements")
    sp.set_defaults(handler=_h_squares_level)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--f", required=True, type=int)
    sp = squares.add_parser("kochen", help="the p-adic Kochen operator gamma_p")
    sp.set_defaults(handler=_h_squares_kochen)
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--x", required=True)
    sp = squares.add_parser("check-s6", help="certify absence of short representations")
    sp.set_defaults(handler=_h_squares_s6)
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--poly", required=True, metavar="POLY")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--s", required=True, type=int)

    tower = verb("tower", None, help="quadratic tower steps").add_subparsers(dest="sub", required=True)
    sp = tower.add_parser("step", help="nonsquare d making primes above p behave as requested")
    sp.set_defaults(handler=_h_tower_step)
    field_arg(sp)
    sp.add_argument("--p", required=True, type=int)
    sp.add_argument("--want", required=True, metavar="SPEC",
                    help='comma-separated "index=split|inert|ramified"')

    suite = verb("suite", None, help="acceptance corpus").add_subparsers(dest="sub", required=True)
    sp = suite.add_parser("run", help="run every case, print the transcript")
    sp.set_defaults(handler=_h_suite_run)

    return top


def _emit(obj, text, config):
    if config.output == "text" and text is not None:
        sys.stdout.write(text + "\n")
    elif config.output == "text":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = Config(args.height_bound, args.precision_cap, args.output)
    try:
        code, obj, text = args.handler(args, config)
    except InvariantViolated as exc:
        _emit(exc.to_json(), None, config)
        return 3
    except PrimeScopeError as exc:
        _emit(exc.to_json(), None, config)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        parser.exit(2, f"usage error: {exc}\n")
    _emit(obj, text, config)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
