"""End-to-end CLI checks, through real subprocess invocations except where a
wall-clock bound runs cli.main in process."""

import json
import os
import re
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "prime_scope.cli"]


def run(*args, env=None, timeout=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=merged,
        timeout=timeout,
    )


def test_primes_gauss_at_5():
    r = run("primes", "--field", "X^2+1", "--p", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out) == 2
    assert all(item["e"] == 1 and item["f"] == 1 and item["p"] == 5 for item in out)
    assert sorted(item["index"] for item in out) == [0, 1]


def test_primes_json_reparses_into_domain_objects():
    from prime_scope.numberfield import NumberField
    from prime_scope.primes import primes_above
    from prime_scope.qpoly import parse_poly

    r = run("primes", "--field", "X^2+1", "--p", "13")
    K = NumberField(parse_poly("X^2+1"))
    want = [P.to_json() for P in primes_above(K, 13)]
    assert json.loads(r.stdout) == want


def test_dense_d_witness_pinned_57():
    r = run("dense", "d-witness", "--field", "X", "--p", "5",
            "--poly", "X^2+1", "--a", "125")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["witness"] == "57"
    assert out["verified_at"][0]["prime"]["p"] == 5


def test_squares_level_pinned_2():
    r = run("squares", "level", "--p", "3", "--f", "1")
    assert r.returncode == 0
    assert r.stdout == "2\n"


def test_valuation_of_zero_is_inf_with_exit_0():
    r = run("valuate", "--field", "X", "--p", "5", "--x", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["valuation"] == "inf"


def test_valuate_ordering_sign():
    r = run("valuate", "--field", "X^2-2", "--p", "inf", "--index", "0", "--x", "[0, 1]")
    assert json.loads(r.stdout)["sign"] == -1


@pytest.mark.parametrize("index,want", [(0, 1), (1, 0)])
def test_valuate_below_the_default_first_precision(index, want):
    # a cap under 16 still decides what it can reach: 2 + i at the two primes
    # above 5
    r = run("--precision-cap", "10", "valuate", "--field", "X^2+1", "--p", "5",
            "--index", str(index), "--x", "[2, 1]")
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["valuation"] == want


@pytest.mark.parametrize("argv,want", [
    # v(alpha^2) = 2 at the totally ramified 2 of Q(cbrt 2): the coordinate
    # minima of alpha^2, alpha^3 = 2 and 2 alpha are 0, 1, 1, all below 2
    (("--precision-cap", "2", "valuate", "--field", "X^3-2", "--p", "2", "--x", "[0, 0, 1]"), 2),
    (("valuate", "--field", "X^2-2", "--p", "3", "--x", "[3, 9]"), 1),  # f = 2
    (("--precision-cap", "3", "valuate", "--field", "X^2+1", "--p", "3", "--x", "[9, 27]"), 2),
])
def test_valuate_pinned_answers(argv, want):
    r = run(*argv)
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["valuation"] == want


def test_valuate_precision_overflow_names_the_cap():
    r = run("--precision-cap", "1", "valuate", "--field", "X^2+1", "--p", "5",
            "--index", "0", "--x", "[2, 1]")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["error"] == "PrecisionOverflow"
    assert out["detail"] == "valuation undecided at precision p^1"


def test_domain_error_json_and_exit_1():
    r = run("primes", "--field", "X^2-X", "--p", "5")
    assert r.returncode == 1
    err = json.loads(r.stdout)
    assert err["error"] == "Reducible"
    assert "detail" in err


def test_usage_error_exit_2():
    r = run("frobnicate")
    assert r.returncode == 2
    r = run("primes", "--field", "X^2+1")  # missing --p
    assert r.returncode == 2
    r = run("valuate", "--field", "X", "--p", "5", "--index", "9", "--x", "1")
    assert r.returncode == 2


def test_ud_witness_pinned_108():
    r = run("dense", "ud-witness", "--field", "X^2+1", "--poly", "X^2-3",
            "--a", "169", "--at", "13")
    out = json.loads(r.stdout)
    assert out["witness"] == "108"
    assert len(out["verified_at"]) == 2


def test_weak_approx_round_trip():
    from prime_scope.numberfield import NumberField, parse_element
    from prime_scope.primes import primes_above, valuation
    from prime_scope.qpoly import parse_poly

    r = run("dense", "weak-approx", "--field", "X^2+1", "--target", "5:0=1,5:1=0")
    out = json.loads(r.stdout)
    assert out["valuations"] == {"5:0": 1, "5:1": 0}
    K = NumberField(parse_poly("X^2+1"))
    x = parse_element(K, out["value"])
    P0, P1 = primes_above(K, 5)
    assert valuation(P0, x) == 1 and valuation(P1, x) == 0


def test_formula_emit_chi_text_mode_exact():
    r = run("--output", "text", "formula", "emit-chi", "--p", "5",
            "--taue", "1", "--tauf", "1")
    assert r.stdout == (
        "(and (and (R (* t 1/5)) (R (inv (* t 1/5)))) (and (R s) (R (inv s)))"
        " (and (R (+ s -1)) (R (inv (+ s -1))))"
        " (and (R (+ (* s s) -1)) (R (inv (+ (* s s) -1)))))\n"
    )


def test_formula_emit_round_trips_through_parse():
    r = run("formula", "emit-nu", "--p", "5", "--n", "2")
    emitted = json.loads(r.stdout)["formula"]
    r2 = run("formula", "parse", "--formula", emitted)
    assert json.loads(r2.stdout)["formula"] == emitted


def test_formula_parse_syntax_error_exit_1():
    r = run("formula", "parse", "--formula", "(and (R t)")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "FormulaSyntaxError"


def test_formula_eval_bounded_witness():
    r = run("formula", "eval", "--field", "X", "--p", "5",
            "--formula", "(exists x (= (* x x) 4))")
    out = json.loads(r.stdout)
    assert out["status"] == "Proven" and out["witness"] in ("2", "-2")


def test_squares_four_and_kochen():
    r = run("squares", "four", "--q", "7")
    assert json.loads(r.stdout) == {"input": "7", "parts": ["2", "1", "1", "1"]}
    r = run("squares", "kochen", "--field", "X", "--p", "3", "--x", "2")
    assert json.loads(r.stdout) == {"defined": True, "value": "2/35"}


def test_tower_step_inert_at_5():
    r = run("tower", "step", "--field", "X", "--p", "5", "--want", "0=inert")
    out = json.loads(r.stdout)
    assert out["d"] == "2"


def test_closure_root_achieves_requested_valuation():
    r = run("closure", "root", "--field", "X", "--p", "5", "--poly", "X^2+1", "--k", "4")
    out = json.loads(r.stdout)
    assert out["achieved"] >= 4
    x = int(out["root"])
    assert (x * x + 1) % 5**4 == 0


def test_four_squares_of_a_30_digit_integer_answers():
    big = str(10**29 + 123456789)
    r = run("squares", "four", "--q", big, timeout=5.0)
    assert r.returncode == 0, r.stderr
    parts = [int(t) for t in json.loads(r.stdout)["parts"]]
    assert len(parts) == 4 and sum(t * t for t in parts) == int(big)


def test_seed_flag_is_rejected():
    r = run("--seed", "7", "squares", "four", "--q", "7")
    assert r.returncode == 2
    assert r.stdout == ""


def test_same_invocation_is_byte_deterministic():
    args = ("dense", "d-witness", "--field", "X", "--p", "5", "--poly", "X^2+1", "--a", "125")
    assert run(*args).stdout == run(*args).stdout


def test_output_ends_with_single_newline():
    r = run("field", "--field", "X^2-2")
    assert r.stdout.endswith("\n") and not r.stdout.endswith("\n\n")


def test_composite_p_is_a_usage_error():
    for p in ("4", "9", "15"):
        for args in (
            ("primes", "--field", "X^2+1", "--p", p),
            ("formula", "emit-phi", "--p", p, "--f-abs", "1", "--n", "2"),
            ("squares", "level", "--p", p, "--f", "2"),
            ("squares", "kochen", "--field", "X", "--p", p, "--x", "3"),
        ):
            r = run(*args)
            assert r.returncode == 2, (args, r.stdout, r.stderr)


@pytest.mark.parametrize("f_abs", ["0", "-3"])
def test_nonpositive_f_abs_is_a_usage_error(f_abs):
    r = run("formula", "emit-phi", "--p", "7", "--f-abs", f_abs, "--n", "1")
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("formula", "emit-nu", "--p", "13", "--taue", "1", "--tauf", "3", "--n", "1"),
        ("formula", "emit-phi", "--p", "13", "--f-abs", "5", "--n", "1"),
    ],
)
def test_phi_verbs_at_large_degree_finish_fast(args):
    # g has degree 5 resp. 7 here, so 13^4 resp. 13^6 candidates with
    # constant coefficient 0 precede it in the scan order
    r = run(*args, timeout=2.0)
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout)


def test_emit_nu_at_n_7_answers_fast(wall_clock_limit):
    # phi_7 enters the formula as a nested term; expanding it took over 20 s
    with wall_clock_limit(2):
        r = run("formula", "emit-nu", "--p", "2", "--n", "7")
    assert r.returncode == 0, r.stderr
    json.loads(r.stdout)


def _main_json(capsys, *argv):
    from prime_scope.cli import main

    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_emit_chi_at_a_large_prime_answers_fast(wall_clock_limit, capsys):
    # chi writes s^((p-1)/2) as a left-nested product 5003 terms deep
    with wall_clock_limit(2):
        code, out = _main_json(capsys, "formula", "emit-chi", "--p", "10007", "--taue", "1",
                               "--tauf", "1")
    assert code == 0
    assert out["formula"].startswith("(and (and (R (* t 1/10007))")
    assert "(* " * 5002 + "s s)" in out["formula"]


def test_formula_parse_and_eval_read_back_the_chi_at_a_large_prime(wall_clock_limit, capsys):
    # the text emit-chi prints at p = 10007 nests 5003 levels deep; parse
    # prints it back byte for byte, and eval decides it with t and s set
    chi = ("formula", "emit-chi", "--p", "10007", "--taue", "1", "--tauf", "1")
    with wall_clock_limit(2):
        _code, emitted = _main_json(capsys, *chi)
        text = emitted["formula"]
        code, out = _main_json(capsys, "formula", "parse", "--formula", text)
        assert code == 0 and out["formula"] == text
        for s, want in (("5", True), ("2", False)):
            closed = re.sub(r"\bs\b", s, re.sub(r"\bt\b", "10007", text))
            code, out = _main_json(capsys, "formula", "eval", "--field", "X", "--p", "10007",
                                   "--formula", closed)
            assert code == 0 and out == {"value": want}


DEPTH = 3000


@pytest.mark.parametrize(
    "text, want",
    [
        ("(not " * DEPTH + "(R 1/5)" + ")" * DEPTH, {"value": False}),
        ("(R " + "(* 1 " * DEPTH + "1/5" + ")" * DEPTH + ")", {"value": False}),
        ("(not " * DEPTH + "(exists x (= (* x x) 4))" + ")" * DEPTH, {"status": "Proven"}),
    ],
    ids=["not", "times-one", "not-exists"],
)
def test_formula_parse_and_eval_of_a_3000_deep_nesting(text, want, wall_clock_limit, capsys):
    with wall_clock_limit(2):
        code, out = _main_json(capsys, "formula", "parse", "--formula", text)
        assert code == 0 and out["formula"] == text
        code, out = _main_json(capsys, "formula", "eval", "--field", "X", "--p", "5",
                               "--formula", text)
    assert code == 0 and out == want


def test_closure_root_at_a_large_inert_prime_answers_fast(wall_clock_limit, capsys):
    # k_P = F_(10007^2): a scan of the residue field takes 10^8 evaluations
    # per node; the root finder splits the reduction instead
    with wall_clock_limit(2):
        code, out = _main_json(capsys, "closure", "has-root", "--field", "X^2+1", "--p", "10007",
                               "--index", "0", "--poly", "X^2+X+3")
    assert code == 0 and out["has_root"]
    assert out["certificate"] == {"depth": 1, "kind": "hensel", "residue": "[5003, 1284]",
                                  "shift": 0, "vdg": 0, "vg": 1}
    # the residue a + b i is a root of X^2 + X + 3 mod 10007
    a, b, p = 5003, 1284, 10007
    assert ((a * a - b * b + a + 3) % p, (2 * a * b + b) % p) == (0, 0)


def test_no_short_precondition_at_a_large_prime_answers_fast(wall_clock_limit, capsys):
    # the reduction X^2 - 1 has the roots 1 and -1 in F_10000019
    with wall_clock_limit(2):
        code, out = _main_json(capsys, "squares", "check-s6", "--field", "X", "--p", "10000019",
                               "--index", "0", "--poly", "X^2-1", "--eps", "10000019", "--s", "2")
    assert code == 1
    assert out["error"] == "PreconditionViolated" and out["clause"] == "rootless-reduction"


def test_chi_at_a_large_prime_answers_fast(wall_clock_limit, capsys):
    # 5 generates (Z/(10^9+7))^*, so s^n - 1 is a unit for every proper n
    with wall_clock_limit(2):
        code, out = _main_json(capsys, "chi", "--field", "X", "--p", "1000000007", "--index", "0",
                               "--t", "1000000007", "--s", "5")
    assert code == 0 and out == {"member": True}


def test_field_with_a_large_constant_term_finishes_fast():
    # 10^30 + 1: a divisor scan of the constant term would need 10^15 steps
    r = run("field", "--field", "X^2-1000000000000000000000000000001", timeout=2.0)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["degree"] == 2 and len(out["orderings"]) == 2


def test_field_with_roots_far_apart_in_scale():
    # roots 10^200 -+ sqrt2 take about 1330 bisections to isolate
    c = 10**200
    r = run("field", "--field", f"X^2-{2 * c}*X+{c * c - 2}", timeout=2.0)
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["orderings"]) == 2


def test_self_checks_survive_python_O():
    # an assert would vanish under -O; check() must not
    opt = [sys.executable, "-O", "-c"]
    script = (
        "from fractions import Fraction\n"
        "from prime_scope.errors import InvariantViolated\n"
        "from prime_scope.squares import SquareDecomposition\n"
        "try:\n"
        "    SquareDecomposition(Fraction(5), (1, 1))\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc.code)\n"
        "else:\n"
        "    print('constructed')\n"
        "from prime_scope.suite import case_no_short_and_levels\n"
        "print(case_no_short_and_levels()[0])\n"
        "from prime_scope import closure\n"
        "from prime_scope.numberfield import KPoly, nf_create\n"
        "from prime_scope.primes import primes_above\n"
        "K = nf_create('X')\n"
        "(P,) = primes_above(K, 5)\n"
        "from prime_scope.qpoly import remainder_chain\n"
        "closure._squarefree_chain = lambda g: (g * g, remainder_chain(g * g, (g * g).derivative())[0])\n"
        "try:\n"
        "    closure.has_root_in_closure(P, KPoly(K, [K.rational(-2), K.zero(), K.one()]))\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc.code)\n"
        "else:\n"
        "    print('decided')\n"
        "from prime_scope.ffield import hensel_lift\n"
        "try:\n"
        "    hensel_lift([1, 0, 1], [(1, 1), (2, 1)], 5, 4)\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc.code, exc.detail)\n"
        "else:\n"
        "    print('lifted')\n"
        "from prime_scope import primes\n"
        "factor = primes.factor_fpoly\n"
        "primes.factor_fpoly = lambda a, p: factor(a, p)[:-1]\n"
        "try:\n"
        "    primes.primes_above(nf_create('X^2+1'), 5)\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc.code, exc.detail)\n"
        "else:\n"
        "    print('split')\n"
    )
    r = subprocess.run(opt + [script], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split("\n")[:5] == [
        "raised InvariantViolated", "True", "raised InvariantViolated",
        "raised InvariantViolated input factorization invalid",
        "raised InvariantViolated sum e_i f_i must equal degree",
    ]
    r = subprocess.run(
        [sys.executable, "-O", "-m", "prime_scope.cli", "--height-bound", "4",
         "squares", "check-s6", "--field", "X^2+2", "--p", "3", "--poly", "X^2+1",
         "--eps", "3", "--s", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"searched": 529, "status": "Certified"}


def test_failed_self_check_exits_3(monkeypatch, capsys):
    from prime_scope import cli
    from prime_scope.errors import InvariantViolated

    def forged(q):
        raise InvariantViolated("forged re-verification failure")

    monkeypatch.setattr(cli, "four_squares", forged)
    assert cli.main(["squares", "four", "--q", "7"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"error": "InvariantViolated", "detail": "forged re-verification failure"}
