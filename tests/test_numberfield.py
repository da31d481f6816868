"""Number field construction, element arithmetic, orderings, KPoly."""

import random
from fractions import Fraction

import pytest

from prime_scope.errors import (
    DivisionByZero,
    NotMonic,
    Reducible,
    UncertifiedIrreducibility,
)
from prime_scope.numberfield import (
    FieldElement,
    KPoly,
    elements_by_height,
    format_element,
    nf_create,
    parse_element,
    real_embeddings,
    sign_at,
)
from prime_scope.qpoly import QPoly, parse_poly

from oracles import oracle_is_irreducible_over_q


# --- creation and certification -------------------------------------------

def test_create_gaussian_field():
    K = nf_create("X^2+1")
    assert K.degree == 2


def test_create_rational_field():
    K = nf_create("X")
    assert K.degree == 1
    assert K.gen().as_fraction() == 0


def test_reducible_is_refused_with_witness():
    with pytest.raises(Reducible) as exc:
        nf_create("X^2-1")
    assert "X" in str(exc.value)


def test_nonmonic_is_refused():
    with pytest.raises(NotMonic):
        nf_create("2*X^2+1")


def test_repeated_factor_is_refused():
    with pytest.raises(Reducible):
        nf_create(parse_poly("X^2+2*X+1"))


@pytest.mark.parametrize(
    "text",
    ["X^2+1", "X^2-2", "X^3-2", "X^4+1", "X^4-10*X^2+1", "X^3+X+1"],
)
def test_known_irreducibles_certify(text):
    nf_create(text)  # must not raise


def test_certification_agrees_with_oracle_on_random_polys():
    rng = random.Random(991)
    for _ in range(150):
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [1]
        f = QPoly(coeffs)
        want = oracle_is_irreducible_over_q(coeffs)
        try:
            nf_create(f)
            got = True
        except Reducible:
            got = False
        except UncertifiedIrreducibility:
            continue  # honest refusal is allowed, wrong answers are not
        assert got == want, f"{coeffs}"


# --- element arithmetic -----------------------------------------------------

def test_gaussian_inverse():
    K = nf_create("X^2+1")
    one_plus_i = K.element([1, 1])
    inv = one_plus_i.inverse()
    assert inv == K.element([Fraction(1, 2), Fraction(-1, 2)])
    assert one_plus_i * inv == K.one()


def test_inverse_of_zero_raises():
    K = nf_create("X^2+1")
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_field_axioms_random():
    K = nf_create("X^3-2")
    rng = random.Random(5)

    def rand_elem():
        return K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])

    for _ in range(80):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero:
            assert a * a.inverse() == K.one()
            assert (a ** 3) * (a ** -3) == K.one()


def test_generator_satisfies_defining_polynomial():
    K = nf_create("X^3-2")
    alpha = K.gen()
    assert alpha ** 3 == K.rational(2)


def test_norm_multiplicative():
    K = nf_create("X^2-2")
    a = K.element([1, 1])
    b = K.element([3, -2])
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.norm() == -1  # N(1 + sqrt2) = 1 - 2


def test_element_literals_roundtrip():
    K = nf_create("X^2+1")
    x = K.element([Fraction(1, 2), -3])
    assert parse_element(K, format_element(x)) == x
    assert parse_element(K, "7") == K.rational(7)
    assert parse_element(K, "-2/3") == K.rational(Fraction(-2, 3))


# --- orderings ---------------------------------------------------------------

def test_real_embedding_counts():
    assert len(real_embeddings(nf_create("X^2-2"))) == 2
    assert len(real_embeddings(nf_create("X^2+1"))) == 0
    assert len(real_embeddings(nf_create("X"))) == 1
    assert len(real_embeddings(nf_create("X^3-2"))) == 1
    assert len(real_embeddings(nf_create("X^4-10*X^2+1"))) == 4


def test_sign_at_sqrt2():
    K = nf_create("X^2-2")
    negs, poss = real_embeddings(K)
    alpha = K.gen()
    # orderings sorted by root: first sends alpha to -sqrt2
    assert sign_at(negs, alpha) == -1
    assert sign_at(poss, alpha) == 1
    # 2 - alpha is positive in both (|sqrt2| < 2)
    two_minus = K.rational(2) - alpha
    assert sign_at(negs, two_minus) == 1
    assert sign_at(poss, two_minus) == 1
    assert sign_at(poss, K.zero()) == 0


def test_sign_at_close_call():
    # 99/70 is a convergent of sqrt2: alpha - 99/70 is tiny but has a sign
    K = nf_create("X^2-2")
    _, pos = real_embeddings(K)
    x = K.gen() - K.rational(Fraction(99, 70))
    assert sign_at(pos, x) == -1
    assert sign_at(pos, -x) == 1


def test_sign_consistency_with_square():
    K = nf_create("X^3-2")
    (P,) = real_embeddings(K)
    rng = random.Random(11)
    for _ in range(40):
        x = K.element([rng.randint(-5, 5) for _ in range(3)])
        if x.is_zero:
            continue
        assert sign_at(P, x * x) == 1
        assert sign_at(P, x) * sign_at(P, -x) == -1


# --- KPoly -------------------------------------------------------------------

def test_kpoly_divmod_and_gcd():
    K = nf_create("X^2-2")
    alpha = K.gen()
    # (Y - alpha)(Y + alpha) = Y^2 - 2
    f = KPoly(K, [K.rational(-2), K.zero(), K.one()])
    g = KPoly(K, [-alpha, K.one()])
    q, r = divmod(f, g)
    assert r.is_zero
    assert q == KPoly(K, [alpha, K.one()])
    assert f.gcd(g) == g.monic()


def test_kpoly_resultant_agrees_with_rational_resultant():
    K = nf_create("X^2+1")
    rng = random.Random(17)

    def rand_qpoly():
        return QPoly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(4))])

    three, f = QPoly([3]), QPoly([1, 0, 1])
    pairs = [(f, QPoly()), (QPoly(), f), (QPoly(), QPoly()), (three, f), (f, three), (three, QPoly([5]))]
    pairs += [(rand_qpoly(), rand_qpoly()) for _ in range(40)]
    for a, b in pairs:
        want = a.resultant(b)
        got = KPoly.from_qpoly(K, a).resultant(KPoly.from_qpoly(K, b))
        assert type(want) is Fraction and type(got) is FieldElement
        assert got == K.rational(want), (a, b)
    # Res(c, g) = c^deg g and Res(f, c) = c^deg f
    assert three.resultant(f) == f.resultant(three) == 9
    assert three.resultant(QPoly([5])) == 1
    # non-rational operands: Res(Y - i, g) = g(i)
    i = K.gen()
    lin = KPoly(K, [-i, K.one()])
    g = KPoly(K, [K.rational(3), K.zero(), K.one()])
    assert lin.resultant(g) == g.resultant(lin) == K.rational(2)
    assert lin.resultant(KPoly(K, [K.rational(-2), K.one()])) == i - 2


def test_kpoly_root_count_in_ordering():
    K = nf_create("X^2-2")
    neg, pos = real_embeddings(K)
    alpha = K.gen()
    # Y^2 - alpha: root in the real closure iff alpha > 0 there
    f = KPoly(K, [-alpha, K.zero(), K.one()])
    assert f.has_root_in_ordering(pos)
    assert not f.has_root_in_ordering(neg)
    assert f.count_roots_in_ordering(pos, None, None) == 2


def test_kpoly_eval_and_shift():
    K = nf_create("X^2+1")
    i = K.gen()
    f = KPoly(K, [K.one(), K.zero(), K.one()])  # Y^2 + 1
    assert f(i).is_zero
    g = f.shift_scale(i, K.one())  # f(i + Y) = Y^2 + 2iY
    assert g.coeff(0).is_zero
    assert g.coeff(1) == i + i


# --- enumeration -------------------------------------------------------------

def test_rational_enumeration_degree_one():
    K = nf_create("X")
    got = []
    for x in elements_by_height(K):
        got.append(x.as_fraction())
        if len(got) == 7:
            break
    assert got == [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]


def test_enumeration_degree_two_hits_everything_small():
    K = nf_create("X^2+1")
    seen = set()
    for x in elements_by_height(K):
        seen.add(x.coords)
        if len(seen) == 200:
            break
    # every vector with coordinates in {0, +-1} must appear early
    for a in (0, 1, -1):
        for b in (0, 1, -1):
            assert (Fraction(a), Fraction(b)) in seen


def test_enumeration_no_duplicates():
    K = nf_create("X^2-2")
    seen = []
    for x in elements_by_height(K):
        seen.append(x.coords)
        if len(seen) == 300:
            break
    assert len(set(seen)) == len(seen)
