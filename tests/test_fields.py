"""The rational field's canonical form: an integral value is a plain int,
every other value a Fraction with denominator > 1, and no float ever.

Each operation must agree with the same operation in Fraction arithmetic,
and the values the engine builds from Q scenes (Groebner bases, colon
ideals, idealizer pieces, resolution maps) must all be in canonical form."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomideal import cli
from geomideal.fields import PRIME_BOUND, QQ, PrimeField, is_prime
from geomideal.geometry import RationalPoint
from geomideal.homology import free_resolution
from geomideal.idealizer import IdealizerScene, idealizer_piece
from geomideal.polykernel import HomIdeal, PolyRing, ideal_quotient
from geomideal.twist import ProjAutomorphism


def canonical(x) -> bool:
    """int iff integral; a Fraction otherwise; never a float (or a bool)."""
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


ints = st.integers(-10**6, 10**6)
scalars = st.one_of(
    ints,
    st.fractions(max_denominator=30),
    ints.map(lambda n: Fraction(n, 1)),  # integral but not canonical
    st.sampled_from([0, -1, 1, Fraction(0)]),
)
canonical_scalars = scalars.map(QQ.from_fraction)


@given(scalars, scalars)
def test_ring_operations_match_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
                      (QQ.mul(a, b), fa * fb)):
        assert got == want
        assert canonical(got)


@given(scalars, scalars)
def test_division_matches_fraction_arithmetic(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
        return
    got = QQ.div(a, b)
    assert got == Fraction(a) / Fraction(b)
    assert canonical(got)


@given(scalars)
def test_inverse_matches_fraction_arithmetic(a):
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)
        return
    got = QQ.inv(a)
    assert got == 1 / Fraction(a)
    assert canonical(got)


@given(canonical_scalars)
def test_unary_operations_keep_canonical_form(a):
    assert canonical(a)
    assert QQ.neg(a) == -Fraction(a) and canonical(QQ.neg(a))
    assert QQ.is_zero(a) == (Fraction(a) == 0)
    assert QQ.to_str(a) == str(Fraction(a))
    assert QQ.sort_key(a) == (Fraction(a).numerator, Fraction(a).denominator)
    assert hash(a) == hash(Fraction(a))


@given(scalars)
def test_constructors_give_canonical_form(a):
    q = Fraction(a)
    for got in (QQ.from_fraction(a), QQ.from_str(str(q)), QQ.from_str(f" {q} ")):
        assert got == q and canonical(got)


@given(ints)
def test_from_int_is_the_int(n):
    assert QQ.from_int(n) is n


def test_zero_and_one_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


def test_from_str_reduces_to_an_int():
    got = QQ.from_str("6/3")
    assert got == 2 and type(got) is int
    assert type(QQ.from_str("-4/6")) is Fraction


FIELDS = [QQ, PrimeField(7)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("text", [
    "007", "-0", "+3", "\u0663", "2.5", "1e2", "3/4", " -12 ",
    pytest.param("1_0", marks=pytest.mark.skipif(
        sys.version_info < (3, 11), reason="Fraction reads underscores from Python 3.11 on")),
])
def test_literals_read_as_fraction_reads_them(field, text):
    # plain decimal integers take the int fast path, the rest go to Fraction
    got, want = field.from_str(text), field.from_fraction(Fraction(text))
    assert got == want and type(got) is type(want)


@given(ints)
def test_integer_literals_read_as_fraction_reads_them(n):
    for field in FIELDS:
        assert field.from_str(str(n)) == field.from_fraction(Fraction(n))


@pytest.mark.parametrize("field, text", [
    *((f, t) for f in ("rational", "prime 7") for t in ("\u00b2", "nan", "", "1/0")),
    ("prime 7", "1/7"),
])
def test_bad_literals_exit_two(field, text, tmp_path, capsys):
    """A literal Fraction rejects, or one with no value in the field, is a
    BAD_RATIONAL diagnostic (exit 2) as a point coordinate and, when it is
    one whitespace-free token, as a sigma entry."""
    places = [("1 0\n0 1", text)] + ([(f"1 0\n0 {text}", "1")] if text else [])
    for sigma, point in places:
        path = tmp_path / "scene.scene"
        path.write_text(f"field {field}\ndim 1\nsigma\n{sigma}\nideal\nx0\nend\n"
                        f"point [1:{point}]\n")
        assert cli.main(["gb", str(path)]) == 2
        err = capsys.readouterr().err
        assert "BAD_RATIONAL" in err and "Traceback" not in err


# the least strong pseudoprimes to the bases 2, ..., 37 (psi_12) and to the
# bases 2, ..., 41 (psi_13)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_is_exact_up_to_psi_13():
    assert PSI_12 == 399165290221 * 798330580441 and not is_prime(PSI_12)
    assert PSI_13 == 1287836182261 * 2575672364521 == PRIME_BOUND
    with pytest.raises(ValueError, match="not below"):
        is_prime(PSI_13)
    assert is_prime(2 ** 61 - 1) and not is_prime(2 ** 61 + 1)
    assert is_prime(41) and not is_prime(41 * 43)


@pytest.mark.parametrize("modulus", [PSI_12, PSI_13, PSI_13 + 2])
def test_pseudoprime_and_out_of_range_moduli_are_bad_fields(modulus):
    with pytest.raises(ValueError):
        PrimeField(modulus)
    with pytest.raises(cli.SceneError) as err:
        cli.parse_scene(f"field prime {modulus}\ndim 1\nsigma\n1 0\n0 1\nideal\nx0\nend\n")
    assert "BAD_FIELD" in [d.code for d in err.value.diagnostics]


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_division_by_zero_raises(zero):
    for a in (0, 3, Fraction(2, 7)):
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, zero)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(zero)


# ---------------------------------------------------------------------------
# end to end: every coefficient the engine builds over Q is canonical
# ---------------------------------------------------------------------------

VALUES = ["1", "-1", "2", "-3", "1/2", "-2/3", "5/4", "3"]


def _random_scene(rng: random.Random):
    ring = PolyRing(QQ, 3)
    while True:
        diag = rng.sample(VALUES, 3)
        upper = rng.choice(["0", "0", rng.choice(VALUES)])
        rows = [[diag[0], upper, "0"], ["0", diag[1], "0"], ["0", "0", diag[2]]]
        sigma = ProjAutomorphism.from_strings(ring, rows)
        coords = [rng.choice(VALUES + ["0"]) for _ in range(3)]
        if any(c != "0" for c in coords):
            break
    point = RationalPoint.of(QQ, coords).ideal(ring)
    forms = [ring.variable(i) * ring.variable(j) for i in range(3) for j in range(i, 3)]
    gens = [sum((f.scale(QQ.from_str(rng.choice(VALUES)))
                 for f in rng.sample(forms, 2)), ring.zero()) for _ in range(2)]
    return ring, sigma, point, HomIdeal(ring, gens)


def _coefficients(polys):
    return [c for p in polys for c in p.terms.values()]


def test_engine_output_is_canonical_over_random_q_scenes():
    coeffs = []
    for seed in range(6):
        rng = random.Random(seed)
        ring, sigma, point, quadrics = _random_scene(rng)
        coeffs += _coefficients(quadrics.groebner())
        coeffs += _coefficients(ideal_quotient(quadrics, point).groebner())
        scene = IdealizerScene(ring, sigma, point)
        for n in (1, 2):
            coeffs += _coefficients(scene.colon_ideal(n).groebner())
            coeffs += _coefficients(idealizer_piece(scene, n).basis)
        for d in free_resolution(quadrics).maps:
            coeffs += _coefficients(p for col in d.columns for p in col.comps.values())
    assert [c for c in coeffs if not canonical(c)] == []
    # both forms occur, so the check above is not vacuous for either
    assert {type(c) for c in coeffs} == {int, Fraction}
