"""Exact arithmetic in Q(q): canonical forms, parsing, field laws."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import qscalar as qs
from braidalg.qscalar import (LaurentPoly, PoleError, RatFunc, ScalarParseError,
                              ZeroDenominatorError, parse_scalar)


def lp(d):
    return LaurentPoly(d)


def test_parse_basic_polynomial():
    a = parse_scalar("q^2 - 1")
    assert a.num == lp({2: 1, 0: -1})
    assert a.den == lp({0: 1})


def test_parse_fraction_canonicalizes():
    # multiply through by q: (q - q^-1)/(q + q^-1) = (q^2 - 1)/(q^2 + 1)
    a = parse_scalar("(q - q^-1)/(q + q^-1)")
    assert a.num == lp({2: 1, 0: -1})
    assert a.den == lp({2: 1, 0: 1})


def test_parse_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        parse_scalar("1/(q - q)")


def test_parse_syntax_errors():
    for bad in ["q +", "(q", "q^^2", "x + 1", "1//2"]:
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_power_bound():
    bound = qs.MAX_POWER_SPAN
    # the bound counts |e| times the degree span of the base (at least 1)
    assert parse_scalar(f"(1+q)^{bound}") == parse_scalar("1+q") * parse_scalar(
        f"(1+q)^{bound - 1}")
    assert parse_scalar(f"q^-{bound}") == RatFunc.q_power(-bound)
    # (q^2+1)/q is q + q^-1, of span 2; 1/(1+q) has span 1 in its denominator
    assert parse_scalar(f"((q^2+1)/q)^{bound // 2}").degree_span() == bound
    assert parse_scalar(f"(1/(1+q))^-{bound}") == parse_scalar(f"(1+q)^{bound}")
    for bad in (f"(1+q)^{bound + 1}", "(1+q)^1600", f"q^{bound + 1}", f"2^-{bound + 1}",
                f"((q^2+1)/q)^{bound // 2 + 1}", f"(1/(1+q))^{bound + 1}",
                "q^" + "9" * 40):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_nesting_bound():
    depth = qs.MAX_NESTING
    assert parse_scalar("(" * depth + "q" + ")" * depth) == qs.Q
    for n in (depth + 1, 5000):
        with pytest.raises(ScalarParseError):
            parse_scalar("(" * n + "q" + ")" * n)
    # signs are read in a loop, so long sign chains neither recurse nor fail
    assert parse_scalar("-" * 5001 + "q") == -qs.Q
    assert parse_scalar("+-" * 5000 + "q^2") == parse_scalar("q^2")


def test_parse_overlong_integer_literal():
    with pytest.raises(ScalarParseError):
        parse_scalar("9" * 5000)


def test_add_cancels_to_monomial():
    assert parse_scalar("q - q^-1") + parse_scalar("q^-1") == parse_scalar("q")


def test_exact_division():
    assert parse_scalar("q^2 - 1") / parse_scalar("q - 1") == parse_scalar("q + 1")


def test_multiplication_by_zero():
    x = parse_scalar("(q^3 - 2)/(q + 5)")
    assert (x * RatFunc.from_int(0)).is_zero()


def test_denominator_normalization():
    # denominator must come out with positive leading coefficient, no q factor
    a = parse_scalar("1/(-q^3 + q)")
    assert a.den.lead_coeff() > 0
    assert a.den.min_exp() == 0


def test_evaluate():
    a = parse_scalar("q - q^-1")
    assert a.evaluate(2) == Fraction(3, 2)
    assert a.evaluate(1) == 0
    with pytest.raises(PoleError):
        parse_scalar("1/(q - 1)").evaluate(1)
    with pytest.raises(PoleError):
        a.evaluate(0)


# -- randomized field laws ---------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=-3, max_value=3)
laurents = st.dictionaries(exps, coeffs, max_size=3).map(LaurentPoly)


def ratfuncs():
    return st.tuples(laurents, laurents).filter(lambda t: not t[1].is_zero()) \
        .map(lambda t: RatFunc(t[0], t[1]))


@settings(max_examples=150, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == RatFunc.from_int(1)


@settings(max_examples=150, deadline=None)
@given(ratfuncs())
def test_print_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_evaluate_is_homomorphism(a, b):
    q0 = Fraction(3, 2)
    try:
        va, vb = a.evaluate(q0), b.evaluate(q0)
        vab = (a * b).evaluate(q0)
        vs = (a + b).evaluate(q0)
    except PoleError:
        return
    assert vab == va * vb
    assert vs == va + vb


def test_canonical_equality_is_structural():
    a = parse_scalar("(q^2 - 1)/(q^3 + q)")
    b = parse_scalar("(q - q^-1)/(q^2 + 1)")
    assert a == b
    assert hash(a) == hash(b)
    assert a.num == b.num and a.den == b.den


# -- the prime field GF(PRIME) -------------------------------------------------

PRIMES = (qs.PRIME, 7, 101)
fractions = st.fractions(max_denominator=50).filter(lambda f: abs(f.numerator) < 10 ** 30)


@contextlib.contextmanager
def modulus(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "PRIME", p)
        yield


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, deadline=None)
@given(fractions, fractions)
def test_modp_arithmetic_agrees_with_fractions(p, a, b):
    with modulus(p):
        if a.denominator % p == 0 or b.denominator % p == 0:
            return
        x, y = qs.ModP(qs.mod_p(a)), qs.ModP(qs.mod_p(b))
        assert x + y == qs.ModP(qs.mod_p(a + b))
        assert x - y == qs.ModP(qs.mod_p(a - b))
        assert -x == qs.ModP(qs.mod_p(-a))
        assert x * y == qs.ModP(qs.mod_p(a * b))
        assert bool(y) == bool(qs.mod_p(b))
        if y:
            assert x / y == qs.ModP(qs.mod_p(a / b))
        else:
            with pytest.raises(ZeroDenominatorError):
                x / y
        # printed as the representative of least absolute value
        assert abs(int(str(x))) <= p // 2 and qs.ModP(int(str(x))) == x


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, deadline=None)
@given(ratfuncs(), fractions.filter(bool))
def test_evaluate_mod_is_evaluate_reduced_mod_p(p, a, q0):
    with modulus(p):
        if q0.numerator % p == 0 or q0.denominator % p == 0:
            return
        x = qs.mod_p(q0)
        # the denominator is a polynomial, so its rational value has a
        # denominator prime to p and a residue mod p
        if qs.mod_p(a.den.evaluate(q0)) == 0:
            with pytest.raises(PoleError):
                a.evaluate_mod(x)
        else:
            assert a.evaluate_mod(x) == qs.ModP(qs.mod_p(a.evaluate(q0)))


def test_mod_p_rejects_denominators_divisible_by_p():
    with modulus(7):
        assert qs.mod_p(Fraction(3, 2)) == 5
        with pytest.raises(PoleError):
            qs.mod_p(Fraction(3, 14))


def test_printing_an_integer_beyond_the_digit_limit_is_a_qscalar_error():
    huge = 10 ** 5000
    for value in (LaurentPoly({0: huge}), LaurentPoly({3: -huge}),
                  RatFunc(LaurentPoly({1: 1}), LaurentPoly({0: huge, 1: 1}))):
        with pytest.raises(qs.QScalarError):
            str(value)
    assert str(LaurentPoly({0: 10 ** 4000, 2: -1})) == "1" + "0" * 4000 + " - q^2"
