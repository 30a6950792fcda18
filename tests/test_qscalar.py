"""Exact arithmetic in Q(q): canonical forms, parsing, field laws."""

import copy
import math
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import qscalar as qs
from braidalg.bialg import DEFAULT_POINTS, PRIMES
from braidalg.qscalar import (ModRing, NonUnitError, PoleError, RatFunc,
                              ScalarParseError, ZeroDenominatorError, parse_scalar)


def dense(p):
    """(lowest exponent, coefficients from it up) of {exponent: coefficient}."""
    lo = min(p, default=0)
    return lo, [p.get(e, 0) for e in range(lo, max(p, default=-1) + 1)]


def rf(num, den={0: 1}):
    """num/den as a RatFunc, num and den Laurent polynomials {exponent: coefficient}."""
    (k, n), (j, d) = dense(num), dense(den)
    return RatFunc(k - j, n, d)


def structure(x):
    return x.k, x.num, x.den


def test_parse_basic_polynomial():
    a = parse_scalar("q^2 - 1")
    assert structure(a) == (0, (-1, 0, 1), (1,))


def test_parse_fraction_canonicalizes():
    # multiply through by q: (q - q^-1)/(q + q^-1) = (q^2 - 1)/(q^2 + 1)
    a = parse_scalar("(q - q^-1)/(q + q^-1)")
    assert structure(a) == (0, (-1, 0, 1), (1, 0, 1))


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
    assert a.den[-1] > 0
    assert a.den[0] != 0


def test_evaluate():
    F = ModRing((PRIMES[0],))
    a = parse_scalar("q - q^-1")
    assert a.evaluate(2) == Fraction(3, 2)
    assert a.evaluate_mod(F.image(2)) == F.image(Fraction(3, 2))
    assert a.evaluate(1) == 0 and not a.evaluate_mod(F.one)
    for at in (lambda c: c.evaluate(1), lambda c: c.evaluate_mod(F.one)):
        with pytest.raises(PoleError):
            at(parse_scalar("1/(q - 1)"))
    for at in (lambda c: c.evaluate(0), lambda c: c.evaluate_mod(F.zero)):
        with pytest.raises(PoleError):
            at(a)


# -- randomized field laws ---------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=-3, max_value=3)
laurents = st.dictionaries(exps, coeffs, max_size=3)


def ratfuncs():
    return st.tuples(laurents, laurents).filter(lambda t: any(t[1].values())) \
        .map(lambda t: rf(t[0], t[1]))


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


def test_printed_text_is_pinned():
    # every coefficient in a document is printed this way
    pinned = {
        "q^-2 - 2*q + 1": "q^-2 + 1 - 2*q",
        "-q^3 + q^-1 - 1": "q^-1 - 1 - q^3",
        "7": "7",
        "q - q": "0",
        "-q": "-q",
        "q^-1": "q^-1",
        "1/(1 + q)": "(1)/(1 + q)",
        "(q^2 - 1)/(2*q^3 + q)": "(-q^-1 + q)/(1 + 2*q^2)",
        "(3*q^-2 + 1)/(-q^2 + 5)": "(-3*q^-2 - 1)/(-5 + q^2)",
        "-12*q^-3/(6 - 4*q^2)": "(6*q^-3)/(-3 + 2*q^2)",
    }
    assert {text: str(parse_scalar(text)) for text in pinned} == pinned


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
    assert structure(a) == structure(b)


# -- interning: one object per value, memoized arithmetic ---------------------

nonconstant = st.dictionaries(exps, coeffs, min_size=2, max_size=3) \
    .filter(lambda p: any(p.values()))
denominators = st.one_of(laurents.filter(lambda p: any(p.values())), nonconstant)


def laurent(k, p):
    """q^k * p(q), p dense, as {exponent: coefficient}."""
    return {e: c for e, c in enumerate(p, k) if c}


def shifted(p, k):
    return {e + k: c for e, c in p.items()}


def scaled(p, n):
    return {e: c * n for e, c in p.items()}


def dict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def assert_canonical(x):
    """The invariants of the canonical form q^k * num / den."""
    assert type(x.num) is type(x.den) is tuple
    if not x.num:
        assert structure(x) == (0, (), (1,))
        return
    assert x.num[0] and x.num[-1] and x.den[0] and x.den[-1] > 0
    assert qs._poly_gcd(x.num, x.den) == [1]  # no common factor or content


def fraction_value(x, q0):
    """x at q = q0 in exact rationals, computed here from the coefficients."""
    def at(k, p):
        return sum(Fraction(c) * q0 ** e for e, c in enumerate(p, k))
    return at(x.k, x.num) / at(0, x.den)


@settings(max_examples=150, deadline=None)
@given(laurents, denominators, laurents, denominators, st.integers(-3, 3))
def test_values_are_one_object_exactly_when_structurally_equal(n1, d1, n2, d2, k):
    a, b = rf(n1, d1), rf(n2, d2)
    values = [a, b, rf(dict(n1), dict(d1)), parse_scalar(str(a)), parse_scalar(str(b)),
              rf(shifted(n1, k), shifted(d1, k)), rf(scaled(n1, 2), scaled(d1, 2)),
              a + b, b + a, a - b, -(b - a), a * b, b * a, -a, -(-a), a - a, a * 0,
              RatFunc.from_int(k), RatFunc.q_power(k), parse_scalar(f"q^{k}"), parse_scalar(str(k))]
    if b:
        values += [a / b, a * b.inverse(), b.inverse(), b.inverse().inverse(), 1 / b]
    for x in values:
        for y in values:
            assert (x is y) == (structure(x) == structure(y)) == (x == y)
            if x == y:
                assert hash(x) == hash(y)
    assert (a == k) == (a is RatFunc.from_int(k))


@settings(max_examples=150, deadline=None)
@given(laurents, denominators, laurents, denominators)
def test_memoized_arithmetic_matches_a_fresh_computation(n1, d1, n2, d2):
    a, b = rf(n1, d1), rf(n2, d2)
    an, ad, bn, bd = laurent(a.k, a.num), laurent(0, a.den), laurent(b.k, b.num), laurent(0, b.den)
    cases = [(lambda x, y: x * y, dict_mul(an, bn), dict_mul(ad, bd), lambda u, v: u * v),
             (lambda x, y: x + y, dict_add(dict_mul(an, bd), dict_mul(bn, ad)), dict_mul(ad, bd),
              lambda u, v: u + v)]
    if b:
        cases.append((lambda x, y: x / y, dict_mul(an, bd), dict_mul(ad, bn), lambda u, v: u / v))
    for op, num, den, exact in cases:
        first = op(a, b)
        assert op(a, b) is first  # the second call is answered by the memo
        assert_canonical(first)
        assert structure(first) == structure(rf(num, den))
        for q0 in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 7)):
            try:
                va, vb, vr = (fraction_value(x, q0) for x in (a, b, first))
                assert vr == exact(va, vb)
            except ZeroDivisionError:  # q0 is a pole of a, b or the result
                pass


@settings(max_examples=50, deadline=None)
@given(laurents, denominators)
def test_pickle_and_deepcopy_return_the_interned_object(n, d):
    a = rf(n, d)
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(a) is a and copy.copy(a) is a
    assert copy.deepcopy([a, {a: a}])[0] is a


def test_hash_is_the_same_under_every_hash_seed():
    text = "(q^3 - 2*q^-1 + 7)/(q^2 + 3*q + 5)"
    src = str(Path(qs.__file__).resolve().parents[1])
    code = f"from braidalg.qscalar import parse_scalar; print(hash(parse_scalar({text!r})))"
    hashes = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src,
                                                  PYTHONHASHSEED=seed)).stdout
              for seed in ("1", "2")}
    assert hashes == {f"{hash(parse_scalar(text))}\n"}


def test_two_threads_building_the_same_values_get_the_same_objects(monkeypatch):
    # values no other test builds; the intern table holds a thread that misses
    # a key until the other thread has missed it too, so both build every new
    # value and only the table's insertion decides which object both get.
    # The Laurent texts multiply on packed images, the last 50 past the bound
    texts = [f"({k} + 7919*q^{k % 5})/(q^2 + {k}*q + 1)" for k in range(10 ** 9, 10 ** 9 + 200)]
    texts += [f"{k} - 7919*q^{k % 5 - 2}" for k in range(10 ** 9 + 200, 10 ** 9 + 350)]
    texts += [f"{k} - 7919*q^{k % 5 - 2}" for k in range(10 ** 12, 10 ** 12 + 50)]
    meet, built = threading.Barrier(2, timeout=10), [None, None]

    class RacingTable(dict):
        def get(self, key, default=None):
            found = super().get(key, default)
            if found is None:
                meet.wait()
            return found

    def build(i):
        built[i] = [parse_scalar(t) * (1 + qs.Q) for t in texts]

    table = qs._VALUES
    racing = RacingTable(table)
    monkeypatch.setattr(qs, "_VALUES", racing)
    threads = [threading.Thread(target=build, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    table.update(racing)  # keep every value made here interned for good
    monkeypatch.setattr(qs, "_VALUES", table)
    assert not any(t.is_alive() for t in threads)
    assert len(built[0]) == len(built[1]) == 400
    assert all(x is y for x, y in zip(*built))
    assert all(x is parse_scalar(t) * (1 + qs.Q) for x, t in zip(built[0], texts))


# -- sums and products on packed images ----------------------------------------

HALF = 1 << (qs.W - 1)
# coefficients on both sides of the packed bound, up to 2^70
big_coeffs = st.one_of(st.integers(-4, 4), st.integers(-2 ** 16, 2 ** 16),
                       st.integers(-HALF, HALF), st.integers(-2 ** 70, 2 ** 70))
laurent_polys = st.builds(RatFunc, st.integers(-4, 4), st.lists(big_coeffs, max_size=6))


def constructed(op, a, b):
    """a op b for Laurent a, b as the constructor builds it from tuples."""
    k = min(a.k, b.k)
    if op == "*":
        return RatFunc(a.k + b.k, qs._mul(a.num, b.num))
    num = b.num if op == "+" else [-c for c in b.num]
    return RatFunc(k, qs._add(a.num, a.k - k, num, b.k - k))


@settings(max_examples=300, deadline=None)
@given(laurent_polys, laurent_polys)
def test_laurent_sums_and_products_are_the_constructors_objects(a, b):
    assert a + b is constructed("+", a, b)
    assert a - b is constructed("-", a, b)
    assert a * b is constructed("*", a, b)
    assert b * a is a * b and b + a is a + b
    for x in (a, b, a + b, a - b, a * b):
        assert_canonical(x)
        assert (x._pk is None) == (max(map(abs, x.num), default=0) >= HALF)


def test_packed_operations_run_exactly_below_the_bound(monkeypatch):
    # q^1001.. keeps these operand pairs out of every other test's memo
    packed, laurent = [], qs._laurent
    monkeypatch.setattr(qs, "_laurent", lambda k, n: packed.append(n) or laurent(k, n))
    m = HALF // 2
    cases = [  # (op, a, b, packed): sums need mx_a + mx_b < HALF, products
               # min(len_a, len_b) * mx_a * mx_b < HALF
        ("+", [m], [m - 1], True), ("+", [m], [m], False), ("-", [-m], [m], False),
        ("-", [1 - m, 3], [0, 3], True), ("+", [1 - m, 1, 5], [m - 1, -1, 2], True),
        ("-", [3, -4], [3, -4], True), ("+", [0, 2 - HALF], [0, 0, 1], True),
        ("*", [HALF - 1], [0, -1], True), ("*", [HALF - 1], [2], False),
        ("*", [2 ** 15, 2 ** 15], [2 ** 15 - 1, 1 - 2 ** 15], True),
        ("*", [2 ** 15, 2 ** 15], [2 ** 15, 2 ** 15], False),
        ("*", [HALF], [1], False), ("+", [-HALF], [0, 1], False),
    ]
    for i, (op, p, r, want_packed) in enumerate(cases):
        a, b = RatFunc(1001 + i, p), RatFunc(1001 + i, r)
        packed.clear()
        got = a * b if op == "*" else a + b if op == "+" else a - b
        assert got is constructed(op, a, b), (op, p, r)
        assert bool(packed) == want_packed, (op, p, r)
    assert RatFunc(0, [HALF - 1, 1 - HALF])._pk is not None
    assert RatFunc(0, [HALF, 1])._pk is None and RatFunc(0, [1, -HALF])._pk is None
    assert RatFunc(0, [1], [1, 1])._pk is None  # not a Laurent polynomial


# -- residue rings Z/MZ ---------------------------------------------------------

MODULI = (PRIMES[0], 7, 101)
fractions = st.fractions(max_denominator=50).filter(lambda f: abs(f.numerator) < 10 ** 30)


@pytest.mark.parametrize("p", MODULI)
@settings(max_examples=150, deadline=None)
@given(fractions, fractions)
def test_modp_arithmetic_agrees_with_fractions(p, a, b):
    F = ModRing((p,))
    if a.denominator % p == 0 or b.denominator % p == 0:
        return
    x, y = F.image(a), F.image(b)
    assert x + y == F.image(a + b)
    assert x - y == F.image(a - b)
    assert -x == F.image(-a)
    assert x * y == F.image(a * b)
    assert bool(y) == bool(b.numerator % p)
    if y:
        assert x / y == F.image(a / b)
    else:
        with pytest.raises(ZeroDenominatorError):
            x / y
    # printed as the representative of least absolute value
    assert abs(int(str(x))) <= p // 2 and F.from_int(int(str(x))) == x


@pytest.mark.parametrize("p", MODULI)
@settings(max_examples=150, deadline=None)
@given(ratfuncs(), fractions.filter(bool))
def test_evaluate_mod_is_evaluate_reduced_mod_p(p, a, q0):
    F = ModRing((p,))
    if q0.numerator % p == 0 or q0.denominator % p == 0:
        return
    x = F.image(q0)
    # the denominator is a polynomial, so its rational value has a
    # denominator prime to p and an image mod p
    if not F.image(RatFunc(0, a.den).evaluate(q0)):
        with pytest.raises(PoleError):
            a.evaluate_mod(x)
    else:
        assert a.evaluate_mod(x) == F.image(a.evaluate(q0))


def test_mod_p_rejects_denominators_divisible_by_p():
    F = ModRing((7,))
    assert F.image(Fraction(3, 2)) == 5
    with pytest.raises(PoleError):
        F.image(Fraction(3, 14))


SMALL = ModRing((7, 11, 13))


@pytest.mark.parametrize("ring", [ModRing(PRIMES[:3]), SMALL], ids=["table", "small"])
@settings(max_examples=150, deadline=None)
@given(fractions, fractions)
def test_projection_mod_each_prime_commutes_with_the_ring(ring, a, b):
    # Z/MZ is the product of the GF(p_i): projecting mod p_i is a ring map
    if math.gcd(a.denominator * b.denominator, ring.M) != 1:
        return
    x, y = ring.image(a), ring.image(b)
    for F in ring.fields:
        def proj(z):
            return F.from_int(z.v)
        assert proj(x + y) == F.image(a + b)
        assert proj(x - y) == F.image(a - b)
        assert proj(x * y) == F.image(a * b)
    vanish = tuple(p for p in ring.primes if not b.numerator % p)
    if not vanish:
        for F in ring.fields:
            assert F.from_int(y.inverse().v) == F.image(1 / b)
    elif len(vanish) < len(ring.primes):
        with pytest.raises(NonUnitError) as err:
            y.inverse()
        assert err.value.primes == vanish
    else:
        with pytest.raises(ZeroDenominatorError):
            y.inverse()


def test_crt_lifts_the_residues_of_each_point():
    points = (Fraction(7, 6), Fraction(-3), Fraction(-2))
    x = SMALL.crt([F.image(q0) for F, q0 in zip(SMALL.fields, points)])
    assert [F.from_int(x.v) for F in SMALL.fields] == \
        [F.image(q0) for F, q0 in zip(SMALL.fields, points)]


def _is_prime(n):
    """Deterministic Miller-Rabin: these bases decide every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def test_sample_primes_are_distinct_primes():
    assert PRIMES[0] == 2 ** 61 - 1
    assert len(set(PRIMES)) == len(PRIMES) >= 3
    assert all(_is_prime(p) for p in PRIMES)
    assert not any(_is_prime(n) for n in (561, 2 ** 61 - 3, 2 ** 61 - 9, 2 ** 61 - 33))
    # the next primes below 2^61 - 1, with none skipped
    assert [n for n in range(PRIMES[0], PRIMES[-1] - 1, -1) if _is_prime(n)] == list(PRIMES)
    assert DEFAULT_POINTS == len(PRIMES)


def test_printing_an_integer_beyond_the_digit_limit_is_a_qscalar_error():
    huge = 10 ** 5000
    for value in (rf({0: huge}), rf({3: -huge}), rf({1: 1}, {0: huge, 1: 1})):
        with pytest.raises(qs.QScalarError):
            str(value)
    assert str(rf({0: 10 ** 4000, 2: -1})) == "1" + "0" * 4000 + " - q^2"
