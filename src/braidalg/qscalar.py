"""Exact arithmetic in Q(q), the field of rational functions of one parameter q.

A Laurent polynomial is a dict {exponent: integer coefficient} with no zero
coefficients stored; the zero polynomial is the empty dict.  A rational
function is a reduced fraction num/den of two Laurent polynomials with
integer coefficients, normalized so that

  * den is an ordinary polynomial (lowest exponent 0) with positive leading
    coefficient,
  * num and den share no polynomial factor and no integer content,

which makes equality (and hence zero-testing) a structural comparison.
Rational functions are interned: each value is one immutable object, so
equality is identity, and products, sums, quotients and negatives are
memoized by their operands.  They stay safe to share between threads: the
intern table is filled with dict.setdefault, so two threads building one
value get the same object, and a memo entry only ever names that object.

Sampled computations specialize q to x in Z/MZ, M = p_1...p_k distinct
primes (a ModRing), and work there with ModP elements: by the Chinese
remainder theorem that is k points mod p_i at once; GF(p) is M = p.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


class QScalarError(ValueError):
    """Base error for scalar arithmetic and parsing."""


class ScalarParseError(QScalarError):
    """Malformed coefficient expression."""


class ZeroDenominatorError(QScalarError, ZeroDivisionError):
    """Division by the zero rational function."""


class PoleError(QScalarError, ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


class NonUnitError(QScalarError, ZeroDivisionError):
    """Inverse of a non-unit of Z/MZ; primes are the p_i modulo which it is 0."""

    def __init__(self, message, primes):
        super().__init__(message)
        self.primes = primes


def int_str(n: int) -> str:
    """Decimal text of n.  Every integer printed here goes through this: an
    integer beyond the interpreter's int-to-str digit limit is refused
    with a QScalarError, not a ValueError."""
    try:
        return str(n)
    except ValueError:
        raise QScalarError(f"cannot print an integer of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


# ---------------------------------------------------------------------------
# integer dense-polynomial helpers (low degree first, no trailing zeros)
# ---------------------------------------------------------------------------

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _content(c):
    g = 0
    for x in c:
        g = math.gcd(g, x)
    return g


def _prim(c):
    g = _content(c)
    if g in (0, 1):
        return list(c)
    return [x // g for x in c]


def _pseudo_rem(a, b):
    """Pseudo-remainder of dense integer polynomials a, b (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        a = [x * lb for x in a]
        shift = da - db
        for i, bi in enumerate(b):
            a[shift + i] -= la * bi
        _trim(a)
    return a


def _poly_gcd(a, b):
    """gcd in Z[x] of dense integer polynomials, content included, lc > 0."""
    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        g = list(b)
    elif not b:
        g = list(a)
    else:
        cont = math.gcd(_content(a), _content(b))
        a, b = _prim(a), _prim(b)
        while b:
            r = _pseudo_rem(a, b)
            a, b = b, _prim(r)
        g = [x * cont for x in _prim(a)]
    if g and g[-1] < 0:
        g = [-x for x in g]
    return g


def _poly_div_exact(a, g):
    """Quotient a/g in Z[x]; requires g | a (checked)."""
    a = _trim(list(a))
    g = _trim(list(g))
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    dq = len(a) - len(g)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (dq + 1)
    lg = g[-1]
    while a:
        da = len(a) - 1
        if da < len(g) - 1:
            raise ArithmeticError("inexact polynomial division")
        c, r = divmod(a[-1], lg)
        if r:
            raise ArithmeticError("inexact polynomial division")
        shift = da - (len(g) - 1)
        q[shift] = c
        for i, gi in enumerate(g):
            a[shift + i] -= c * gi
        _trim(a)
    return q


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Integer-coefficient Laurent polynomial in q, as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            self.coeffs = {}

    @classmethod
    def const(cls, n):
        return cls({0: n}) if n else cls()

    @classmethod
    def term(cls, coeff, exp):
        return cls({exp: coeff}) if coeff else cls()

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        return r

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e: -c for e, c in self.coeffs.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = out
        return r

    def scale(self, n):
        if not n:
            return LaurentPoly()
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e: c * n for e, c in self.coeffs.items()}
        return r

    def shift(self, k):
        """Multiply by q^k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return r

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def lead_coeff(self):
        """Coefficient of the highest power (0 for the zero polynomial)."""
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    def dense(self):
        """Dense list of coefficients of self * q^(-min_exp), low degree first."""
        if not self.coeffs:
            return []
        lo = self.min_exp()
        out = [0] * (self.max_exp() - lo + 1)
        for e, c in self.coeffs.items():
            out[e - lo] = c
        return out

    @classmethod
    def from_dense(cls, dense, shift=0):
        return cls({i + shift: c for i, c in enumerate(dense) if c})

    def evaluate(self, q0: Fraction) -> Fraction:
        if q0 == 0:
            raise PoleError("cannot evaluate a Laurent polynomial at q = 0")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q0 ** e
        return total

    def evaluate_mod(self, x: "ModP") -> "ModP":
        """Value at q = x in x's ring Z/MZ; PoleError when x^-1 is needed
        and does not exist."""
        try:
            return _new(type(x), sum(c * pow(x.v, e, x.M) for e, c in self.coeffs.items()) % x.M)
        except ValueError:
            raise PoleError(f"q = {x} is not a unit mod {int_str(x.M)}") from None

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = int_str(abs(c))
            else:
                qpow = "q" if e == 1 else f"q^{int_str(e)}"
                body = qpow if abs(c) == 1 else f"{int_str(abs(c))}*{qpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly({0: 1})


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

# _VALUES maps the canonical key (sorted num items, sorted den items) of each
# value to its one RatFunc and is never emptied, so the id of an operand names
# its value for the life of the process; the memo tables key on such ids.
_VALUES = {}
_MUL, _ADD, _DIV, _NEG = {}, {}, {}, {}


class RatFunc:
    """Canonical fraction of integer Laurent polynomials; a field element of
    Q(q).  RatFunc(num, den) normalizes and returns the value's one object."""

    __slots__ = ("num", "den", "_hash")

    def __new__(cls, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        return cls._raw(*_normalize(num, den))

    @classmethod
    def _raw(cls, num, den):
        """The object of the canonical num/den; the only place a RatFunc is made."""
        key = (tuple(sorted(num.coeffs.items())), tuple(sorted(den.coeffs.items())))
        r = _VALUES.get(key)
        if r is None:
            r = object.__new__(cls)
            r.num, r.den = num, (_LP_ONE if key[1] == ((0, 1),) else den)
            r._hash = hash(key)  # of integers only: the same in every process
            # setdefault: two threads building one value get the same object
            r = _VALUES.setdefault(key, r)
        return r

    @classmethod
    def from_int(cls, n):
        return cls._raw(LaurentPoly.const(n), _LP_ONE)

    @classmethod
    def q_power(cls, k):
        return cls._raw(LaurentPoly.term(1, k), _LP_ONE)

    def __reduce__(self):
        return RatFunc, (self.num, self.den)

    def is_zero(self):
        return self is ZERO

    def __bool__(self):
        return self is not ZERO

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return self is other if isinstance(other, RatFunc) else NotImplemented

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        key = (id(self), id(other))
        r = _ADD.get(key)
        if r is None:
            if self.den == other.den:
                r = RatFunc(self.num + other.num, self.den)
            else:
                r = RatFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)
            _ADD[key] = r
        return r

    __radd__ = __add__

    def __neg__(self):
        r = _NEG.get(id(self))
        if r is None:
            r = _NEG[id(self)] = RatFunc._raw(-self.num, self.den)
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        key = (id(self), id(other))
        r = _MUL.get(key)
        if r is None:
            # fast path: both denominators trivial (the common case in practice)
            if self.den is _LP_ONE and other.den is _LP_ONE:
                r = RatFunc._raw(self.num * other.num, _LP_ONE)
            else:
                r = RatFunc(self.num * other.num, self.den * other.den)
            _MUL[key] = r
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        key = (id(self), id(other))
        r = _DIV.get(key)
        if r is None:
            if other.num.is_zero():
                raise ZeroDenominatorError("division by the zero function")
            r = _DIV[key] = RatFunc(self.num * other.den, self.den * other.num)
        return r

    def __rtruediv__(self, other):
        return RatFunc.from_int(other) / self

    def degree_span(self):
        """Width of the exponent ranges of num and den, summed."""
        return (self.num.max_exp() - self.num.min_exp()
                + self.den.max_exp() - self.den.min_exp())

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDenominatorError("inverse of the zero function")
        return RatFunc(self.den, self.num)

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0 (a nonzero rational); raises PoleError at poles."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise PoleError("q = 0 is outside the Laurent domain")
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def evaluate_mod(self, x: "ModP") -> "ModP":
        """Value at q = x in x's ring; PoleError if x^-1 or den(x)^-1 is missing."""
        n = self.num.evaluate_mod(x)
        try:
            return n if self.den is _LP_ONE else n / self.den.evaluate_mod(x)
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {x} mod {int_str(x.M)}") from None

    def __str__(self):
        if self.den.coeffs == {0: 1}:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _normalize(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    # clear the q-power of den into num (den becomes an ordinary polynomial,
    # nonzero at 0)
    m = den.min_exp()
    if m:
        den = den.shift(-m)
        num = num.shift(-m)
    if den.coeffs == {0: 1}:
        return num, _LP_ONE
    if den.coeffs == {0: -1}:
        return -num, _LP_ONE
    g = _poly_gcd(num.dense(), den.dense())
    if g != [1]:
        nshift = num.min_exp()
        num = LaurentPoly.from_dense(_poly_div_exact(num.dense(), g), nshift)
        den = LaurentPoly.from_dense(_poly_div_exact(den.dense(), g))
    if den.lead_coeff() < 0:
        num, den = -num, -den
    if den.coeffs == {0: 1}:
        den = _LP_ONE
    return num, den


ZERO = RatFunc.from_int(0)
ONE = RatFunc.from_int(1)
Q = RatFunc.q_power(1)
QINV = RatFunc.q_power(-1)


# ---------------------------------------------------------------------------
# residue rings Z/MZ, M a product of distinct primes
# ---------------------------------------------------------------------------

class ModP:
    """A residue class mod M, held as its least nonnegative residue v; M and
    ring are attributes of the class each ModRing makes for its elements."""

    __slots__ = ("v",)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.M
        if not isinstance(other, ModP):
            return NotImplemented
        return self.v == other.v and self.M == other.M

    def __hash__(self):
        return hash(self.v)

    def __add__(self, other):
        return _new(type(self), (self.v + other.v) % self.M)

    def __sub__(self, other):
        return _new(type(self), (self.v - other.v) % self.M)

    def __neg__(self):
        return _new(type(self), -self.v % self.M)

    def __mul__(self, other):
        return _new(type(self), self.v * other.v % self.M)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        try:
            return _new(type(self), pow(self.v, -1, self.M))
        except ValueError:
            if not self.v:
                raise ZeroDenominatorError(f"division by zero mod {int_str(self.M)}") from None
            primes = tuple(p for p in self.ring.primes if not self.v % p)
            raise NonUnitError(f"{self} is not a unit: it is zero mod "
                               f"{', '.join(map(int_str, primes))}", primes) from None

    def __str__(self):
        # the representative of least absolute value
        return int_str(min(self.v, self.v - self.M, key=abs))

    def __repr__(self):
        return f"ModP({self})"


def _new(cls, v):
    # internal: v is already reduced
    r = object.__new__(cls)
    r.v = v
    return r


class ModRing:
    """Z/MZ for M the product of distinct primes; fields are the rings
    GF(p_i), in order (for k = 1, the ring itself)."""

    def __init__(self, primes):
        self.primes = tuple(primes)
        self.M = math.prod(self.primes)
        self.element = type("ModP", (ModP,), {"__slots__": (), "M": self.M, "ring": self})
        self.zero = _new(self.element, 0)
        self.one = _new(self.element, 1)
        self.fields = ((self,) if len(self.primes) == 1
                       else tuple(ModRing((p,)) for p in self.primes))

    def from_int(self, n):
        return _new(self.element, n % self.M)

    def image(self, q0):
        """The image n * d^-1 of q0 = n/d; PoleError when d is not a unit."""
        q0 = Fraction(q0)
        if math.gcd(q0.denominator, self.M) != 1:
            raise PoleError(f"q = {q0} has no image mod {int_str(self.M)}")
        return self.from_int(q0.numerator * pow(q0.denominator, -1, self.M))

    def crt(self, residues):
        """The element whose image in fields[i] is residues[i]."""
        return self.from_int(sum(r.v * (self.M // p) * pow(self.M // p, -1, p)
                                 for p, r in zip(self.primes, residues)))


# ---------------------------------------------------------------------------
# coefficient rings: RatFunc for exact mode, ModP for sampled mode
# ---------------------------------------------------------------------------

class RatFuncField:
    """Field handle for Q(q) coefficients."""

    zero = ZERO
    one = ONE

    @staticmethod
    def from_int(n):
        return RatFunc.from_int(n)


QQ_Q = RatFuncField()


# ---------------------------------------------------------------------------
# parsing and printing of coefficient expressions
# ---------------------------------------------------------------------------
#
# grammar: integers, the symbol q, ^ with a (possibly negative) integer
# exponent, binary + - * /, unary + and -, parentheses; whitespace ignored.

# Input bounds shared with the polynomial parser (ncalg).  A power costs
# the size of its result, so |exponent| * max(1, degree span of the base)
# is capped; each level of parentheses costs a few stack frames of
# recursive descent, so nesting is capped well below the recursion limit.
MAX_POWER_SPAN = 512
MAX_NESTING = 100


def read_int(text, i, error):
    """The decimal integer starting at text[i], as (value, end position)."""
    j = i
    while j < len(text) and text[j].isdigit():
        j += 1
    try:
        return int(text[i:j]), j
    except ValueError:  # beyond the interpreter's integer-string limit
        raise error(f"integer literal at position {i} is too long") from None


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            v, i = read_int(text, i, ScalarParseError)
            toks.append(("int", v))
        elif ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
        elif ch == "q":
            toks.append(("q", "q"))
            i += 1
        else:
            raise ScalarParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("end", None))
    return toks


def bounded_pow(base, e, one, error):
    """base^e by repeated multiplication (one is the field unit); raises
    error when |e| * max(1, degree span of base) exceeds MAX_POWER_SPAN."""
    span = base.degree_span() if isinstance(base, RatFunc) else 0
    if abs(e) * max(1, span) > MAX_POWER_SPAN:
        raise error(f"power ^{e} exceeds the bound of {MAX_POWER_SPAN} degrees")
    if e < 0:
        base = one / base
        e = -e
    out = one
    for _ in range(e):
        out = out * base
    return out


class DescentParser:
    """Recursive descent over a token list: sums of products of signed
    powers of atoms.  Subclasses supply error, atom, divide and raise_to."""

    error = ScalarParseError

    def __init__(self, toks, text):
        self.toks = toks
        self.pos = 0
        self.text = text
        self.depth = 0

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise self.error(f"expected {kind!r}, got {t[0]!r} in {self.text!r}")
        return t

    def parse(self):
        v = self.expr()
        if self.peek() != "end":
            raise self.error(f"trailing input in {self.text!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            w = self.factor()
            v = v * w if op == "*" else self.divide(v, w)
        return v

    def factor(self):
        neg = False
        while self.peek() in "+-":
            neg ^= self.next()[0] == "-"
        v = self.power()
        return -v if neg else v

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.next()
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        return self.raise_to(base, sign * self.expect("int")[1])

    def parenthesized(self):
        """The expression after an opening parenthesis, through its ')'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"parentheses nested deeper than {MAX_NESTING}")
        v = self.expr()
        self.expect(")")
        self.depth -= 1
        return v


class _ScalarParser(DescentParser):
    def __init__(self, text):
        super().__init__(_tokenize(text), text)

    def divide(self, v, w):
        return v / w

    def raise_to(self, base, e):
        return bounded_pow(base, e, ONE, ScalarParseError)

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return RatFunc.from_int(val)
        if kind == "q":
            return Q
        if kind == "(":
            return self.parenthesized()
        raise ScalarParseError(f"unexpected token {kind!r} in {self.text!r}")


def parse_scalar(text: str) -> RatFunc:
    """Parse a coefficient expression into a canonical rational function."""
    return _ScalarParser(text).parse()
