"""Exact arithmetic in Q(q), the field of rational functions of one parameter q.

A polynomial is a dense tuple of integer coefficients, low degree first.  A
rational function is q^k * num(q) / den(q) with num and den such tuples,
normalized so that

  * num[0] != 0 and den[0] != 0 (zero is k = 0, num = (), den = (1,)),
  * den has a positive leading coefficient,
  * num and den share no polynomial factor and no integer content,

which makes equality (and hence zero-testing) a structural comparison.
Rational functions are interned: each value is one immutable object, so
equality is identity, and products, sums, quotients and negatives are
memoized by their operands.  They stay safe to share between threads: the
intern table is filled with dict.setdefault, so two threads building one
value get the same object, and a memo entry only ever names that object.

A Laurent polynomial q^k * num (den = 1) with every |coefficient| below
2^(W-1) also holds its packed image num(2^W) in signed base-2^W digits
(Kronecker substitution).  When the result's coefficients provably stay
below that bound, a sum or product of two such values is one integer
operation, and its value is found by (k, image) in a secondary index, also
filled with setdefault; other operands take the tuple path.

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
# dense integer polynomials (low degree first, no trailing zeros)
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


def _mul(a, b):
    """Product of dense integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _add(a, s, b, t):
    """q^s*a + q^t*b for dense integer polynomials a, b and s, t >= 0."""
    out = [0] * max(s + len(a), t + len(b))
    for i, x in enumerate(a, s):
        out[i] += x
    for i, x in enumerate(b, t):
        out[i] += x
    return out


def _laurent_str(k, p):
    """q^k*p(q) as text, ascending powers: 'q^-1 - 3 + 2*q^2'."""
    parts = []
    for e, c in enumerate(p, k):
        if not c:
            continue
        if e == 0:
            body = int_str(abs(c))
        else:
            qpow = "q" if e == 1 else f"q^{int_str(e)}"
            body = qpow if abs(c) == 1 else f"{int_str(abs(c))}*{qpow}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

# _VALUES maps the canonical triple (k, num, den) of each value to its one
# RatFunc and is never emptied, so the id of an operand names its value for
# the life of the process; the memo tables key on such ids.  _PACKED maps k
# to {num(2^W): value} for each Laurent value q^k * num that has a packed image.
_VALUES, _PACKED = {}, {}
_MUL, _ADD, _DIV, _NEG = {}, {}, {}, {}

# digit width of packed images; each digit c is signed, |c| < _HALF
W = 32
_HALF, _MASK = 1 << (W - 1), (1 << W) - 1


def _laurent(k, n):
    """The value q^k * p(q) for n = p(2^W), each digit c of p with |c| < _HALF."""
    if not n:
        return ZERO
    while not n & _MASK:  # a zero constant digit moves into k
        n >>= W
        k += 1
    r = _PACKED.get(k, {}).get(n)
    if r is None:
        digits = []
        while n:
            digits.append((n + _HALF & _MASK) - _HALF)
            n = (n - digits[-1]) >> W
        r = RatFunc._raw(k, tuple(digits), (1,))
    return r


class RatFunc:
    """q^k * num(q) / den(q), a canonical element of Q(q).  RatFunc(k, num,
    den), num and den integer coefficient sequences (low degree first, den
    not zero), normalizes and returns the value's one object.

    A Laurent value also holds _mx, the largest |coefficient| of num, and
    its packed image _pk = num(2^W) while _mx < 2^(W-1), else None.  A sum
    needs _mx + _mx' below that bound, a product min(len) * _mx * _mx':
    p -> p(2^W) is a ring homomorphism, injective on such polynomials."""

    __slots__ = ("k", "num", "den", "_hash", "_pk", "_mx")

    def __new__(cls, k, num, den=(1,)):
        num, den = _trim(list(num)), _trim(list(den))
        if not den:
            raise ZeroDenominatorError("zero denominator")
        if not num:
            return cls._raw(0, (), (1,))
        # move the powers of q dividing num and den into k
        i = next(i for i, c in enumerate(num) if c)
        j = next(j for j, c in enumerate(den) if c)
        k, num, den = k + i - j, num[i:], den[j:]
        if den != [1] and den != [-1]:  # the gcd is 1 when den is a unit
            g = _poly_gcd(num, den)
            if g != [1]:
                num, den = _poly_div_exact(num, g), _poly_div_exact(den, g)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        return cls._raw(k, tuple(num), tuple(den))

    @classmethod
    def _raw(cls, k, num, den):
        """The object of the canonical triple; the only place a RatFunc is made."""
        key = (k, num, den)
        r = _VALUES.get(key)
        if r is None:
            r = object.__new__(cls)
            r.k, r.num, r.den = key
            r._hash = hash(key)  # of integers only: the same in every process
            r._pk = r._mx = None
            if den == (1,):
                r._mx = max(map(abs, num), default=0)
                if r._mx < _HALF:
                    r._pk = sum(c << W * i for i, c in enumerate(num))
            # setdefault: two threads building one value get the same object
            r = _VALUES.setdefault(key, r)
            if r._pk is not None:
                _PACKED.setdefault(k, {}).setdefault(r._pk, r)
        return r

    @classmethod
    def from_int(cls, n):
        return cls._raw(0, (n,) if n else (), (1,))

    @classmethod
    def q_power(cls, k):
        return cls._raw(k, (1,), (1,))

    def __reduce__(self):
        return RatFunc, (self.k, self.num, self.den)

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
            k = min(self.k, other.k)
            a, b = self._pk, other._pk
            if a is not None and b is not None and self._mx + other._mx < _HALF:
                r = _laurent(k, (a << W * (self.k - k)) + (b << W * (other.k - k)))
            elif self.den == other.den:
                r = RatFunc(k, _add(self.num, self.k - k, other.num, other.k - k), self.den)
            else:
                r = RatFunc(k, _add(_mul(self.num, other.den), self.k - k,
                                    _mul(other.num, self.den), other.k - k),
                            _mul(self.den, other.den))
            _ADD[key] = r
        return r

    __radd__ = __add__

    def __neg__(self):
        r = _NEG.get(id(self))
        if r is None:
            r = _NEG[id(self)] = RatFunc._raw(self.k, tuple(-c for c in self.num), self.den)
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
            a, b = self._pk, other._pk
            if (a is not None and b is not None
                    and min(len(self.num), len(other.num)) * self._mx * other._mx < _HALF):
                r = _laurent(self.k + other.k, a * b)
            else:
                r = RatFunc(self.k + other.k, _mul(self.num, other.num),
                            _mul(self.den, other.den))
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
            if not other.num:
                raise ZeroDenominatorError("division by the zero function")
            r = _DIV[key] = RatFunc(self.k - other.k, _mul(self.num, other.den),
                                    _mul(self.den, other.num))
        return r

    def __rtruediv__(self, other):
        return RatFunc.from_int(other) / self

    def degree_span(self):
        """Width of the exponent ranges of num and den, summed."""
        return max(len(self.num) - 1, 0) + len(self.den) - 1

    def inverse(self):
        if not self.num:
            raise ZeroDenominatorError("inverse of the zero function")
        return RatFunc(-self.k, self.den, self.num)

    def evaluate(self, q0) -> Fraction:
        """Exact value at q = q0 (a nonzero rational); raises PoleError at poles."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise PoleError("q = 0 is outside the Laurent domain")
        d = sum(c * q0 ** e for e, c in enumerate(self.den))
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return sum(c * q0 ** e for e, c in enumerate(self.num, self.k)) / d

    def evaluate_mod(self, x: "ModP") -> "ModP":
        """Value at q = x in x's ring; PoleError if x^-1 or den(x)^-1 is missing."""
        def at(k, p):
            return _new(type(x), sum(c * pow(x.v, e, x.M) for e, c in enumerate(p, k)) % x.M)
        try:
            n = at(self.k, self.num)
        except ValueError:
            raise PoleError(f"q = {x} is not a unit mod {int_str(x.M)}") from None
        try:
            return n if self.den == (1,) else n / at(0, self.den)
        except ZeroDivisionError:
            raise PoleError(f"pole at q = {x} mod {int_str(x.M)}") from None

    def __str__(self):
        if self.den == (1,):
            return _laurent_str(self.k, self.num)
        return f"({_laurent_str(self.k, self.num)})/({_laurent_str(0, self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


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


def tokenize(text, error):
    """Tokens of the scalar and polynomial grammars: ("int", value), ("name",
    text) of a letter or _ then letters, digits, . and _, (s, s) of each
    symbol s in +-*/^()[], and a last ("end", "end"); error at all else."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()[],":
            toks.append((ch, ch))
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(("int", int(text[i:j])))
            except ValueError:  # beyond the interpreter's integer-string limit
                raise error(f"integer literal at position {i} is too long") from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        else:
            raise error(f"unexpected character {ch!r} at position {i}")
    toks.append(("end", "end"))
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
        super().__init__(tokenize(text, ScalarParseError), text)

    def divide(self, v, w):
        return v / w

    def raise_to(self, base, e):
        return bounded_pow(base, e, ONE, ScalarParseError)

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return RatFunc.from_int(val)
        if kind == "name" and val == "q":
            return Q
        if kind == "(":
            return self.parenthesized()
        raise ScalarParseError(f"unexpected token {val!r} in {self.text!r}")


def parse_scalar(text: str) -> RatFunc:
    """Parse a coefficient expression into a canonical rational function."""
    return _ScalarParser(text).parse()
