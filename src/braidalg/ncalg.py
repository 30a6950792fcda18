"""Free associative algebra over an exact coefficient field.

Generators are matrix entries: a copy label (such as "u", "u2", or a
tensor-factor tag like "L.u") together with a row and column index, printed
label[row,col].  A presentation lists its generators in a roster, and a
monomial is a word: a tuple of roster positions (ints); the empty word is
the unit.  Generator objects appear only where text is parsed or printed.
A polynomial is a dict {word: coefficient} with no zero coefficients
stored.

The monomial order is degree-lexicographic with key (len(word), word):
longer words are larger, and words of equal length compare as tuples of
roster positions.  Builders list later chain copies (and the right tensor
factor) after earlier ones, so "later copy passes earlier copy" words are
leading.

A presentation's relations are placements of block forms.  A form is a
list of relations on k copies of size generators, copy j being positions
j*size .. j*size + size - 1; a placement (form, size, copies) puts it on k
increasing roster copies by a relabelling that keeps the order.  A plain
relation list is one form on one copy of all the generators.  The block
contract: k is 1 or 2, every word of a form lies on its one copy or takes
one letter from each of its two copies, placements share one size, and no
two nonempty ones share their copies; anything else raises NCAlgError.
So the placements' word supports are disjoint, the stored relations, the
placed canonical forms sorted by descending leading word, are the
canonical basis of the whole span, and every relation keeps the copy
multiset of its words, which completion's class pass rests on.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import copy
from operator import itemgetter
from typing import NamedTuple

from .linalg import SparseEchelon
from .qscalar import Q, QQ_Q, DescentParser, bounded_pow, tokenize


class NCAlgError(ValueError):
    """Base error for free-algebra operations."""


class PolyParseError(NCAlgError):
    """Malformed polynomial expression."""


class OrientationError(ValueError):
    """The relation set cannot be solved for its leading monomials."""


class Generator(NamedTuple):
    copy: str
    row: int
    col: int

    def __str__(self):
        return f"{self.copy}[{self.row},{self.col}]"


EMPTY_WORD = ()


def word_str(word, roster) -> str:
    return "*".join(str(roster[g]) for g in word) if word else "1"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class NCPoly:
    """Noncommutative polynomial: finite map from words to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {w: c for w, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def _raw(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def unit(cls, one):
        return cls._raw({EMPTY_WORD: one})

    @classmethod
    def gen(cls, g: int, one):
        return cls._raw({(g,): one})

    @classmethod
    def term(cls, word, coeff):
        return cls._raw({tuple(word): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return NCPoly._raw(out)

    def __neg__(self):
        return NCPoly._raw({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return NCPoly._raw({})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                v = c1 * c2
                s = out.get(w)
                s = v if s is None else s + v
                if s:
                    out[w] = s
                else:
                    del out[w]
        return NCPoly._raw(out)

    def scale(self, c):
        if not c:
            return NCPoly._raw({})
        return NCPoly._raw({w: c * v for w, v in self.terms.items()})

    def sandwich(self, left, right):
        """left * self * right for monomials given as words."""
        left, right = tuple(left), tuple(right)
        if not left and not right:
            return self
        return NCPoly._raw({left + w + right: c for w, c in self.terms.items()})

    def degree(self):
        """Maximal word length, or -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def is_homogeneous(self, d):
        return all(len(w) == d for w in self.terms)

    def homogeneous_parts(self):
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {d: NCPoly._raw(t) for d, t in sorted(parts.items())}

    def map_coefficients(self, f):
        out = {}
        for w, c in self.terms.items():
            v = f(c)
            if v:
                out[w] = v
        return NCPoly._raw(out)

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        body = " + ".join(f"({c})*{w}" for w, c in self.terms.items())
        return f"NCPoly({body})"


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------

class DegLexOrder:
    """Degree-lexicographic order on words of roster positions."""

    __slots__ = ()

    def key(self, word):
        return (len(word), word)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class Presentation:
    """Generator roster plus homogeneous quadratic relations, given as
    placements (form, size, copies) or as a plain relation list.

    Each distinct form is pruned once to its canonical reduced echelon
    basis, and equal bases are one object (forms lists each once;
    placements holds them).  relations is their placed union by
    descending leading word, so equal spans store equal relation lists.
    leads are the relations' leading words.  A singular exchange block
    forces a lead that no relation as given led with and that puts a
    generator of an earlier copy (by first roster appearance) before a
    later one; no rule rewrites that word downwards, so construction
    raises OrientationError naming the largest such word.  point is the
    value of q in Z/MZ a specialization (evaluate_mod) was taken at, and
    None over Q(q).
    """

    def __init__(self, dim, roster, relations, field=QQ_Q, name=""):
        self.dim = dim
        self.roster = tuple(roster)
        if len(set(self.roster)) != len(self.roster):
            raise NCAlgError("duplicate generators in roster")
        self.positions = {g: i for i, g in enumerate(self.roster)}
        self.field = field
        self.name = name
        self.order = DegLexOrder()
        relations = list(relations)
        if relations and isinstance(relations[0], NCPoly):
            relations = [(relations, len(self.roster), (0,))]
        labels = {c: i for i, c in enumerate(dict.fromkeys(g.copy for g in self.roster))}
        rank = [labels[g.copy] for g in self.roster]
        forms, canonical, owned, placements, forced = {}, {}, set(), [], []
        for given, size, copies in relations:
            copies = tuple(copies)
            to = [c * size + g for c in copies for g in range(size)]
            if size != relations[0][1] or not (to and 0 <= to[0] and to[-1] < self.ngens) or any(
                    b <= a for a, b in zip(copies, copies[1:])):
                raise NCAlgError("placements must share one block size and lie on "
                                 "increasing roster copies")
            if id(given) not in forms:
                if not all(r.is_homogeneous(2) for r in given):
                    raise NCAlgError("relations must be homogeneous of degree 2")
                form = tuple(_prune(given, self.order))
                form = canonical.setdefault(tuple(tuple(sorted(r.terms.items())) for r in form),
                                            form)
                sourced = {max(r.terms) for r in given if r}
                contents = {tuple(sorted(g // size for g in w)) for r in form for w in r.terms}
                unsourced = [w for w in (max(r.terms) for r in form) if w not in sourced]
                forms[id(given)] = form, contents, unsourced
            form, contents, unsourced = forms[id(given)]
            if len(copies) > 2 or any(c != (0, len(copies) - 1) for c in contents):
                raise NCAlgError("a placement's words must lie on its one copy or take "
                                 "one letter from each of its two copies")
            if form:
                if copies in owned:
                    raise NCAlgError("two placements put words on the same copies")
                owned.add(copies)
            forced += [(to[a], to[b]) for a, b in unsourced if rank[to[a]] < rank[to[b]]]
            placements.append((form, size, copies))
        if forced:
            raise OrientationError(
                f"cannot orient for this order: exchange coefficient matrix "
                f"is singular (forced a rule for the ascending cross-copy "
                f"word {word_str(max(forced), self.roster)})")
        led = sorted(((max(r.terms), r) for form, size, copies in placements
                      for r in _place(form, size, copies)), key=itemgetter(0), reverse=True)
        self.forms, self.placements = list(canonical.values()), tuple(placements)
        self.relations, self.leads = tuple(r for _, r in led), tuple(w for w, _ in led)
        self.point, self._cache = None, {}

    @property
    def ngens(self):
        return len(self.roster)

    def gen(self, copy, row, col) -> int:
        """The roster position of copy[row,col]."""
        g = Generator(copy, row, col)
        if g not in self.positions:
            raise NCAlgError(f"{g} is not a roster generator")
        return self.positions[g]

    def evaluate_mod(self, x) -> "Presentation":
        """The specialization q -> x in x's ring Z/MZ, each distinct
        coefficient of the forms evaluated once; raises PoleError at a pole
        of a relation coefficient.  It keeps every monic leading term, so
        the specialized forms are canonical bases with the same leading
        words, and the placed relations, which hold the forms' coefficients,
        take the same values on the same words.  point records x."""
        coeffs = dict.fromkeys(c for form in self.forms for r in form for c in r.terms.values())
        special = {c: c.evaluate_mod(x) for c in coeffs}.__getitem__
        forms = {id(form): tuple(r.map_coefficients(special) for r in form) for form in self.forms}
        P = copy.copy(self)
        P.forms = list(forms.values())
        P.placements = tuple((forms[id(form)], size, copies)
                             for form, size, copies in self.placements)
        P.relations = tuple(r.map_coefficients(special) for r in self.relations)
        P.field, P.point, P._cache = x.ring, x, {}
        return P

    def __repr__(self):
        return (f"Presentation({self.name or 'anonymous'}: {self.ngens} generators, "
                f"{len(self.relations)} relations)")


def _prune(relations, order):
    """Canonical reduced echelon basis of the degree-2 relation span."""
    ech = SparseEchelon(order.key)
    for r in relations:
        if r:
            ech.insert(dict(r.terms))
    return [NCPoly(row) for row, _ in ech.canonical()]


def _place(form, size: int, copies):
    """The relations of form moved onto the increasing copies given (every
    word has length 2); form's own relations when they stay in place."""
    if list(copies) == list(range(len(copies))):
        return list(form)
    to = [c * size + g for c in copies for g in range(size)]
    return [NCPoly._raw({(to[a], to[b]): c for (a, b), c in r.terms.items()}) for r in form]


# ---------------------------------------------------------------------------
# polynomial text syntax:  coefficients in the scalar grammar, generators
# as copy[i,j], '*' both for scalar multiple and word concatenation.
# ---------------------------------------------------------------------------

class _PolyParser(DescentParser):
    """Recursive-descent parser producing an NCPoly over a roster."""

    error = PolyParseError

    def __init__(self, text, presentation):
        super().__init__(tokenize(text, PolyParseError), text)
        self.field = presentation.field
        self.positions = presentation.positions

    def divide(self, v, w):
        c = _as_scalar(w, self.field)
        if c is None:
            raise PolyParseError("division by a non-scalar")
        if not c:
            raise PolyParseError("division by zero")
        return v.scale(self.field.one / c)

    def raise_to(self, base, e):
        c = _as_scalar(base, self.field)
        if c is None:
            raise PolyParseError("'^' applies to scalars only")
        if e < 0 and not c:
            raise PolyParseError("division by zero")
        one = self.field.one
        return NCPoly.unit(one).scale(bounded_pow(c, e, one, PolyParseError))

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return NCPoly.unit(self.field.one).scale(self.field.from_int(val))
        if kind == "name":
            if val == "q" and self.peek() != "[":
                if self.field is not QQ_Q:
                    raise PolyParseError("symbolic q in an evaluated-mode polynomial")
                return NCPoly.unit(self.field.one).scale(Q)
            self.expect("[")
            row = self.expect("int")[1]
            self.expect(",")
            col = self.expect("int")[1]
            self.expect("]")
            g = self.positions.get(Generator(val, row, col))
            if g is None:
                raise PolyParseError(f"unknown generator {val}[{row},{col}]")
            return NCPoly.gen(g, self.field.one)
        if kind == "(":
            return self.parenthesized()
        raise PolyParseError(f"unexpected token {kind!r} in {self.text!r}")


def _as_scalar(p: NCPoly, field):
    if not p.terms:
        return field.zero
    if set(p.terms) == {EMPTY_WORD}:
        return p.terms[EMPTY_WORD]
    return None


def parse_poly(text: str, presentation: Presentation) -> NCPoly:
    return _PolyParser(text, presentation).parse()


def _term_str(word, c, presentation):
    """One term as (sign, body) with the sign split off for joining."""
    cs = str(c)
    neg = cs.startswith("-")
    cs_abs = str(-c) if neg else cs
    if not word:
        body = cs_abs if _scalar_is_simple(cs_abs) else f"({cs_abs})"
        return neg, body
    one = presentation.field.one
    ws = word_str(word, presentation.roster)
    if c == one:
        return False, ws
    if c == -one:
        return True, ws
    if not _scalar_is_simple(cs_abs):
        cs_abs = f"({cs_abs})"
    return neg, f"{cs_abs} * {ws}"


def _scalar_is_simple(s: str) -> bool:
    # no top-level '+'/'-'/space means it can stand unparenthesized
    return not any(ch in s for ch in " +")


def format_poly(p: NCPoly, presentation: Presentation) -> str:
    """Deterministic rendering: terms in descending monomial order."""
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=presentation.order.key, reverse=True):
        neg, body = _term_str(w, p.terms[w], presentation)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
