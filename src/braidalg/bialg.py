"""Coalgebra data and degree-bounded braided-bialgebra verification.

Every check takes the base presentation P and, where it needs one, its
braided tensor square SQ, both plain Presentations.  The matrix coproduct
sends u[i,j] to sum_k L.u[i,k] * R.u[k,j] inside SQ (left factor below
the right factor in the monomial order), with counit u[i,j] -> delta_ij.
Square position s is base generator s % n of the left factor when s < n
and of the right factor otherwise, n being P.ngens.  verify_bialgebra
drives the whole claim check for a preset: Yang-Baxter and
biinvertibility status of R, orientation of the presentation, then

  * homomorphism: the coproduct image of every relation must lie in the
    tensor-square ideal at the degree bound (with a replayable certificate,
    or a nonzero residue as counterexample witness),
  * counit laws on generators and relations,
  * coassociativity as a formal identity on generators.

The overall verdict aggregates the Yang-Baxter precondition: a failing YBE
fails the report (with the exact nonzero entry residue as witness), since
the braid statistics are only a braiding when YBE holds.  An absent second
inverse is flagged as a warning but does not by itself fail the report;
the axioms above can hold without it.

Exact mode works over Q(q) end to end.  Probabilistic mode draws k
seeded rational values q0 = n/d of q, point i taken into GF(p_i) as
n * d^-1 and avoiding 0, +-1 and poles, and runs the same checks on P
and SQ specialized at once at every point, with the coproduct of the
specialized P: over Z/MZ (M = p_1...p_k), without certificates, since
certificates are collected exactly over Q(q).  A failing value
prints mod the first p_i where it is nonzero.  A point where a leading
coefficient of completion vanishes (NonUnitError) is redrawn.  The mode
is non-certifying; the sampled rational points are recorded in the report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _enc

from . import presents
from .ideals import reduce_mod_ideal, substitute_generators
from .linalg import SingularMatrixError
from .ncalg import NCPoly, OrientationError, Presentation, format_poly, word_str
from .qscalar import ModRing, NonUnitError, PoleError, RatFunc
from .rmat import INDEX_CONVENTION, RMatrix, invert, second_inverse, ybe_check

DEFAULT_SEED = 7261
# sample point i works mod PRIMES[i]: 2^61 - 1 and the next primes below it
PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45)


class CoproductError(ValueError):
    """Ill-formed coproduct specification."""


class SamplingError(RuntimeError):
    """Too few good sample points among the draws."""


@dataclass
class CoproductSpec:
    """Generator images in a braided tensor square, plus the counit."""

    images: dict     # base position -> NCPoly over the square
    counit: dict     # base position -> coefficient


def matrix_coproduct(P: Presentation) -> CoproductSpec:
    """The matrix coproduct u[i,j] -> sum_k L.u[i,k] * R.u[k,j] into the
    braided tensor square of P, counit delta."""
    one = P.field.one
    zero = P.field.zero
    n = P.ngens
    images = {}
    counit = {}
    for s, g in enumerate(P.roster):
        terms = {}
        for k in range(1, P.dim + 1):
            terms[(P.gen(g.copy, g.row, k), n + P.gen(g.copy, k, g.col))] = one
        images[s] = NCPoly(terms)
        counit[s] = one if g.row == g.col else zero
    return CoproductSpec(images, counit)


# ---------------------------------------------------------------------------
# individual axiom checks
# ---------------------------------------------------------------------------

@dataclass
class RelationVerdict:
    index: int
    relation: str               # set by verify_bialgebra from the relation
    passed: bool
    certificate: tuple = None   # ((left, idx, right, coeff) ...) when passed
    residue: str = None         # nonzero residue rendering when failed


def _reporting_map(values, field):
    """The map failing values print through: over Z/MZ, to the least absolute
    residue mod the first p_i where one is nonzero, kept in Z/MZ; else identity."""
    p = next((p for p in getattr(field, "primes", ()) if any(c.v % p for c in values)), None)
    return (lambda c: field.from_int(min(c.v % p, c.v % p - p, key=abs))) if p else (lambda c: c)


def verify_homomorphism(P: Presentation, spec: CoproductSpec,
                        SQ: Presentation, bound: int):
    """Check that every relation maps into the ideal of the square SQ,
    with certificates exactly when SQ is over Q(q).

    Returns (verdicts, completion_warning), relation texts left None.
    """
    if bound < 4:
        raise ValueError("degree bound must be at least 4")
    verdicts = []
    warning = False
    for i, r in enumerate(P.relations):
        image = substitute_generators(r, spec.images, SQ)
        residue, cert, warned = reduce_mod_ideal(image, SQ, bound)
        warning = warning or warned
        if residue.is_zero():
            verdicts.append(RelationVerdict(
                i, None, True, certificate=cert.terms if cert is not None else None))
        else:
            shown = residue.map_coefficients(_reporting_map(residue.terms.values(), SQ.field))
            verdicts.append(RelationVerdict(i, None, False, residue=format_poly(shown, SQ)))
    return verdicts, warning


def _apply_counit_side(image: NCPoly, spec: CoproductSpec, n: int, side: str) -> NCPoly:
    """(eps (x) id) for side "left", (id (x) eps) for side "right", n being
    the base's generator count."""
    out = NCPoly.zero()
    for w, c in image.terms.items():
        coeff = c
        word = []
        for s in w:
            if (s < n) == (side == "left"):
                coeff = coeff * spec.counit[s % n]
            else:
                word.append(s % n)
        if coeff:
            out = out + NCPoly.term(tuple(word), coeff)
    return out


def verify_counit(P: Presentation, spec: CoproductSpec):
    """(eps (x) id) Delta = id = (id (x) eps) Delta, and eps kills relations.

    Returns (passed, detail) with detail naming the first failure.
    """
    field = P.field
    for g in range(P.ngens):
        gname = str(P.roster[g])
        gen = NCPoly.gen(g, field.one)
        for side, law in (("left", "(eps (x) id)"), ("right", "(id (x) eps)")):
            lhs = _apply_counit_side(spec.images[g], spec, P.ngens, side)
            if lhs != gen:
                shown = lhs.map_coefficients(_reporting_map((lhs - gen).terms.values(), field))
                return False, f"{law} Delta {gname} = {format_poly(shown, P)} != {gname}"
    for i, r in enumerate(P.relations):
        total = field.zero
        for w, c in r.terms.items():
            v = c
            for g in w:
                v = v * spec.counit[g]
            total = total + v
        if total:
            return False, f"eps(relation {i}) = {_reporting_map([total], field)(total)} != 0"
    return True, None


def verify_coassoc(P: Presentation, spec: CoproductSpec):
    """(Delta (x) id) Delta = (id (x) Delta) Delta as formal sums.

    Images must be sums of (left generator)*(right generator) words; the two
    sides are expanded into the free algebra on three copies of the base,
    leg t holding base generator i as t*n + i, and compared symbol by
    symbol (no relations are involved).
    """
    n = P.ngens

    def pair_terms(g):
        image = spec.images[g]
        pairs = []
        for w, c in image.terms.items():
            if len(w) != 2 or not (w[0] < n <= w[1] < 2 * n):
                raise CoproductError(
                    f"image of {P.roster[g]} is not a sum of left*right words")
            pairs.append((w[0], w[1] - n, c))
        return pairs

    for g in range(n):
        lhs = {}
        rhs = {}
        for a, b, c in pair_terms(g):
            for a1, a2, c2 in pair_terms(a):     # Delta applied to the left leg
                w = (a1, n + a2, 2 * n + b)
                lhs[w] = lhs.get(w, P.field.zero) + c * c2
            for b1, b2, c2 in pair_terms(b):     # Delta applied to the right leg
                w = (a, n + b1, 2 * n + b2)
                rhs[w] = rhs.get(w, P.field.zero) + c * c2
        lhs = {w: c for w, c in lhs.items() if c}
        rhs = {w: c for w, c in rhs.items() if c}
        if lhs != rhs:
            return False, f"coassociativity fails on {P.roster[g]}"
    return True, None


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

_VERDICT = '{\n      "index": %d,\n      "relation": %s,\n      "verdict": "%s"%s%s\n    }'
_TERM = ('{\n          "left": %s,\n          "relation": %d,\n          "right": %s,\n'
         '          "coeff": %s\n        }')


class _Memo(dict):
    """key -> fn(key), computed on the first lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _array(items, pad):
    """A JSON array of encoded items, each on its own line indented by pad."""
    nl = "\n" + " " * pad
    body = ("," + nl).join(items)
    return "[" + nl + body + nl[:-2] + "]" if body else "[]"


@dataclass
class VerificationReport:
    """Machine-readable outcome of a degree-bounded bialgebra check."""

    preset: str
    rmatrix: str
    copies: int
    degree_bound: int
    mode: str
    points: list = dc_field(default_factory=list)
    ybe: bool = None
    ybe_witness: str = None
    invertible: bool = None
    second_inverse: bool = None
    orientation: str = None            # "ok" or the failure message
    warnings: list = dc_field(default_factory=list)
    relation_verdicts: list = dc_field(default_factory=list)
    counit: bool = None
    counit_detail: str = None
    coassoc: bool = None
    coassoc_detail: str = None
    completion_warning: bool = False
    square_relations: list = dc_field(default_factory=list)
    failure: str = None
    passed: bool = False
    square_roster: tuple = ()          # prints certificate words; not serialized

    def to_document(self):
        """The report as JSON, yielded in chunks: the head up to the relations
        array, one chunk per relation verdict, then the tail.  Joined, the
        chunks are byte for byte json.dumps(document, indent=2) + "\\n": 2-space
        indent, keys in field order, non-ASCII escaped as \\uXXXX.  json.dumps
        writes the fixed fields; templates write only the verdicts and their
        certificate terms."""
        doc = {"report": "verify", "index_convention": INDEX_CONVENTION}
        for f in fields(self):
            if f.name == "relation_verdicts":
                doc["relations"] = []
            elif f.name != "square_roster":
                doc[f.name] = getattr(self, f.name)
        # json.dumps escapes a newline inside a string: only the key line matches
        head, tail = json.dumps(doc, indent=2).split('\n  "relations": [],\n')
        yield head + '\n  "relations": ['
        # each distinct word and coefficient is printed and escaped once
        words = _Memo(lambda w: _enc(word_str(w, self.square_roster)))
        coeffs = _Memo(lambda c: _enc(str(c)))
        sep = "\n    "
        for v in self.relation_verdicts:
            yield sep + _VERDICT % (
                v.index, _enc(v.relation), "pass" if v.passed else "fail",
                "" if v.certificate is None else ',\n      "certificate": ' + _array(
                    [_TERM % (words[lw], idx, words[rw], coeffs[c])
                     for lw, idx, rw, c in v.certificate], 8),
                "" if v.residue is None else ',\n      "residue": ' + _enc(v.residue))
            sep = ",\n    "
        yield ("\n  " if self.relation_verdicts else "") + "],\n" + tail + "\n"


def _denominators(P: Presentation, SQ: Presentation):
    """The distinct denominators of the coefficients of the forms of P and
    SQ, all that sampled mode specializes (the coproduct's are 1 and 0)."""
    coeffs = {c for form in P.forms + SQ.forms for r in form for c in r.terms.values()}
    return {RatFunc(0, c.den) for c in coeffs}


def sample_points(R: RMatrix, seed: int, denominators=(), exclude=()):
    """Deterministic sample values q0 = n/d of q, one per prime.

    Point i is used through its image x = n * d^-1 mod PRIMES[i].  A drawn
    q0 is skipped when it is in exclude, when x does not exist or is 0 or
    +-1, when x is a pole of R or of R^-1, or when one of the given
    denominators vanishes at x.  Raises SamplingError after 200 draws.
    """
    rng = random.Random(seed)
    fields = [ModRing((p,)) for p in PRIMES]
    points = []
    attempts = 0
    while len(points) < len(fields):
        attempts += 1
        if attempts > 200:
            raise SamplingError("could not sample enough good evaluation points")
        q0 = Fraction(rng.randint(2, 19), rng.randint(1, 7))
        if rng.random() < 0.5:
            q0 = -q0
        if q0 in points or q0 in exclude:
            continue
        try:
            x = fields[len(points)].image(q0)
            if x in (0, 1, -1):
                continue
            if not all(d.evaluate_mod(x) for d in denominators):
                continue
            invert(R.evaluate_mod(x))
        except (PoleError, SingularMatrixError):
            continue
        points.append(q0)
    return points


def verify_bialgebra(R: RMatrix, preset: str = "bm", n: int = 1, bound: int = 4,
                     mode: str = "exact", seed: int = DEFAULT_SEED,
                     rmatrix_label: str = "") -> VerificationReport:
    """Run the full braided-bialgebra claim check for a preset."""
    if preset not in ("bm", "chain"):
        raise ValueError(f"preset {preset!r} is not verifiable (use bm or chain)")
    if mode not in ("exact", "probabilistic"):
        raise ValueError(f"unknown mode {mode!r}")
    report = VerificationReport(preset=preset, rmatrix=rmatrix_label,
                                copies=n, degree_bound=bound, mode=mode)
    ok, wit = ybe_check(R)
    report.ybe = ok
    if not ok:
        out, src, residue = wit
        report.ybe_witness = f"entry {out} <- {src}: residue {residue}"
        report.warnings.append("R does not satisfy the Yang-Baxter equation")
    try:
        invert(R)
        report.invertible = True
    except SingularMatrixError:
        report.invertible = False
        report.failure = "R is singular; presentations are undefined"
        return report
    report.second_inverse = second_inverse(R) is not None
    if not report.second_inverse:
        report.warnings.append("second inverse absent (R is not biinvertible)")

    sampled = mode == "probabilistic"
    try:
        P = presents.build_preset(preset, R, n)
        SQ = presents.braided_tensor_square(P, R)
    except OrientationError as e:
        report.orientation = str(e)
        report.failure = f"orientation failure: {e}"
    except SingularMatrixError as e:
        report.failure = f"singular matrix during build: {e}"
    if report.failure:
        if sampled:  # without a square there are no coefficients to avoid
            report.points = [str(q0) for q0 in sample_points(R, seed)]
        return report

    if sampled:
        # one pass at every point; a point where completion degenerates is
        # dropped and the pass reruns with the next good draw in its place
        denominators, dropped = _denominators(P, SQ), set()
        ring = ModRing(PRIMES)
        while True:
            points = sample_points(R, seed, denominators, dropped)
            x = ring.crt([f.image(q0) for f, q0 in zip(ring.fields, points)])
            try:
                if SQ is None:  # dropped at the previous point
                    SQ = presents.braided_tensor_square(P, R)
                P_x, SQ_x = P.evaluate_mod(x), SQ.evaluate_mod(x)
                # only a redrawn point reads the symbolic square again
                SQ = None
                spec = matrix_coproduct(P_x)
                verdicts, warning = verify_homomorphism(P_x, spec, SQ_x, bound)
                break
            except NonUnitError as e:
                dropped.update(q0 for q0, p in zip(points, ring.primes) if p in e.primes)
        report.points = [str(q0) for q0 in points]
    else:
        P_x, spec = P, matrix_coproduct(P)
        verdicts, warning = verify_homomorphism(P, spec, SQ, bound)
        report.square_roster = SQ.roster
        report.square_relations = [format_poly(r, SQ) for r in SQ.relations]
    # over P_x, the field the relations were checked over; neither check
    # divides, so neither can raise NonUnitError
    report.counit, report.counit_detail = verify_counit(P_x, spec)
    report.coassoc, report.coassoc_detail = verify_coassoc(P_x, spec)

    for v, r in zip(verdicts, P.relations):
        v.relation = format_poly(r, P)
    report.orientation = "ok"
    report.relation_verdicts = verdicts
    report.completion_warning = warning
    if warning:
        report.warnings.append(
            "completion adjoined extra rules (quadratic system not confluent)")
    # the Yang-Baxter precondition is part of the verified claim; absence of
    # the second inverse is only flagged (the axioms can hold without it)
    report.passed = (report.ybe and all(v.passed for v in verdicts)
                     and report.counit and report.coassoc)
    return report
