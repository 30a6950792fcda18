"""Degree-bounded ideal membership, Hilbert dimensions, and substitution.

Two independent engines decide membership in the two-sided ideal generated
by a presentation's quadratic relations:

  * method "rewrite": reduce against the degree-bounded completed rewrite
    system (TruncatedGB).  Exact in both directions, and the default.
  * method "span": assemble the degree-d sandwich span
    {m * r * m' : deg <= d} by exact sparse elimination and reduce against
    it.  Slower, but shares no reduction machinery with the rewrite path;
    it is the cross-checking oracle.

Positive answers come with a replayable certificate: an explicit list of
(left monomial, relation index, right monomial, coefficient) whose sum
reproduces the polynomial exactly.  The rewrite engine's certificates are
expanded here from reduction steps and the sources of the rules they use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseEchelon
from .ncalg import NCAlgError, NCPoly, Presentation
from .rewrite import TruncatedGB, truncated_gb


class MissingImageError(NCAlgError):
    """substitute_generators met a generator without an image."""


@dataclass(frozen=True)
class MembershipCertificate:
    """p = sum of coeff * left * relations[index] * right over the terms."""

    terms: tuple  # of (left word, relation index, right word, coefficient)

    def replay(self, relations) -> NCPoly:
        total = NCPoly.zero()
        for left, idx, right, c in self.terms:
            total = total + relations[idx].sandwich(left, right).scale(c)
        return total


def _add(acc: dict, key, v):
    """acc[key] += v, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = v if s is None else s + v
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _sorted_certificate(acc: dict) -> MembershipCertificate:
    """The certificate of {(idx, left, right): coeff}, its terms in the
    canonical order of certificates: by (idx, left, right)."""
    return MembershipCertificate(tuple((lw, i, rw, c) for (i, lw, rw), c in sorted(acc.items())))


def _certificate(gb: TruncatedGB, steps) -> MembershipCertificate:
    """The certificate of the reduction steps (left, rule, right, coeff).

    A use of a rule read off relation i is a term.  The uses of each
    adjoined rule are collected as {(left, right): coeff} and, latest rule
    first, replaced by its source, which names only earlier rules.
    """
    acc, uses = {}, {}

    def collect(terms, c=None, left=(), right=()):
        for lw, rule, rw, cc in terms:
            v = cc if c is None else c * cc
            if type(rule.source) is int:
                _add(acc, (rule.source, left + lw, rw + right), v)
            else:
                _add(uses.setdefault(rule, {}), (left + lw, rw + right), v)

    collect(steps)
    for rule in reversed(gb.added_rules):
        for (left, right), c in uses.pop(rule, {}).items():
            collect(rule.source, c, left, right)
    return _sorted_certificate(acc)


def reduce_mod_ideal(p: NCPoly, P: Presentation, bound: int, collect=True):
    """Canonical residue of p modulo the ideal, valid for deg(p) <= bound.

    Returns (residue, certificate, completion_warning); the certificate
    accounts for p - residue.
    """
    if p.degree() > bound:
        raise ValueError(f"degree {p.degree()} exceeds bound {bound}")
    gb = truncated_gb(P, bound)
    residue, steps = gb.reduce(p, collect=collect)
    cert = _certificate(gb, steps) if collect else None
    return residue, cert, gb.completion_warning


def ideal_membership(p: NCPoly, P: Presentation, bound: int, method="rewrite"):
    """Decide p in the span of {m * r * m' : deg <= bound}.

    Returns (True, certificate) or (False, None).
    """
    if method == "rewrite":
        residue, cert, _ = reduce_mod_ideal(p, P, bound)
        return (True, cert) if residue.is_zero() else (False, None)
    if method == "span":
        return _membership_by_span(p, P, bound)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# sandwich-span engine
# ---------------------------------------------------------------------------

def _span_echelon(P: Presentation, degree: int) -> SparseEchelon:
    """Semi-echelon basis of the degree-d component of the ideal, with sandwich
    tracking.  Built recursively: V_d = sum over generators g of
    g * V_{d-1} + V_{d-1} * g, seeded by V_2 = span(relations)."""
    cache = P._cache.setdefault("span", {})
    if degree in cache:
        return cache[degree]
    key = P.order.key
    ech = SparseEchelon(key)
    if degree >= 2:
        if degree == 2:
            for i, r in enumerate(P.relations):
                ech.insert(dict(r.terms), aux={((), i, ()): P.field.one})
        else:
            prev = _span_echelon(P, degree - 1)
            for row, aux in prev.rows.values():
                for g in range(P.ngens):
                    ech.insert({(g,) + w: c for w, c in row.items()},
                               aux={((g,) + lw, i, rw): c for (lw, i, rw), c in aux.items()})
                    ech.insert({w + (g,): c for w, c in row.items()},
                               aux={(lw, i, rw + (g,)): c for (lw, i, rw), c in aux.items()})
    cache[degree] = ech
    return ech


def _membership_by_span(p: NCPoly, P: Presentation, bound: int):
    if p.degree() > bound:
        raise ValueError(f"degree {p.degree()} exceeds bound {bound}")
    cert_acc = {}
    for d, part in p.homogeneous_parts().items():
        if not part:
            continue
        if d < 2:
            return (False, None)
        ech = _span_echelon(P, d)
        residue, aux = ech.reduce(dict(part.terms), aux={})
        if residue:
            return (False, None)
        for (lw, i, rw), c in aux.items():
            _add(cert_acc, (i, lw, rw), -c)
    return (True, _sorted_certificate(cert_acc))


def span_rank(P: Presentation, degree: int) -> int:
    """Exact rank of the degree-d sandwich span (oracle for hilbert_dims)."""
    if degree < 2:
        return 0
    return _span_echelon(P, degree).rank


# ---------------------------------------------------------------------------
# Hilbert dimensions and span comparison
# ---------------------------------------------------------------------------

def hilbert_dims(P: Presentation, bound: int, method="rewrite"):
    """Dimensions of the graded components 0..bound of the quotient algebra."""
    if method == "span":
        g = P.ngens
        return [g ** d - span_rank(P, d) for d in range(bound + 1)]
    if method != "rewrite":
        raise ValueError(f"unknown method {method!r}")
    return truncated_gb(P, bound).normal_word_counts(bound)


def substitute_generators(p: NCPoly, images: dict, target: Presentation) -> NCPoly:
    """Multiplicative extension of a generator-image map.

    images maps each generator position to an NCPoly over the target
    presentation.  The result is raw, not reduced modulo the target's
    relations (reduce_mod_ideal does that).
    """
    one = target.field.one
    out = NCPoly.zero()
    for w, c in p.terms.items():
        prod = NCPoly.unit(one)
        for g in w:
            img = images.get(g)
            if img is None:
                raise MissingImageError(f"no image for generator position {g}")
            prod = prod * img
        out = out + prod.scale(c)
    return out
