"""Independent checks that only the tests use: exact dense rank, equality
of degree-2 relation spans, the defining identities of the second
inverse of an R-matrix, the parser of the presentation documents that
`braidalg present` writes, the chain and square relations with every
block built from scratch at its own roster offsets, the chain cross
block in its rearranged form, a rule as an ideal element, the overlaps
that completion pairs, found by filtering a superset, and the test
R-matrices: one whose exchange blocks are singular, GL_q(N) built from
its defining entries, and the perturbed GL_q(2), also as a document."""

import itertools
import operator
import re

import pytest

from braidalg import presents
from braidalg import qscalar as qs
from braidalg.linalg import SparseEchelon
from braidalg.ncalg import Generator, NCAlgError, NCPoly, Presentation, parse_poly
from braidalg.rmat import (RMatrix, TensorOperator, glq2_rmatrix, invert, save_rmatrix,
                           second_inverse)


# an invertible R-matrix whose r21 and statistics exchange blocks are
# singular, as (i, j, k, l) -> coefficient
SINGULAR_EXCHANGE = {(1, 1, 2, 1): "1", (1, 1, 2, 2): "1", (1, 2, 1, 2): "2",
                     (1, 2, 2, 1): "1", (2, 1, 1, 1): "-2", (2, 2, 2, 1): "-2"}


def glq_rmatrix(N):
    """The Drinfeld-Jimbo GL_q(N) R-matrix: R^{ii}_{ii} = q, R^{ij}_{ij} = 1
    for i != j and R^{ij}_{ji} = q - q^-1 for i < j."""
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                entries[(i, i, i, i)] = qs.Q
            else:
                entries[(i, j, i, j)] = qs.ONE
                if i < j:
                    entries[(i, j, j, i)] = qs.Q - qs.QINV
    return RMatrix(N, entries)


def perturbed_rmatrix():
    """GL_q(2)'s R-matrix with R^{12}_{21} = 1 + q (pert2): it fails YBE,
    and its braided squares and chains are not confluent."""
    R = glq2_rmatrix()
    return RMatrix(2, dict(R.entries) | {(1, 2, 2, 1): qs.parse_scalar("1 + q")})


@pytest.fixture
def perturbed_doc(tmp_path):
    """The path of a document holding perturbed_rmatrix()."""
    path = tmp_path / "perturbed.json"
    path.write_text(save_rmatrix(perturbed_rmatrix()))
    return str(path)


def dense_rank(matrix) -> int:
    """Exact rank of a dense matrix."""
    ech = SparseEchelon(operator.neg)
    for row in matrix:
        ech.insert({j: a for j, a in enumerate(row) if a})
    return ech.rank


class RosterMismatchError(NCAlgError):
    """Comparison of presentations with different generator rosters."""


def relation_span_equal(P1: Presentation, P2: Presentation) -> bool:
    """Whether the degree-2 relation spans coincide (same roster required)."""
    if P1.roster != P2.roster:
        raise RosterMismatchError("presentations have different rosters")
    # stored relations are canonical reduced echelon bases of the spans
    return list(P1.relations) == list(P2.relations)


def second_inverse_identities_hold(R: RMatrix) -> bool:
    """Defining contractions of the second inverse with R (both orders)."""
    Rt = second_inverse(R)
    if Rt is None:
        return False
    N = R.dim
    one = R.field.one
    zero = R.field.zero
    for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
        want = one if (i == k and j == l) else zero
        s1 = zero
        s2 = zero
        for a, b in itertools.product(range(1, N + 1), repeat=2):
            s1 = s1 + Rt.entry(i, b, a, j) * R.entry(a, l, k, b)
            s2 = s2 + R.entry(i, b, a, j) * Rt.entry(a, l, k, b)
        if s1 != want or s2 != want:
            return False
    return True


_GEN_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.]*)\[(\d+),(\d+)\]$")


def parse_presentation_document(text: str):
    """Parse a presentation document; returns (metadata dict, Presentation)."""
    meta = {}
    roster = []
    relation_srcs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "generators":
            for tok in value.split():
                m = _GEN_RE.match(tok)
                if not m:
                    raise NCAlgError(f"bad generator token {tok!r}")
                roster.append(Generator(m.group(1), int(m.group(2)), int(m.group(3))))
        elif key == "relation":
            relation_srcs.append(value)
        else:
            meta[key] = value
    if "dim" not in meta:
        raise NCAlgError("presentation document lacks a dim field")
    P = Presentation(int(meta["dim"]), roster, [], name=meta.get("preset", ""))
    rels = [parse_poly(src, P) for src in relation_srcs]
    return meta, Presentation(int(meta["dim"]), roster, rels,
                              name=meta.get("preset", ""))


# ---------------------------------------------------------------------------
# relation blocks at roster offsets
# ---------------------------------------------------------------------------

def _generators_at(offset: int, leg: int, N: int, one) -> TensorOperator:
    """u1 (leg 1) or u2 (leg 2) for the copy of u whose entry u[a,b] is
    the roster position offset + (a-1)*N + (b-1)."""
    rows = {}
    for a, b, c in itertools.product(range(1, N + 1), repeat=3):
        out, src = ((a, c), (b, c)) if leg == 1 else ((c, a), (c, b))
        rows.setdefault(out, {})[src] = NCPoly.gen(offset + (a - 1) * N + (b - 1), one)
    return TensorOperator(N, 2, rows)


def self_block_at(R: RMatrix, offset: int):
    """R21 u1 R u2 - u2 R21 u1 R for the copy of u at offset."""
    one = R.field.one
    r, r21 = presents._scalars(R, (1, 2)), presents._scalars(R, (2, 1))
    u1, u2 = _generators_at(offset, 1, R.dim, one), _generators_at(offset, 2, R.dim, one)
    return presents._block([r21, u1, r, u2], [u2, r21, u1, r])


def cross_block_at(R: RMatrix, v_offset: int, u_offset: int, form: str):
    """The "r21" block R21 v1 R u2 - u2 R21 v1 R or the "statistics" block
    R^-1 v1 R u2 - u2 R^-1 v1 R for the copies v and u at these offsets."""
    one = R.field.one
    if form == "r21":
        left = presents._scalars(R, (2, 1))
    else:
        left = presents._scalars(invert(R), (1, 2))
    r = presents._scalars(R, (1, 2))
    v1 = _generators_at(v_offset, 1, R.dim, one)
    u2 = _generators_at(u_offset, 2, R.dim, one)
    return presents._block([left, v1, r, u2], [u2, left, v1, r])


def chain_relations_at_offsets(R: RMatrix, n: int):
    """The relations braided_chain(R, n) is given, every block built at its
    own offsets: each copy's self block, then the r21 block of each copy
    pair i > j."""
    size = R.dim * R.dim
    rels = [r for i in range(n) for r in self_block_at(R, i * size)]
    for i in range(n):
        for j in range(i):
            rels.extend(cross_block_at(R, i * size, j * size, "r21"))
    return rels


def square_relations_at_offsets(base: Presentation, R: RMatrix):
    """The relations braided_tensor_square(base, R) is given: the base's
    relations in the left factor and shifted into the right one, then one
    statistics block per (right copy, left copy) pair."""
    n = base.ngens
    rels = list(base.relations)
    rels.extend(NCPoly({tuple(g + n for g in w): c for w, c in r.terms.items()})
                for r in base.relations)
    offsets = range(0, n, base.dim * base.dim)
    for v in offsets:
        for u in offsets:
            rels.extend(cross_block_at(R, n + v, u, "statistics"))
    return rels


def rearranged_cross_block(R: RMatrix):
    """v1 R u2 - R21^-1 u2 R21 v1 R for the higher copy v = copy 1 and the
    lower copy u = copy 0: the r21 cross block solved for v1 R u2, with the
    same span as presents.cross_block(R, form="r21")."""
    one = R.field.one
    r, r21 = presents._scalars(R, (1, 2)), presents._scalars(R, (2, 1))
    r21inv = presents._scalars(invert(R), (2, 1))
    v1 = _generators_at(R.dim * R.dim, 1, R.dim, one)
    u2 = _generators_at(0, 2, R.dim, one)
    return presents._block([v1, r, u2], [r21inv, u2, r21, v1, r])


# ---------------------------------------------------------------------------
# rules and overlaps
# ---------------------------------------------------------------------------

def rule_element(rule, one) -> NCPoly:
    """rule.lhs - rule.rhs as a polynomial (one is the field unit)."""
    return NCPoly.term(rule.lhs, one) - rule.rhs


def overlap_pushes(rules, bound: int):
    """(word, left rule's lhs, right rule's lhs) of each overlap completion
    queues when rules arrive in this order, in queueing order.  Each rule
    is paired with itself and, by arrival index, with every earlier rule
    that ends in a letter of lhs[:-1] or starts with a letter of lhs[1:]
    (a superset of its overlap partners); each pair is then tested for
    every overlap length, and kept when its word is within the bound."""
    arrived, by_first, by_last, out = [], {}, {}, []

    def enqueue(r1, r2):
        n1, n2 = len(r1.lhs), len(r2.lhs)
        for ell in range(1, min(n1, n2)):
            if r1.lhs[n1 - ell:] == r2.lhs[:ell]:
                w = r1.lhs + r2.lhs[ell:]
                if len(w) <= bound:
                    out.append((w, r1.lhs, r2.lhs))

    for rule in rules:
        n, lhs = len(arrived), rule.lhs
        arrived.append(rule)
        partners = {n}
        for g in set(lhs[:-1]):
            partners.update(by_last.get(g, ()))
        for g in set(lhs[1:]):
            partners.update(by_first.get(g, ()))
        by_first.setdefault(lhs[0], []).append(n)
        by_last.setdefault(lhs[-1], []).append(n)
        for i in sorted(partners):
            enqueue(arrived[i], rule)
            if i != n:
                enqueue(rule, arrived[i])
    return out
