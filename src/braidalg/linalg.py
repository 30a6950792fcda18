"""Exact linear algebra over a coefficient field: one sparse elimination
engine.

The engine works over any exact field whose elements support + - * /,
inverse(), truth-testing and comparison with the integer 1: Q(q)
(RatFunc) in symbolic mode and Z/MZ (ModP) in sampled mode, where a pivot
that is not a unit raises qscalar.NonUnitError.

Rows are dicts keyed by arbitrary hashable column labels, ordered by a
caller-supplied key function (the column with the largest key is the
pivot).  Each row may carry an auxiliary dict that mirrors every row
operation; span builders use it to track how echelon rows combine the
original generators.

The basis is a semi-echelon form: monic rows with distinct pivots, never
changed once inserted, which is all that span membership and rank need.
The reduced row echelon form is unique, so it is computed once, when it
is read (canonical).  Dense matrices go through the same engine: the
reduced form of [A | I] is [I | A^-1].  Every RatFunc is a reduced
canonical fraction after each operation, so plain field elimination stays
exact with no fraction-free bookkeeping.
"""

from __future__ import annotations

import operator

from .qscalar import QQ_Q


class SingularMatrixError(ValueError):
    """Matrix inversion requested for a singular matrix."""


def _axpy(dst: dict, src: dict, c):
    """dst += c * src, dropping zeros."""
    for k, v in src.items():
        s = dst.get(k)
        s = c * v if s is None else s + c * v
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)


class SparseEchelon:
    """Incrementally built semi-echelon basis of a row span."""

    def __init__(self, key):
        self.key = key          # column label -> sort key; max key = pivot
        self.rows = {}          # pivot label -> (monic row dict, aux dict)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row, aux=None):
        """Cancel the leading entry while it is a pivot; returns the
        (row, aux) residue, which is zero iff the row lies in the span."""
        row = dict(row)
        aux = dict(aux) if aux is not None else None
        while row:
            lead = max(row, key=self.key)
            hit = self.rows.get(lead)
            if hit is None:
                break
            c = row[lead]
            prow, paux = hit
            _axpy(row, prow, -c)
            if aux is not None and paux is not None:
                _axpy(aux, paux, -c)
        return row, aux

    def insert(self, row, aux=None):
        """Insert a row (if independent); returns its pivot label or None."""
        row, aux = self.reduce(row, aux)
        if not row:
            return None
        lead = max(row, key=self.key)
        c = row[lead]
        if c != 1:
            inv = c.inverse()
            row = {k: v * inv for k, v in row.items()}
            if aux is not None:
                aux = {k: v * inv for k, v in aux.items()}
        self.rows[lead] = (row, aux)
        return lead

    def canonical(self):
        """The reduced basis as (row, aux) pairs by descending pivot key.

        Pivots are visited in ascending key order, and each row is cleared
        of the lower pivot columns by the rows already finished.  Those
        hold no pivot column but their own, so one pass is enough.
        """
        done = {}
        for p in sorted(self.rows, key=self.key):
            row, aux = self.rows[p]
            hits = [k for k in row if k in done]
            if hits:
                row = dict(row)
                aux = dict(aux) if aux is not None else None
                for k in hits:
                    c = row[k]
                    krow, kaux = done[k]
                    _axpy(row, krow, -c)
                    if aux is not None and kaux is not None:
                        _axpy(aux, kaux, -c)
            done[p] = (row, aux)
        return list(reversed(done.values()))


def dense_rank(matrix) -> int:
    """Exact rank of a dense matrix."""
    ech = SparseEchelon(operator.neg)
    for row in matrix:
        ech.insert({j: a for j, a in enumerate(row) if a})
    return ech.rank


def dense_inverse(matrix, field=QQ_Q):
    """Exact inverse of a square matrix over field: the canonical aux rows
    of [A | I], whose reduced form is [I | A^-1].  Raises
    SingularMatrixError if the matrix is singular."""
    n = len(matrix)
    ech = SparseEchelon(operator.neg)   # the first nonzero column is the pivot
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        ech.insert({j: a for j, a in enumerate(row) if a}, {i: field.one})
    if ech.rank < n:
        raise SingularMatrixError("matrix is singular")
    return [[aux.get(j, field.zero) for j in range(n)] for _, aux in ech.canonical()]
