"""Exact linear algebra over a coefficient field: sparse reduced echelon
forms and dense Gauss-Jordan elimination.

Both engines work over any exact field whose elements support + - * /,
inverse(), truth-testing and comparison with the integer 1: Q(q)
(RatFunc) in symbolic mode and GF(p) (ModP) in sampled mode.

The sparse engine keeps rows as dicts keyed by arbitrary hashable column
labels, ordered by a caller-supplied key function (the column with the
largest key is the pivot).  Each row may carry an auxiliary dict that
mirrors every row operation; span builders use it to track how echelon
rows combine the original generators.

The dense engine is one Gauss-Jordan elimination over the field; it
serves the R-matrix inverses and the partial-transpose ranks.  Every
RatFunc is a reduced canonical fraction after each operation, so plain
field elimination stays exact with no fraction-free bookkeeping.
"""

from __future__ import annotations

from .qscalar import QQ_Q


class SingularMatrixError(ValueError):
    """Matrix inversion requested for a singular matrix."""


# ---------------------------------------------------------------------------
# sparse reduced row echelon
# ---------------------------------------------------------------------------

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
    """Incrementally maintained reduced row echelon basis of a row span."""

    def __init__(self, key):
        self.key = key          # column label -> sort key; max key = pivot
        self.rows = {}          # pivot label -> (monic row dict, aux dict)

    @property
    def rank(self):
        return len(self.rows)

    def _lead(self, row):
        return max(row, key=self.key)

    def reduce(self, row, aux=None):
        """Fully reduce a row against the basis; returns (row, aux) residue."""
        row = dict(row)
        aux = dict(aux) if aux is not None else None
        while row:
            lead = self._lead(row)
            hit = self.rows.get(lead)
            if hit is None:
                # the lead survives; eliminate any lower pivot columns too
                todo = [k for k in row if k != lead and k in self.rows]
                if not todo:
                    break
                for k in sorted(todo, key=self.key, reverse=True):
                    c = row.get(k)
                    if not c:
                        continue
                    prow, paux = self.rows[k]
                    _axpy(row, prow, -c)
                    if aux is not None and paux is not None:
                        _axpy(aux, paux, -c)
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
        lead = self._lead(row)
        c = row[lead]
        if c != 1:
            inv = c.inverse()
            row = {k: v * inv for k, v in row.items()}
            if aux is not None:
                aux = {k: v * inv for k, v in aux.items()}
        # back-substitute into existing rows to keep the basis fully reduced
        for piv, (prow, paux) in self.rows.items():
            f = prow.get(lead)
            if f:
                _axpy(prow, row, -f)
                if paux is not None and aux is not None:
                    _axpy(paux, aux, -f)
        self.rows[lead] = (row, aux)
        return lead

    def canonical(self):
        """Rows as a list ordered by descending pivot key (a canonical form)."""
        return [self.rows[p][0] for p in sorted(self.rows, key=self.key, reverse=True)]

    def canonical_with_aux(self):
        return [self.rows[p] for p in sorted(self.rows, key=self.key, reverse=True)]


# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination
# ---------------------------------------------------------------------------

def _gauss_jordan(a, ncols, field):
    """Reduce the rows a (lists, changed in place) to reduced row echelon
    form, pivoting in the first ncols columns; returns the pivot count."""
    one = field.one
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = one / a[r][c]
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def dense_rank(matrix, field=QQ_Q) -> int:
    """Exact rank of a dense matrix over field."""
    if not matrix:
        return 0
    return _gauss_jordan([list(row) for row in matrix], len(matrix[0]), field)


def dense_inverse(matrix, field=QQ_Q):
    """Exact inverse of a square matrix over field: Gauss-Jordan on the
    matrix augmented with the identity.  Raises SingularMatrixError if
    the matrix is singular."""
    n = len(matrix)
    one, zero = field.one, field.zero
    a = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix is not square")
        a.append(list(row) + [one if j == i else zero for j in range(n)])
    if _gauss_jordan(a, n, field) < n:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in a]
