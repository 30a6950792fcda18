"""R-matrix representation and calculus.

An R-matrix of size N is a sparse matrix on the twofold tensor space,
indexed R^{ij}_{kl}: upper indices (i,j) are the output pair, lower
(k,l) the input pair, all in 1..N.  Flattened to an ordinary N^2 x N^2
matrix, the row index is (i-1)*N + (j-1) (row-major) and likewise for
columns.  R_21 is never stored; it is produced by embedding R on legs
(2,1), which realizes tau . R . tau.

Operators on higher tensor powers (leg embeddings, Yang-Baxter products)
are handled by TensorOperator, whose indices are full tuples of leg
values.  Its matmul is the one operator product of the package (the
presentation builders multiply operators with polynomial entries through
it too), and differences lists the nonzero entry differences of two
operators in sorted index order.  Everything is exact; entries are
RatFunc in symbolic mode or ModP after specialization at q = x in Z/MZ
(evaluate_mod).  Inverses come from linalg.dense_inverse, which reads
them off the reduced echelon form of [R | I] in the package's one
elimination engine, over the R-matrix's own field.
"""

from __future__ import annotations

import itertools
import json

from . import qscalar
from .linalg import SingularMatrixError, dense_inverse
from .qscalar import QQ_Q


# Largest dim accepted from a document or a builtin name: the dense view
# has N^4 entries and each preset has at least N^2 generators.
MAX_DIM = 16

# The convention above in one line, as the documents state it.
INDEX_CONVENTION = ("R^{ij}_{kl}; upper indices are outputs, "
                    "index pairs flattened row-major as (i-1)*N+(j-1)")


class RMatrixDocumentError(ValueError):
    """Malformed R-matrix document."""


def _check_dim(dim):
    if not 1 <= dim <= MAX_DIM:
        raise RMatrixDocumentError(f"dim must be between 1 and {MAX_DIM} (got {dim})")


class RMatrix:
    """Sparse R-matrix: dim N plus entries {(i,j,k,l): coefficient}."""

    __slots__ = ("dim", "entries", "field")

    def __init__(self, dim, entries, field=QQ_Q):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.field = field
        clean = {}
        for idx, c in entries.items():
            i, j, k, l = idx
            for x in idx:
                if not 1 <= x <= dim:
                    raise RMatrixDocumentError(f"index {idx} out of range for dim {dim}")
            if c:
                clean[(i, j, k, l)] = c
        self.entries = clean

    def entry(self, i, j, k, l):
        return self.entries.get((i, j, k, l), self.field.zero)

    def __eq__(self, other):
        return (isinstance(other, RMatrix) and self.dim == other.dim
                and self.entries == other.entries)

    def scale(self, c):
        return RMatrix(self.dim, {k: c * v for k, v in self.entries.items()},
                       self.field)

    def evaluate_mod(self, x) -> "RMatrix":
        """Specialization at q = x in x's ring Z/MZ; raises PoleError at poles."""
        vals = {k: v.evaluate_mod(x) for k, v in self.entries.items()}
        return RMatrix(self.dim, vals, field=x.ring)

    # -- dense views --------------------------------------------------------

    def _flat(self, i, j):
        return (i - 1) * self.dim + (j - 1)

    def as_dense(self):
        """Dense N^2 x N^2 matrix, rows (i,j) row-major."""
        n2 = self.dim * self.dim
        zero = self.field.zero
        m = [[zero] * n2 for _ in range(n2)]
        for (i, j, k, l), c in self.entries.items():
            m[self._flat(i, j)][self._flat(k, l)] = c
        return m

    @classmethod
    def from_dense(cls, dim, m, field=QQ_Q):
        entries = {}
        for i, j, k, l in itertools.product(range(1, dim + 1), repeat=4):
            c = m[(i - 1) * dim + (j - 1)][(k - 1) * dim + (l - 1)]
            if c:
                entries[(i, j, k, l)] = c
        return cls(dim, entries, field)

    def __repr__(self):
        return f"RMatrix(dim={self.dim}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# tensor-leg operators
# ---------------------------------------------------------------------------

class TensorOperator:
    """Sparse operator on the n-fold tensor power of an N-dimensional space.

    rows: {output index tuple: {input index tuple: coefficient}}.
    """

    __slots__ = ("dim", "arity", "rows")

    def __init__(self, dim, arity, rows):
        self.dim = dim
        self.arity = arity
        self.rows = rows

    def matmul(self, other: "TensorOperator") -> "TensorOperator":
        if self.dim != other.dim or self.arity != other.arity:
            raise ValueError("operators act on different tensor spaces")
        rows = {}
        for out, mids in self.rows.items():
            acc = {}
            for mid, c in mids.items():
                brow = other.rows.get(mid)
                if not brow:
                    continue
                for src, d in brow.items():
                    v = c * d
                    s = acc.get(src)
                    s = v if s is None else s + v
                    if s:
                        acc[src] = s
                    else:
                        acc.pop(src, None)
            if acc:
                rows[out] = acc
        return TensorOperator(self.dim, self.arity, rows)

    def differences(self, other: "TensorOperator"):
        """Yield (out, in, residue) for every position where the entries
        differ, in sorted index order.

        residue is the exact entry difference (an element of the
        coefficient ring), nonzero by construction.
        """
        keys = set()
        for out, row in self.rows.items():
            keys.update((out, src) for src in row)
        for out, row in other.rows.items():
            keys.update((out, src) for src in row)
        for out, src in sorted(keys):
            a = self.rows.get(out, {}).get(src)
            b = other.rows.get(out, {}).get(src)
            d = -b if a is None else a if b is None else a - b
            if d:
                yield out, src, d

    def first_difference(self, other: "TensorOperator"):
        """Smallest differing position as (out, in, residue), or None."""
        return next(self.differences(other), None)

    def __eq__(self, other):
        return self.first_difference(other) is None


def leg_embed(R: RMatrix, legs, arity) -> TensorOperator:
    """Embed R so that its first leg acts on tensor position legs[0] and its
    second on legs[1], identically elsewhere.  legs are 1-based, distinct."""
    a, b = legs
    if a == b or not (1 <= a <= arity) or not (1 <= b <= arity):
        raise ValueError(f"invalid legs {legs} for arity {arity}")
    N = R.dim
    others = [p for p in range(arity) if p not in (a - 1, b - 1)]
    rows = {}
    for (i, j, k, l), c in R.entries.items():
        for rest in itertools.product(range(1, N + 1), repeat=len(others)):
            out = [0] * arity
            src = [0] * arity
            out[a - 1], out[b - 1] = i, j
            src[a - 1], src[b - 1] = k, l
            for pos, v in zip(others, rest):
                out[pos] = v
                src[pos] = v
            rows.setdefault(tuple(out), {})[tuple(src)] = c
    return TensorOperator(N, arity, rows)


# ---------------------------------------------------------------------------
# Yang-Baxter and inverses
# ---------------------------------------------------------------------------

def ybe_check(R: RMatrix):
    """Exact check of R12 R13 R23 = R23 R13 R12 on the threefold space.

    Returns (True, None) or (False, witness) where witness is the first
    failing entry as ((out triple), (in triple), nonzero residue).
    """
    r12 = leg_embed(R, (1, 2), 3)
    r13 = leg_embed(R, (1, 3), 3)
    r23 = leg_embed(R, (2, 3), 3)
    lhs = r12.matmul(r13).matmul(r23)
    rhs = r23.matmul(r13).matmul(r12)
    diff = lhs.first_difference(rhs)
    return (diff is None), diff


def invert(R: RMatrix) -> RMatrix:
    """Exact inverse as an operator on the twofold space."""
    inv = dense_inverse(R.as_dense(), R.field)
    return RMatrix.from_dense(R.dim, inv, R.field)


def partial_transpose2(R: RMatrix) -> RMatrix:
    """Transpose in the second index pair: entry (i,j,k,l) -> (i,l,k,j)."""
    return RMatrix(R.dim, {(i, l, k, j): c for (i, j, k, l), c in R.entries.items()},
                   R.field)


def second_inverse(R: RMatrix):
    """The second inverse ((R^t2)^-1)^t2 when the partial transpose is
    invertible; None otherwise (absence is a value, not an error)."""
    pt = partial_transpose2(R)
    try:
        ptinv = invert(pt)
    except SingularMatrixError:
        return None
    return partial_transpose2(ptinv)


# ---------------------------------------------------------------------------
# document format
# ---------------------------------------------------------------------------

def load_rmatrix(text: str) -> RMatrix:
    """Load an R-matrix from its JSON document.

    The document has a field "dim" and a list "entries" of objects
    {i, j, k, l, coeff} with coeff a coefficient-expression string.
    Omitted entries are zero; duplicates are an error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RMatrixDocumentError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise RMatrixDocumentError("document must have fields 'dim' and 'entries'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise RMatrixDocumentError("'dim' must be an integer")
    _check_dim(dim)
    if not isinstance(doc["entries"], list):
        raise RMatrixDocumentError("'entries' must be a list")
    entries = {}
    for rec in doc["entries"]:
        try:
            idx = (rec["i"], rec["j"], rec["k"], rec["l"])
            coeff = rec["coeff"]
        except (KeyError, TypeError):
            raise RMatrixDocumentError(f"bad entry record: {rec!r}") from None
        if not isinstance(coeff, str):
            raise RMatrixDocumentError(f"coeff must be a string: {rec!r}")
        for x in idx:
            if not isinstance(x, int) or not 1 <= x <= dim:
                raise RMatrixDocumentError(f"index {idx} out of range for dim {dim}")
        if idx in entries:
            raise RMatrixDocumentError(f"duplicate entry at {idx}")
        entries[idx] = qscalar.parse_scalar(coeff)
    return RMatrix(dim, entries, QQ_Q)


def save_rmatrix(R: RMatrix) -> str:
    recs = []
    for (i, j, k, l) in sorted(R.entries):
        recs.append({"i": i, "j": j, "k": k, "l": l,
                     "coeff": str(R.entries[(i, j, k, l)])})
    return json.dumps({"dim": R.dim, "entries": recs}, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builtin matrices
# ---------------------------------------------------------------------------

def identity_rmatrix(N, field=QQ_Q) -> RMatrix:
    one = field.one
    return RMatrix(N, {(i, j, i, j): one
                       for i in range(1, N + 1) for j in range(1, N + 1)}, field)


def flip_rmatrix(N, field=QQ_Q) -> RMatrix:
    one = field.one
    return RMatrix(N, {(i, j, j, i): one
                       for i in range(1, N + 1) for j in range(1, N + 1)}, field)


def glq2_rmatrix() -> RMatrix:
    """The standard GL_q(2) R-matrix (N = 2)."""
    q = qscalar.Q
    one = qscalar.ONE
    return RMatrix(2, {
        (1, 1, 1, 1): q,
        (2, 2, 2, 2): q,
        (1, 2, 1, 2): one,
        (2, 1, 2, 1): one,
        (1, 2, 2, 1): q - qscalar.QINV,
    })


def builtin_rmatrix(name: str):
    """Builtin R-matrix for a preset name: glq2, identity:N, flip:N.

    Returns None when the name is not a builtin.
    """
    if name == "glq2":
        return glq2_rmatrix()
    for prefix, builder in (("identity:", identity_rmatrix), ("flip:", flip_rmatrix)):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                raise RMatrixDocumentError(f"bad builtin name {name!r}") from None
            _check_dim(n)
            return builder(n)
    return None
