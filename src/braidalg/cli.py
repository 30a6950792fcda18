"""Command-line front end.

Subcommands:

  ybe <R>                          Yang-Baxter verdict (exit 0 pass / 1 fail)
  biinv <R>                        inverse and second-inverse status
  present <preset> <R> [-n N]      emit a presentation document
  nf <preset> <R> <poly> [-n N]    normal form of a polynomial
  hilbert <preset> <R> -D d [-n N] graded dimension vector
  verify <preset> <R> -D d [--mode exact|probabilistic] [--seed S] [-n N]
  square-iso <R> -D d              graded-dimension comparison of the two
                                   double constructions

<R> is a builtin name (glq2, identity:N, flip:N) or a path to an R-matrix
document.  Output is deterministic: identical invocations produce
byte-identical documents (timings go to stderr).  Exit codes: 0 pass,
1 computational failure or failed verdict, 2 usage error; a degree bound
above MAX_DEGREE, or a roster above MAX_GENERATORS, is a usage error.  A
document is emitted only when the subcommand returns; -o replaces its
target atomically, so a failed run leaves it untouched.  If stdout is
closed before the whole document is written, the run ends with an error
line and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

from . import bialg, ideals, presents, rmat
from .linalg import SingularMatrixError
from .ncalg import (NCAlgError, OrientationError, Presentation, format_poly, parse_poly)
from .qscalar import QScalarError
from .rewrite import CompletionBudgetError, truncated_gb
from .rmat import RMatrixDocumentError

# The largest degree bound (-D) and nf polynomial degree accepted; far
# above any practical bound, far below what would run without end.
MAX_DEGREE = 64

# The most generators a command may build: n * N^2 for a preset, twice
# that for the braided tensor square that verify and square-iso build.
MAX_GENERATORS = 256

CONVENTION_LINE = "# index convention: " + rmat.INDEX_CONVENTION


class UsageError(ValueError):
    """Bad input that should exit with status 2."""


def resolve_rmatrix(source: str):
    """Builtin name or document path -> RMatrix."""
    try:
        builtin = rmat.builtin_rmatrix(source)
    except RMatrixDocumentError as e:
        raise UsageError(str(e)) from None
    if builtin is not None:
        return builtin
    path = Path(source)
    if not path.is_file():
        raise UsageError(f"no builtin R-matrix or file named {source!r}")
    try:
        return rmat.load_rmatrix(path.read_text())
    except (RMatrixDocumentError, QScalarError) as e:
        raise UsageError(f"bad R-matrix document {source!r}: {e}") from None


def _require_roster_in_bound(copies: int, R):
    ngens = copies * R.dim ** 2
    if ngens > MAX_GENERATORS:
        raise UsageError(f"this command would build {ngens} generators "
                         f"(at most {MAX_GENERATORS})")


def _build(preset: str, R, n: int) -> Presentation:
    if preset not in presents.PRESETS:
        raise UsageError(f"unknown preset {preset!r} (use one of {', '.join(presents.PRESETS)})")
    if preset != "chain" and n != 1:
        raise UsageError("-n applies to the chain preset only")
    _require_roster_in_bound(2 if preset == "square" else n, R)
    return presents.build_preset(preset, R, n)


# ---------------------------------------------------------------------------
# presentation documents
# ---------------------------------------------------------------------------

def format_presentation_document(P: Presentation, preset: str, rlabel: str,
                                 copies: int) -> str:
    lines = [
        "# braidalg presentation document",
        CONVENTION_LINE,
        f"preset: {preset}",
        f"rmatrix: {rlabel}",
        f"dim: {P.dim}",
        f"copies: {copies}",
        "generators: " + " ".join(str(g) for g in P.roster),
    ]
    lines.extend("relation: " + format_poly(r, P) for r in P.relations)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ybe(args, out):
    R = resolve_rmatrix(args.rmatrix)
    ok, wit = rmat.ybe_check(R)
    if ok:
        out.write("YBE: PASS\n")
        return 0
    o, s, residue = wit
    out.write("YBE: FAIL\n")
    out.write(f"witness: entry {o} <- {s}: residue {residue}\n")
    return 1


def cmd_biinv(args, out):
    R = resolve_rmatrix(args.rmatrix)
    try:
        rmat.invert(R)
        invertible = True
    except SingularMatrixError:
        invertible = False
    second = rmat.second_inverse(R) is not None if invertible else False
    out.write(f"invertible: {'yes' if invertible else 'no'}\n")
    out.write(f"second_inverse: {'present' if second else 'absent'}\n")
    return 0 if (invertible and second) else 1


def cmd_present(args, out):
    R = resolve_rmatrix(args.rmatrix)
    P = _build(args.preset, R, args.n)
    out.write(format_presentation_document(P, args.preset, args.rmatrix, args.n))
    return 0


def cmd_nf(args, out):
    R = resolve_rmatrix(args.rmatrix)
    P = _build(args.preset, R, args.n)
    try:
        p = parse_poly(args.poly, P)
    except NCAlgError as e:
        raise UsageError(f"bad polynomial: {e}") from None
    degree = p.degree()
    if degree > MAX_DEGREE:
        raise UsageError(f"polynomial degree {degree} exceeds {MAX_DEGREE}")
    gb = truncated_gb(P, max(2, degree))
    if gb.added_rules:
        print(f"note: completion adjoined {len(gb.added_rules)} rules "
              f"(quadratic system not confluent)", file=sys.stderr)
    residue, _ = gb.reduce(p)
    out.write(format_poly(residue, P) + "\n")
    return 0


def _require_degree_in_range(args):
    if not 0 <= args.degree <= MAX_DEGREE:
        raise UsageError(f"degree bound must be nonnegative and at most "
                         f"{MAX_DEGREE} (got {args.degree})")


def cmd_hilbert(args, out):
    _require_degree_in_range(args)
    R = resolve_rmatrix(args.rmatrix)
    P = _build(args.preset, R, args.n)
    dims = ideals.hilbert_dims(P, args.degree)
    out.write(CONVENTION_LINE + "\n")
    out.write(f"preset: {args.preset}\n")
    out.write(f"rmatrix: {args.rmatrix}\n")
    out.write(f"degree_bound: {args.degree}\n")
    out.write(f"dims: {dims}\n")
    return 0


def cmd_verify(args, out):
    R = resolve_rmatrix(args.rmatrix)
    if args.preset not in ("bm", "chain"):
        raise UsageError("verify supports the bm and chain presets")
    if args.preset != "chain" and args.n != 1:
        raise UsageError("-n applies to the chain preset only")
    _require_degree_in_range(args)
    if args.degree < 4:
        raise UsageError("verify needs a degree bound of at least 4 "
                         "(the coproduct of a quadratic relation is quartic)")
    _require_roster_in_bound(2 * args.n, R)
    t0 = time.perf_counter()
    report = bialg.verify_bialgebra(
        R, preset=args.preset, n=args.n, bound=args.degree, mode=args.mode,
        seed=args.seed, rmatrix_label=args.rmatrix)
    wall_time = time.perf_counter() - t0
    out.writelines(report.to_document())
    print(f"wall time: {wall_time:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_square_iso(args, out):
    _require_degree_in_range(args)
    R = resolve_rmatrix(args.rmatrix)
    _require_roster_in_bound(2, R)
    rep = presents.square_iso_witness(R, args.degree)
    out.write(CONVENTION_LINE + "\n")
    out.write("report: square-iso\n")
    out.write(f"rmatrix: {args.rmatrix}\n")
    out.write(f"degree_bound: {rep.bound}\n")
    out.write(f"square_dims: {rep.square_dims}\n")
    out.write(f"chain_dims: {rep.chain_dims}\n")
    out.write(f"equal: {'yes' if rep.equal else 'no'}\n")
    return 0 if rep.equal else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="braidalg",
        description="exact workbench for R-matrix braided-group presentations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_rmatrix(p):
        p.add_argument("rmatrix", help="builtin name (glq2, identity:N, flip:N) or document path")
        p.add_argument("-o", "--output", default=None,
                       help="write the emitted document to a file instead of stdout")

    def add_preset(p):
        p.add_argument("preset", help="one of: frt, bm, square, chain")
        p.add_argument("-n", type=int, default=1, help="number of chain copies")

    p = sub.add_parser("ybe", help="check the Yang-Baxter equation")
    add_rmatrix(p)
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("biinv", help="inverse and second-inverse status")
    add_rmatrix(p)
    p.set_defaults(func=cmd_biinv)

    p = sub.add_parser("present", help="emit a presentation document")
    add_preset(p)
    add_rmatrix(p)
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("nf", help="normal form of a polynomial")
    add_preset(p)
    add_rmatrix(p)
    p.add_argument("poly", help="polynomial in the textual syntax")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("hilbert", help="graded dimension vector")
    add_preset(p)
    add_rmatrix(p)
    p.add_argument("-D", dest="degree", type=int, required=True,
                   help="degree bound")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("verify", help="degree-bounded bialgebra verification")
    add_preset(p)
    add_rmatrix(p)
    p.add_argument("-D", dest="degree", type=int, default=4, help="degree bound (>= 4)")
    p.add_argument("--mode", choices=("exact", "probabilistic"), default="exact")
    p.add_argument("--seed", type=int, default=bialg.DEFAULT_SEED,
                   help="seed for probabilistic evaluation points")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("square-iso", help="compare the two double constructions")
    add_rmatrix(p)
    p.add_argument("-D", dest="degree", type=int, required=True,
                   help="degree bound")
    p.set_defaults(func=cmd_square_iso)

    return ap


class _Document(list):
    """An emitted document, held as its parts until the subcommand returns.
    Each part is an iterable of str, consumed only when the document is
    written out, so a lazy part is never held whole in memory."""

    def write(self, s):
        self.append((s,))

    writelines = list.append


def _check_output_target(path: str):
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"no directory {parent!r} for output {path!r}")
    if os.path.isdir(path):
        raise UsageError(f"output {path!r} is a directory")


def _write_output(path: str, doc: _Document):
    """Write doc to a new file beside path, then rename it over path: the
    target either keeps its old contents or holds the whole document."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            for part in doc:
                fh.writelines(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    output = getattr(args, "output", None)
    doc = _Document()
    try:
        if getattr(args, "n", 1) < 1:
            raise UsageError("-n must be at least 1")
        if output:
            _check_output_target(output)
        rc = args.func(args, doc)
        if output:
            try:
                _write_output(output, doc)
            except OSError as e:
                raise UsageError(f"cannot write output {output!r}: {e}") from None
        else:
            try:
                for part in doc:
                    sys.stdout.writelines(part)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader is gone: send what is still buffered to devnull,
                # so that the interpreter's last flush cannot fail again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                print("error: stdout was closed before the document was written",
                      file=sys.stderr)
                return 1
        return rc
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (OrientationError, SingularMatrixError, QScalarError,
            CompletionBudgetError, bialg.SamplingError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except NCAlgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
