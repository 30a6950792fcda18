"""Output checks for benchmark jobs.

Every job's exit code is checked, and its stdout against what the program
printed at the commit that recorded ``expected.json``:

  verify        the report summary (passed, completion_warning, ybe, counit,
                coassoc, warnings, ...), the per-relation verdict list, the
                relation count and a digest of the relation texts; a
                probabilistic report must give the verdicts of the exact
                report of the same job.  Exact certificates are replayed
                against the report's own ``square_relations`` (whose digest
                is also checked), so certificate terms may change as long as
                they stay correct.  The replay reads the report text with
                arithmetic of its own and imports nothing from braidalg.
  hilbert,      the dimension vectors.
  square-iso
  biinv, ybe,   stdout byte for byte (length and SHA-256).
  present

Re-record after an intended output change with ``python3 check.py --record``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"

_SUMMARY_SKIP = ("relations", "square_relations", "points", "mode", "rmatrix")


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------
#
# The replay reads the report text with parsing and arithmetic of its own,
# so that it depends neither on braidalg's internal representation of words
# and scalars nor on its arithmetic.  A word is a tuple of generator names
# (``"L.u1[2,1]"``); a coefficient, an expression in q, is evaluated modulo
# the prime P at each of the fixed points Q_POINTS.  Two rational functions
# of small degree that agree at every point are taken as equal; a wrong
# coefficient agrees with the right one at a fixed point only by accident.

P = 2 ** 61 - 1
Q_POINTS = (3, 1_000_003, 2 ** 40 + 15)

_TOKEN = re.compile(r"\d+|q|[-+*/^()]")
_GENERATOR = re.compile(r"(\w+)\[(\d+),(\d+)\]")
_WORD_LETTER = re.compile(r"[\w.]+\[\d+,\d+\]")


def evaluate(text: str, q: int) -> int:
    """The value mod P of a coefficient expression (integers, q, + - * / ^
    and parentheses, as braidalg prints Q(q) scalars) at q."""
    toks = _TOKEN.findall(text)
    if "".join(toks) != text.replace(" ", ""):
        raise ValueError(f"unreadable coefficient {text!r}")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"unreadable coefficient {text!r}")
        pos += 1
        return tok

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()
            v = v + term() if op == "+" else v - term()
        return v % P

    def term():
        v = factor()
        while peek() in ("*", "/"):
            if take() == "*":
                v = v * factor() % P
            else:
                d = factor()
                if d == 0:
                    raise ValueError(f"zero denominator in {text!r}")
                v = v * pow(d, P - 2, P) % P
        return v

    def factor():
        if peek() == "-":
            take()
            return -factor() % P
        v = atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            v = pow(v, sign * int(take()), P)
        return v

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            take(")")
            return v
        if tok == "q":
            return q
        if tok.isdigit():
            return int(tok)
        raise ValueError(f"unreadable coefficient {text!r}")

    v = expr()
    if pos != len(toks):
        raise ValueError(f"unreadable coefficient {text!r}")
    return v


def parse_word(text: str) -> tuple:
    if text == "1":
        return ()
    word = tuple(text.split("*"))
    if not all(_WORD_LETTER.fullmatch(g) for g in word):
        raise ValueError(f"unreadable word {text!r}")
    return word


def parse_terms(text: str):
    """[(sign, coefficient text, word)] of a polynomial as braidalg prints
    it: terms joined by " + " / " - " outside parentheses, each a word, a
    scalar, or "coefficient * word"."""
    if text == "0":
        return []
    bodies, depth, sign, start, i = [], 0, 1, 0, 0
    if text.startswith("-"):
        sign, start, i = -1, 1, 1
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            bodies.append((sign, text[start:i]))
            sign = -1 if text[i + 1] == "-" else 1
            start = i = i + 3
            continue
        i += 1
    bodies.append((sign, text[start:]))
    terms = []
    for sign, body in bodies:
        coeff, _, word = body.rpartition(" * ")
        if not coeff:
            coeff, word = ("1", body) if "[" in body else (body, "1")
        terms.append((sign, coeff, parse_word(word)))
    return terms


def coproduct(word: tuple, dim: int):
    """The words of the image of a word under u[i,j] -> sum_k L.u[i,k] * R.u[k,j]
    (every one with coefficient 1)."""
    factors = []
    for g in word:
        m = _GENERATOR.fullmatch(g)
        copy, i, j = m[1], int(m[2]), int(m[3])
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"generator {g} outside dimension {dim}")
        factors.append([(f"L.{copy}[{i},{k}]", f"R.{copy}[{k},{j}]")
                        for k in range(1, dim + 1)])
    return [sum(pick, ()) for pick in itertools.product(*factors)]


def _add(poly: dict, word: tuple, c: int):
    s = (poly.get(word, 0) + c) % P
    if s:
        poly[word] = s
    else:
        poly.pop(word, None)


def replay_certificates(doc: dict, dim: int):
    """Problems found replaying every certificate of an exact verify report.

    A certificate is a list of (left word, relation index, right word, coeff)
    whose sandwich sum over ``square_relations`` must equal the coproduct
    image of the relation it certifies.
    """
    problems = []
    try:
        rels = [parse_terms(s) for s in doc["square_relations"]]
        checks = []
        for v in doc["relations"]:
            cert = v.get("certificate")
            if v["verdict"] != "pass":
                if cert is not None or not v.get("residue"):
                    problems.append(f"relation {v['index']}: failed verdict needs a "
                                    f"residue and no certificate")
            elif cert is None:
                problems.append(f"relation {v['index']}: passed without a certificate")
            else:
                image = [(sign, c, coproduct(w, dim)) for sign, c, w in parse_terms(v["relation"])]
                sandwich = [(t["coeff"], parse_word(t["left"]), rels[t["relation"]],
                             parse_word(t["right"])) for t in cert]
                checks.append((v["index"], image, sandwich))
        values = {q: {} for q in Q_POINTS}

        def value(text, q):
            x = values[q].get(text)
            if x is None:
                x = values[q][text] = evaluate(text, q)
            return x

        for index, image, sandwich in checks:
            for q in Q_POINTS:
                want, got = {}, {}
                for sign, c, words in image:
                    c = sign * value(c, q)
                    for w in words:
                        _add(want, w, c)
                for c, left, rel, right in sandwich:
                    c = value(c, q)
                    for sign, rc, w in rel:
                        _add(got, left + w + right, sign * c * value(rc, q))
                if got != want:
                    problems.append(f"relation {index}: certificate does not replay")
                    break
    except (IndexError, KeyError, TypeError, ValueError) as e:
        problems.append(f"unreadable report: {type(e).__name__}: {e}")
    return problems


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def summarize_verify(doc: dict) -> dict:
    """The recorded facts of a verify report (certificates excluded)."""
    return {
        "summary": {k: v for k, v in doc.items() if k not in _SUMMARY_SKIP},
        "verdicts": [v["verdict"] for v in doc["relations"]],
        "relations": digest([v["relation"] for v in doc["relations"]]),
        "square_relations": digest(doc["square_relations"]),
    }


def _dims(text: str) -> dict:
    return {k: json.loads(v) for k, v in
            re.findall(r"^(\w*dims): (\[.*\])$", text, flags=re.M)}


def record(argv, rc: int, out: bytes) -> dict:
    """The expected entry for one job, from an output taken as correct."""
    entry = {"rc": rc}
    if argv[0] == "verify":
        entry.update(summarize_verify(json.loads(out)))
    elif argv[0] in ("hilbert", "square-iso"):
        entry["dims"] = _dims(out.decode())
    else:
        entry["bytes"] = len(out)
        entry["sha256"] = digest(out)
    return entry


def check(job_name: str, argv, rc: int, out: bytes, expected: dict, dims: dict):
    """Problems with one job's exit code and stdout (empty when correct).

    ``expected`` holds the entries of the exact-mode job list; a
    probabilistic verify job is checked against its exact counterpart.
    ``dims`` maps R-matrix document names to their dimension.
    """
    want = expected[job_name]
    problems = []
    if rc != want["rc"]:
        problems.append(f"exit code {rc}, expected {want['rc']}")
    if argv[0] == "verify":
        try:
            doc = json.loads(out)
            got = summarize_verify(doc)
        except (ValueError, KeyError, TypeError) as e:
            return problems + [f"unreadable verify report: {e}"]
        sampled = "probabilistic" in argv
        if got["summary"] != want["summary"]:
            problems.append("report summary differs")
        if got["verdicts"] != want["verdicts"]:
            problems.append("per-relation verdicts differ from the exact verdicts")
        if got["relations"] != want["relations"]:
            problems.append("relation list differs")
        if doc.get("mode") != ("probabilistic" if sampled else "exact"):
            problems.append(f"mode {doc.get('mode')!r}")
        if sampled:
            if len(doc.get("points", ())) != 3:
                problems.append("expected 3 sample points")
        else:
            if got["square_relations"] != want["square_relations"]:
                problems.append("square relation list differs")
            problems.extend(replay_certificates(doc, dims[doc["rmatrix"]]))
    elif argv[0] in ("hilbert", "square-iso"):
        if _dims(out.decode(errors="replace")) != want["dims"]:
            problems.append("dimension vectors differ")
    elif len(out) != want["bytes"] or digest(out) != want["sha256"]:
        problems.append("stdout differs")
    return problems


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 check.py --record")
    import run
    run.record_expected()
