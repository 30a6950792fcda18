"""Benchmark inputs: R-matrix documents, workload job lists, seeded order.

Everything the program receives is made here: the R-matrix documents are
written from code, and each job is an argv for ``braidalg.cli.main``.  The
seed decides only the order in which jobs run and the ``--seed`` handed to
probabilistic jobs, so a seed names one exact input sequence.
"""

from __future__ import annotations

import json
import random

# Documents are passed by these relative names (jobs run with the work
# directory as their cwd), so the ``rmatrix:`` labels inside the outputs
# do not depend on where the checkout lives.
DOCUMENTS = ("glq2.json", "glq3.json", "glq4.json", "glq8.json", "pert2.json")


def glq_entries(N: int) -> dict:
    """Entries of the standard Drinfeld-Jimbo GL_q(N) R-matrix.

    R^{ii}_{ii} = q, R^{ij}_{ij} = 1 for i != j, and R^{ij}_{ji} = q - q^-1
    for i < j; the same convention as the builtin ``glq2``.
    """
    entries = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                entries[(i, i, i, i)] = "q"
            else:
                entries[(i, j, i, j)] = "1"
                if i < j:
                    entries[(i, j, j, i)] = "q - q^-1"
    return entries


def pert2_entries() -> dict:
    """GL_q(2) with entry (1,2,2,1) set to 1 + q; it fails Yang-Baxter."""
    entries = glq_entries(2)
    entries[(1, 2, 2, 1)] = "1 + q"
    return entries


def rmatrix_document(dim: int, entries: dict) -> str:
    recs = [{"i": i, "j": j, "k": k, "l": l, "coeff": c}
            for (i, j, k, l), c in sorted(entries.items())]
    return json.dumps({"dim": dim, "entries": recs}, indent=2) + "\n"


def documents() -> dict:
    """File name -> document text for every input the workloads use."""
    docs = {f"glq{N}.json": rmatrix_document(N, glq_entries(N)) for N in (2, 3, 4, 8)}
    docs["pert2.json"] = rmatrix_document(2, pert2_entries())
    return docs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

_VERIFY = (
    ("chain-glq2-n4", ["verify", "chain", "glq2.json", "-n", "4", "-D", "4"]),
    ("bm-glq4", ["verify", "bm", "glq4.json", "-D", "4"]),
    ("chain-pert2-n2", ["verify", "chain", "pert2.json", "-n", "2", "-D", "4"]),
)

_STRUCTURE = (
    ("square-iso-glq4", ["square-iso", "glq4.json", "-D", "4"]),
    ("hilbert-chain-glq3-n3", ["hilbert", "chain", "glq3.json", "-n", "3", "-D", "4"]),
    ("hilbert-chain-pert2-n3", ["hilbert", "chain", "pert2.json", "-n", "3", "-D", "5"]),
    ("biinv-glq8", ["biinv", "glq8.json"]),
    ("present-frt-glq8", ["present", "frt", "glq8.json"]),
    ("ybe-glq8", ["ybe", "glq8.json"]),
)

WORKLOADS = ("verify-exact", "verify-sampled", "structure")


def sampled_seed(seed: int) -> int:
    """The ``--seed`` passed to every probabilistic job of a run."""
    return random.Random(f"verify-sampled:{seed}").randrange(1, 2 ** 31)


def jobs(workload: str, seed: int):
    """[(job name, argv)] of a workload, in its fixed (unshuffled) order."""
    if workload == "verify-exact":
        return [(name, list(argv)) for name, argv in _VERIFY]
    if workload == "verify-sampled":
        extra = ["--mode", "probabilistic", "--seed", str(sampled_seed(seed))]
        return [(name, list(argv) + extra) for name, argv in _VERIFY]
    if workload == "structure":
        return [(name, list(argv)) for name, argv in _STRUCTURE]
    raise ValueError(f"unknown workload {workload!r} (use one of {', '.join(WORKLOADS)})")


def documents_used(workload: str):
    return sorted({a for _, argv in jobs(workload, 0) for a in argv if a in DOCUMENTS})


def schedule(workload: str, seed: int):
    """Endless sequence of rounds; each round is the job list in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    base = jobs(workload, seed)
    while True:
        order = list(base)
        rng.shuffle(order)
        yield order


def hash_seed(seed: int, job_name: str) -> str:
    """PYTHONHASHSEED for a job's processes: varied across jobs and seeds,
    fixed for repeats of one job inside a run."""
    return str(random.Random(f"hash:{seed}:{job_name}").randrange(1, 2 ** 32))
