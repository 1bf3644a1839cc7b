"""The benchmark's workloads: which graph6 lines are scanned, at which r.

A workload is a list of passes; each pass is one ``scan_lines`` call
over graph6 lines with an r policy and a chi node budget.  Only the
lines reach the program.

* ``catalog``: every connected host with n <= 7, at r=2 then r=3.  The
  corpus is fixed; the seed does not change it.
* ``snarks-half``: Petersen, two Blanusa snarks, flower J5 and the cubic
  bridgeless hosts up to n=14, at r = n/2.  Fixed corpus.
* ``dense-r2``: random connected hosts drawn from the seed plus K8-K10,
  all at r=2 under a chi budget of 10^5 nodes.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"

# chi node budgets, passed explicitly so that a change of mkg's default
# (10^7 at the seed) cannot change what a workload asks for
DEFAULT_BUDGET = 10_000_000
DENSE_BUDGET = 100_000

# (n, m) of the random dense-r2 hosts, edge density m / C(n, 2) in
# 0.5..0.9.  Edge counts are fixed rather than drawn per edge so the
# Kneser sizes, and with them the run time, hardly move between seeds.
# The two (9, 18) hosts finish inside the budget (60 of 60 seeds tried);
# every other host exhausted it on every seed tried (8 to 30 per slot).
DENSE_SLOTS = ((9, 18), (9, 18), (10, 32), (11, 33), (12, 33), (9, 29),
               (10, 40), (11, 44), (12, 36))
DENSE_COMPLETE = (8, 9, 10)

# seeds whose dense-r2 answers are pinned in full; a claim made on the
# first must also hold on the second
PINNED_SEEDS = (1, 2)

NAMES = ("catalog", "snarks-half", "dense-r2")


def _corpus_lines(name: str) -> list[str]:
    text = (CORPUS / name).read_text(encoding="ascii")
    return [line.strip() for line in text.splitlines() if line.strip()]


def write_graph6(n: int, edges) -> str:
    """Short-form graph6 of a graph on 0..n-1 (n <= 62)."""
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(u, v) in eset for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        out.append(chr(63 + sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6]))))
    return "".join(out)


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_host(rng: random.Random, n: int, m: int) -> str:
    """Uniform connected graph with n vertices and m edges, as graph6."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if _connected(n, edges):
            return write_graph6(n, edges)


def dense_lines(seed: int) -> list[str]:
    lines = [random_host(random.Random(f"dense-r2:{seed}:{slot}"), n, m)
             for slot, (n, m) in enumerate(DENSE_SLOTS)]
    lines += [write_graph6(k, combinations(range(k), 2)) for k in DENSE_COMPLETE]
    return lines


def passes(workload: str, seed: int) -> list[dict]:
    """The scan passes of a workload: [{"lines", "r", "budget"}, ...]."""
    if workload == "catalog":
        lines = _corpus_lines("connected_n7.g6")
        return [{"lines": lines, "r": 2, "budget": DEFAULT_BUDGET},
                {"lines": lines, "r": 3, "budget": DEFAULT_BUDGET}]
    if workload == "snarks-half":
        return [{"lines": _corpus_lines("snarks_half.g6"), "r": "half-order",
                 "budget": DEFAULT_BUDGET}]
    if workload == "dense-r2":
        return [{"lines": dense_lines(seed), "r": 2, "budget": DENSE_BUDGET}]
    raise ValueError(f"unknown workload {workload!r}")
