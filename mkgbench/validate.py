"""Checks of the scan reports that do not trust mkg, run outside the
timed region.

A report fails when any of these holds:

* it is not a report of the expected host and r;
* a pinned exact field (``PINNED_EXACT``) differs from the seed's
  answer, or a pinned decided instance changes chi or verdict, or a
  pinned undecided one reports a chi (or bounds) outside its pinned
  bounds;
* rhs is not m - ex_value, or the ex certificate has the wrong size or
  contains an r-matching by networkx's maximum matching;
* at r = 2, ex_value differs from max(max degree, 3 if a triangle),
  since a graph without two disjoint edges is a star or a triangle;
* the r-matching count, the Kneser edge count or the coloring's
  properness disagrees with KG(G, rK2) rebuilt here;
* chi > rhs, the coloring does not use exactly chi colors, or the
  verdict does not follow from chi, rhs, connectivity and r;
* a host that is not cubic is called a snark.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx

PINS = Path(__file__).resolve().parent / "pins"

REPORT_FIELDS = ["graph6", "n", "m", "r", "num_r_matchings",
                 "kneser_vertices", "kneser_edges", "chromatic_number",
                 "ex_value", "rhs", "verdict", "is_snark", "certificates"]
PINNED_EXACT = ("ex_value", "rhs", "num_r_matchings", "kneser_edges",
                "is_snark")


def pin_key(line: str, r) -> str:
    return f"{line} {r}"


def load_pins(workload: str) -> dict:
    path = PINS / f"{workload}.json"
    return json.loads(path.read_text())["pins"] if path.exists() else {}


class Host:
    """A host graph decoded by networkx, edges in mkg's canonical order."""

    def __init__(self, line: str):
        g = nx.from_graph6_bytes(line.encode("ascii"))
        self.n = g.number_of_nodes()
        self.edges = sorted((min(e), max(e)) for e in g.edges())
        self.connected = self.n == 0 or nx.is_connected(g)
        self.cubic = self.n > 0 and all(d == 3 for _, d in g.degree())
        self.max_degree = max((d for _, d in g.degree()), default=0)
        self.triangle = any(nx.triangles(g).values())


def _nu(edges) -> int:
    return len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True))


def _r_matchings(host: Host, r: int) -> list[int]:
    """Edge-index bitmasks of all r-matchings, lexicographic order."""
    vmask = [(1 << u) | (1 << v) for u, v in host.edges]
    m = len(vmask)
    out = []

    def grow(start: int, covered: int, chosen: int, need: int) -> None:
        if need == 0:
            out.append(chosen)
            return
        for i in range(start, m - need + 1):
            if not covered & vmask[i]:
                grow(i + 1, covered | vmask[i], chosen | 1 << i, need - 1)

    grow(0, 0, 0, r)
    return out


def _kneser_edges(masks: list[int], colors) -> tuple[int, bool]:
    """(edge count of KG, whether colors is proper on it)."""
    count = 0
    proper = True
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if not mi & masks[j]:
                count += 1
                if colors is not None and colors[i] == colors[j]:
                    proper = False
    return count, proper


def check(host: Host, line: str, r: int, text: str, pin: dict | None):
    """None when the report passes, else the reason it fails."""
    try:
        rep = json.loads(text)
    except ValueError:
        return "not JSON"
    if not isinstance(rep, dict) or list(rep) != REPORT_FIELDS:
        return f"not a report: {text[:80]}"
    m = len(host.edges)
    if (rep["graph6"], rep["n"], rep["m"], rep["r"]) != (line, host.n, m, r):
        return "report is for another host or r"
    if pin is not None:
        for f in PINNED_EXACT:
            if rep[f] != pin[f]:
                return f"{f} = {rep[f]}, pinned {pin[f]}"
    ex = rep["ex_value"]
    if rep["rhs"] != m - ex:
        return "rhs != m - ex_value"
    certs = rep["certificates"]
    kept = certs.get("extremal_edges")
    if (not isinstance(kept, list) or len(kept) != ex
            or kept != sorted(set(kept)) or any(not 0 <= e < m for e in kept)):
        return "malformed ex certificate"
    if _nu([host.edges[e] for e in kept]) >= r:
        return "ex certificate contains an r-matching"
    if r == 2 and ex != max(host.max_degree, 3 if host.triangle else 0):
        return "ex_value differs from the r=2 formula"
    masks = _r_matchings(host, r)
    if rep["num_r_matchings"] != len(masks) or rep["kneser_vertices"] != len(masks):
        return "r-matching count differs from the rebuilt KG"
    chi = rep["chromatic_number"]
    undecided = rep["verdict"] == "undecided"
    colors = certs.get("coloring")
    if undecided:
        bounds = certs.get("chi_bounds")
        if chi != -1 or colors != [] or not (
                isinstance(bounds, list) and len(bounds) == 2
                and 1 <= bounds[0] <= bounds[1]):
            return "malformed undecided report"
        colors = None
    else:
        if not isinstance(colors, list) or len(colors) != len(masks):
            return "coloring has the wrong length"
        if set(colors) != set(range(chi)):
            return "coloring does not use exactly chi colors"
        if chi > rep["rhs"]:
            return "chi > rhs"
    edges, proper = _kneser_edges(masks, colors)
    if rep["kneser_edges"] != edges:
        return "Kneser edge count differs from the rebuilt KG"
    if not proper:
        return "coloring is improper on the rebuilt KG"
    if masks and not edges and certs.get("pairwise_intersect") is not True:
        return "edgeless KG without its pairwise_intersect certificate"
    if not undecided:
        if not host.connected:
            verdict = "not-connected"
        elif r < 2:
            verdict = "r-out-of-scope"
        else:
            verdict = "holds" if chi == rep["rhs"] else "counterexample"
        if rep["verdict"] != verdict:
            return f"verdict {rep['verdict']}, expected {verdict}"
    if rep["is_snark"] and not host.cubic:
        return "a host that is not cubic is called a snark"
    if pin is not None:
        if pin["verdict"] != "undecided":
            if (chi, rep["verdict"]) != (pin["chromatic_number"], pin["verdict"]):
                return (f"chi {chi} / {rep['verdict']}, pinned "
                        f"{pin['chromatic_number']} / {pin['verdict']}")
        else:
            lo, hi = pin["chi_bounds"]
            got = certs["chi_bounds"] if undecided else [chi, chi]
            if got[0] > hi or got[1] < lo:
                return f"chi bounds {got} outside pinned {pin['chi_bounds']}"
    return None


def validate(instances, report_lines, pins: dict, require_pins: bool):
    """Check every instance's report.

    instances: [(graph6 line, r policy)], report_lines: the scan's output lines
    in the same order (missing ones failed to appear).  Returns
    (failures as [(index, reason)], reports as parsed dicts or None).
    """
    hosts = {}
    failures = []
    parsed = []
    for i, (line, r) in enumerate(instances):
        if i >= len(report_lines):
            failures.append((i, "no report"))
            parsed.append(None)
            continue
        host = hosts.get(line)
        if host is None:
            host = hosts[line] = Host(line)
        if r == "half-order":
            r = host.n // 2  # every half-order host here has even order
        pin = pins.get(pin_key(line, r))
        if pin is None and require_pins:
            reason = "no pinned answer"
        else:
            reason = check(host, line, r, report_lines[i], pin)
        if reason is not None:
            failures.append((i, reason))
            parsed.append(None)
        else:
            parsed.append(json.loads(report_lines[i]))
    return failures, parsed
