"""Simple undirected graphs with canonical edge indexing, plus graph6 I/O.

Vertices are dense integers 0..n-1.  Edges are stored as a tuple of pairs
(u, v) with u < v, sorted lexicographically; the position of a pair in that
tuple is its edge index.  Every other module refers to edges by index, so
this ordering is load-bearing: certificates, matchings and colorings all
name edges through it.

graph6 support is deliberately short-form only (n <= 62): the intended
inputs are desk-scale catalogs of small graphs.

Of the predicates, is_connected is one bitmask reachability search from
vertex 0, and bridges one iterative low-link depth-first search, linear
in n + m.
"""

from __future__ import annotations

import sys


class Graph6Error(ValueError):
    """Malformed graph6 text. byte_offset points at the offending byte."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def allow_recursion(depth: int) -> None:
    """Let a recursive search nest depth frames: raise the recursion
    limit to depth plus 1000 frames of headroom, never lowering it."""
    need = depth + 1000
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)


def check_count(value, floor: int, name: str) -> None:
    """The one rule for a count argument (a vertex count, an edge's end,
    a matching size r, a node budget, an edge index): raise ValueError
    unless value is an int, not a bool, and at least floor."""
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ValueError(f"expected an int {name} >= {floor}, got {value!r}")


class Graph:
    """Immutable simple graph with canonical (sorted) edge indexing.

    Attributes:
        n: number of vertices, labeled 0..n-1.
        edges: sorted tuple of (u, v) pairs with u < v; index into this
            tuple is the canonical edge index.
        m: number of edges.
        rows: the adjacency, one bitmask per vertex: bit w of rows[v] is
            set iff {v, w} is an edge.  Built with the graph; it is the
            only adjacency form, and a KneserGraph holds the same one.

    These four are all a Graph stores; the hash is computed on demand.
    The null graph (n=0) is legal and counts as connected.
    """

    __slots__ = ("n", "edges", "m", "rows")

    def __init__(self, n: int, edges=()):
        check_count(n, 0, "n")
        canon = []
        for u, v in edges:
            check_count(u, 0, "vertex")
            check_count(v, 0, "vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u >= n or v >= n:
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        rows = [0] * n
        for u, v in canon:
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge {(u, v)}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.edges = tuple(canon)
        self.m = len(canon)
        self.rows = tuple(rows)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------- graph6 --

_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6 (short form, n <= 62) into a Graph.

    The optional ">>graph6<<" header prefix is stripped.  Bit layout per
    the format definition: header byte n+63, then the upper-triangle
    adjacency bits in column order x(0,1), x(0,2), x(1,2), x(0,3), ...,
    packed big-endian into 6-bit groups, each offset by 63, padded with
    zero bits.

    Raises Graph6Error naming the byte offset on malformed input.
    """
    line = text.strip()
    if line.startswith(_G6_PREFIX):
        line = line[len(_G6_PREFIX):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII character", exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 line", 0)
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside graph6 range 63..126", off)
    if data[0] == 126:
        raise Graph6Error("long-form size header (n > 62) not supported", 0)
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = len(data) - 1
    if body < need:
        raise Graph6Error(f"truncated body: need {need} bytes, got {body}",
                          len(data))
    if body > need:
        raise Graph6Error("trailing bytes after adjacency bits", 1 + need)
    bits = 0
    for byte in data[1:]:
        bits = (bits << 6) | (byte - 63)
    pad = need * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    edges = []
    k = need * 6 - 1  # most significant bit first
    for v in range(1, n):
        for u in range(v):
            if (bits >> k) & 1:
                edges.append((u, v))
            k -= 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode a Graph as one short-form graph6 line (no trailing newline).

    Inverse of parse_graph6: labels are preserved, padding bits are zero.
    Raises ValueError for n > 62.
    """
    if g.n > 62:
        raise ValueError("graph6 short form requires n <= 62")
    out = bytearray([g.n + 63])
    acc = 0
    nb = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | (g.rows[v] >> u & 1)
            nb += 1
            if nb == 6:
                out.append(acc + 63)
                acc = 0
                nb = 0
    if nb:
        out.append((acc << (6 - nb)) + 63)
    return out.decode("ascii")


def open_graph6(path):
    """Open a graph6 file for reading as text.

    Bytes outside ASCII are kept as lone surrogates instead of failing
    the read with UnicodeDecodeError, so parse_graph6 rejects their line
    with a Graph6Error like any other malformed graph6.
    """
    return open(path, "r", encoding="ascii", errors="surrogateescape")


# ------------------------------------------------------------- generators --

def petersen() -> Graph:
    """The Petersen graph, GP(5, 2); its graph6 is IheA@GUAo."""
    return generalized_petersen(5, 2)


def cycle(n: int) -> Graph:
    check_count(n, 3, "n")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    check_count(n, 1, "n")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(k: int) -> Graph:
    """K_{1,k}: hub 0 joined to leaves 1..k."""
    check_count(k, 1, "k")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def disjoint_matching(n: int) -> Graph:
    """nK2: n disjoint edges (2i, 2i+1) on 2n vertices."""
    check_count(n, 1, "n")
    return Graph(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])


def flower(k: int) -> Graph:
    """Flower snark J_k (k >= 3; a snark for odd k >= 5): k stars
    A_i-(B_i, C_i, D_i) with A_i = i, B_i = k + i, C_i = 2k + i and
    D_i = 3k + i, a k-cycle on the B_i, and one 2k-cycle
    C_0..C_{k-1} D_0..D_{k-1}."""
    check_count(k, 3, "k")
    edges = []
    for i in range(k):
        edges += [(i, k + i), (i, 2 * k + i), (i, 3 * k + i),
                  (k + i, k + (i + 1) % k)]
    for i in range(k - 1):
        edges += [(2 * k + i, 2 * k + i + 1), (3 * k + i, 3 * k + i + 1)]
    edges += [(3 * k - 1, 3 * k), (4 * k - 1, 2 * k)]
    return Graph(4 * k, edges)


def generalized_petersen(k: int, s: int) -> Graph:
    """GP(k, s), k >= 3 and s >= 1 (usually s < k/2): an outer k-cycle
    u_i = i, spokes to v_i = k + i, and inner edges v_i v_{i+s}.
    GP(k, 1) is the k-prism and GP(5, 2) the Petersen graph."""
    check_count(k, 3, "k")
    check_count(s, 1, "s")
    edges = []
    for i in range(k):
        edges += [(i, (i + 1) % k), (i, k + i), (k + i, k + (i + s) % k)]
    return Graph(2 * k, edges)


# ------------------------------------------------------------- predicates --

def _reach(rows, v: int) -> int:
    """Bitmask of the vertices reachable from v, grown breadth first one
    bitmask frontier at a time."""
    seen = frontier = 1 << v
    while frontier:
        reach = 0
        for w in bit_indices(frontier):
            reach |= rows[w]
        frontier = reach & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """Every vertex is reachable from vertex 0; null and one-vertex graphs
    count as connected."""
    return g.n == 0 or _reach(g.rows, 0) == (1 << g.n) - 1


def bridges(g: Graph) -> list[int]:
    """Edge indices of all bridges, sorted ascending.

    One low-link depth-first search (Tarjan 1974), iterative over the
    adjacency bitmasks, so a long path needs no recursion: low[v] is the
    earliest discovery time reachable from v's subtree by one back edge,
    and the tree edge (p, v) is a bridge when low[v] > disc[p].  todo[v]
    holds the neighbours v has not looked at yet; a child drops its
    parent from it, since a simple graph has one edge between them.
    """
    disc = [0] * g.n  # discovery time, from 1; 0 while undiscovered
    low = [0] * g.n
    todo = list(g.rows)
    found = set()
    t = 0
    for root in range(g.n):
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        stack = [root]
        while stack:
            v = stack[-1]
            nb = todo[v]
            if nb:
                bit = nb & -nb
                todo[v] = nb ^ bit
                w = bit.bit_length() - 1
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    todo[w] ^= 1 << v
                    stack.append(w)
                elif disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            stack.pop()
            if stack:
                p = stack[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
                elif low[v] > disc[p]:
                    found.add((p, v) if p < v else (v, p))
    return [i for i, e in enumerate(g.edges) if e in found]


def is_cubic(g: Graph) -> bool:
    """True iff every vertex has degree exactly 3 (vacuously true for n=0)."""
    return all(row.bit_count() == 3 for row in g.rows)
