"""Labeled-multigraph model and rule validator for decomposition graphs.

Nodes are the pieces of the decomposition (I-fibered, Seifert fibered, or
simple); edges are the annuli between them, optionally labeled with an
annulus type and a slope pair.  The validator applies one rule per law,
each independently named, and reports violations instead of raising.

Shapes that exist only as drawings are never hard-coded: the
shape-membership rules for labels are necessary conditions computable from
edge multiplicities, loop presence and node kinds, documented on each rule.
"""

from __future__ import annotations

import enum
from collections import Counter
from math import gcd

from ._record import Record
from .classify import AnnulusType
from .freegroup import check_digit_budget, excerpt


class NodeKind(str, enum.Enum):
    IFIBERED = "ifibered"
    SEIFERT = "seifert"
    SIMPLE = "simple"


class SlopePair(Record):
    """Boundary-slope pair of a separating-disk splitting.

    ``recip`` encodes the unordered pair (p/q, q/p) with p*q != 0;
    ``prod`` encodes (p/q, p*q) with q > 0 and p not in {1, -1}.
    Fractions are stored in lowest terms; the ``recip`` and ``prod``
    constructors also make the denominator positive.  Pairs compare equal
    when they hold the same two slopes.
    """

    form: str
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.form not in ("recip", "prod"):
            raise ValueError("form must be 'recip' or 'prod'")
        if self.form == "recip":
            if self.p * self.q == 0:
                raise ValueError("recip slope requires p*q != 0")
        else:
            if self.q <= 0:
                raise ValueError("prod slope requires q > 0")
            if self.p in (1, -1):
                raise ValueError("prod slope requires p outside {1, -1}")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError("slope must be in lowest terms")

    @classmethod
    def _lowest_terms(cls, form: str, p: int, q: int) -> "SlopePair":
        g = gcd(p, q) or 1
        if q < 0:
            g = -g
        return cls(form, p // g, q // g)

    @classmethod
    def recip(cls, p: int, q: int) -> "SlopePair":
        return cls._lowest_terms("recip", p, q)

    @classmethod
    def prod(cls, p: int, q: int) -> "SlopePair":
        return cls._lowest_terms("prod", p, q)

    def _key(self) -> tuple:
        # prod's (p, q) is unique for its pair; recip's pair is unordered
        if self.form == "prod":
            return self.form, self.p, self.q
        a, b = sorted((abs(self.p), abs(self.q)))
        return self.form, self.p * self.q > 0, a, b

    @property
    def is_trivial(self) -> bool:
        return self.form == "prod" and self.p == 0

    def __str__(self) -> str:
        return f"{self.form}:{self.p}/{self.q}"


class Edge(Record):
    id: str
    a: str
    b: str
    label: AnnulusType | None = None
    slope: SlopePair | None = None

    @property
    def is_loop(self) -> bool:
        return self.a == self.b


class JsjGraph(Record):
    nodes: tuple[tuple[str, NodeKind], ...]
    edges: tuple[Edge, ...] = ()

    def bigon_groups(self) -> list[list[Edge]]:
        """Groups of >= 2 parallel non-loop edges (same endpoint pair)."""
        groups: dict[frozenset, list[Edge]] = {}
        for edge in self.edges:
            if not edge.is_loop:
                groups.setdefault(frozenset((edge.a, edge.b)), []).append(edge)
        return [g for g in groups.values() if len(g) >= 2]


_LAWS = {
    "well-formed-graph": "edges must reference declared nodes",
    "central-piece-law": "exactly one I-fibered or simple node, and every edge is adjacent to it",
    "connected-graph-law": "every node is joined to the central node",
    "seifert-frontier-law": "a Seifert fibered node meets at most three annuli",
    "three-annulus-law": "a decomposition graph carries at most three annuli",
    "twoone-shape-law": "a type 2-1 annulus occurs only as the unique, non-loop edge of its graph",
    "twotwo-shape-law": "a type 2-2 annulus never occurs as a bigon edge",
    "threethree-ii-shape-law": "a type 3-3ii annulus never occurs as a bigon edge",
    "bigon-threethree-law": "bigon edges carry type 3-3i annuli",
    "loop-edge-law": "a loop edge never carries a type 2-1 or type 3-3ii annulus",
    "fourone-noncharacteristic-law": "type 4-1 annuli are never decomposition annuli",
    "trivial-slope-law": "a type 3-3ii annulus has the trivial slope pair",
    "twotwo-coexistence-law": "a trivial-slope type 3-3 annulus next to a type 2-2 annulus is of type 3-3ii",
    "bigon-slope-law": "bigon annuli share one slope pair (p/q, pq) with |p| > 1",
}


class Violation(Record):
    rule: str
    subject: str

    @property
    def lemma(self) -> str:
        return _LAWS[self.rule]


def _reached_from(start: str, edges) -> set[str]:
    """The nodes joined to ``start`` by a path of edges."""
    neighbours: dict[str, list[str]] = {}
    for edge in edges:
        neighbours.setdefault(edge.a, []).append(edge.b)
        neighbours.setdefault(edge.b, []).append(edge.a)
    reached, frontier = {start}, [start]
    while frontier:
        for nid in neighbours.get(frontier.pop(), ()):
            if nid not in reached:
                reached.add(nid)
                frontier.append(nid)
    return reached


def validate_structure(graph: JsjGraph) -> list[Violation]:
    """Structural admissibility, independent of labels."""
    node_ids = Counter(nid for nid, _ in graph.nodes)
    edge_ids = Counter(edge.id for edge in graph.edges)
    violations = [Violation("well-formed-graph", f"duplicate {kind} {ident}")
                  for kind, ids in (("node", node_ids), ("edge", edge_ids))
                  for ident, count in ids.items() if count > 1]
    for edge in graph.edges:
        if edge.a not in node_ids or edge.b not in node_ids:
            violations.append(Violation("well-formed-graph", f"edge {edge.id}"))
    if violations:
        return violations

    central = [nid for nid, kind in graph.nodes
               if kind in (NodeKind.IFIBERED, NodeKind.SIMPLE)]
    if len(central) != 1:
        violations.append(Violation("central-piece-law", f"{len(central)} central nodes"))
    else:
        hub = central[0]
        for edge in graph.edges:
            if hub not in (edge.a, edge.b):
                violations.append(Violation("central-piece-law", f"edge {edge.id}"))
        reached = _reached_from(hub, graph.edges)
        violations += [Violation("connected-graph-law", f"node {nid}")
                       for nid, _ in graph.nodes if nid not in reached]

    degree = Counter(end for edge in graph.edges for end in (edge.a, edge.b))  # a loop twice
    for nid, kind in graph.nodes:
        if kind is NodeKind.SEIFERT and degree[nid] > 3:
            violations.append(Violation("seifert-frontier-law", f"node {nid}"))

    if len(graph.edges) > 3:
        violations.append(Violation("three-annulus-law", f"{len(graph.edges)} edges"))
    return violations


def validate_labels(graph: JsjGraph) -> list[Violation]:
    """Label admissibility; assumes :func:`validate_structure` passed."""
    violations = []
    bigon_edge_ids = {edge.id for group in graph.bigon_groups() for edge in group}

    for edge in graph.edges:
        label = edge.label
        if label is None:
            continue
        if label is AnnulusType.T4_1:
            violations.append(Violation("fourone-noncharacteristic-law", f"edge {edge.id}"))
        if edge.is_loop and label in (AnnulusType.T2_1, AnnulusType.T3_3ii):
            violations.append(Violation("loop-edge-law", f"edge {edge.id}"))
        if label is AnnulusType.T2_1 and (edge.is_loop or len(graph.edges) != 1):
            violations.append(Violation("twoone-shape-law", f"edge {edge.id}"))
        if edge.id in bigon_edge_ids:
            if label is not AnnulusType.T3_3i:
                violations.append(Violation("bigon-threethree-law", f"edge {edge.id}"))
            if label is AnnulusType.T2_2:
                violations.append(Violation("twotwo-shape-law", f"edge {edge.id}"))
            if label is AnnulusType.T3_3ii:
                violations.append(Violation("threethree-ii-shape-law", f"edge {edge.id}"))
    return violations


def validate_slopes(graph: JsjGraph) -> list[Violation]:
    """Per-edge slope rules for the two type 3-3 labels, plus bigon slope
    matching."""
    violations = []
    has_type22 = any(e.label is AnnulusType.T2_2 for e in graph.edges)
    for edge in graph.edges:
        if edge.slope is None:
            continue
        subject = f"edge {edge.id}: {edge.slope}"
        if edge.label is AnnulusType.T3_3ii and not edge.slope.is_trivial:
            violations.append(Violation("trivial-slope-law", subject))
        elif edge.label is AnnulusType.T3_3i and edge.slope.is_trivial and has_type22:
            violations.append(Violation("twotwo-coexistence-law", subject))
    for group in graph.bigon_groups():
        sloped = [e for e in group if e.slope is not None
                  and e.label is AnnulusType.T3_3i]
        if len(sloped) < 2:
            continue
        slopes = {e.slope for e in sloped}
        bad_form = any(s.form != "prod" or abs(s.p) <= 1 for s in slopes)
        if len(slopes) > 1 or bad_form:
            subject = "edges " + ", ".join(e.id for e in sloped)
            violations.append(Violation("bigon-slope-law", subject))
    return violations


def validate(graph: JsjGraph) -> list[Violation]:
    violations = validate_structure(graph)
    if violations:
        return violations
    return validate_labels(graph) + validate_slopes(graph)


def realizability_warnings(graph: JsjGraph) -> list[str]:
    """Admissible shapes with no known realizing handlebody-knot.  A graph
    with repeated edge ids is malformed, not a shape, and gets none."""
    if len({edge.id for edge in graph.edges}) < len(graph.edges):
        return []
    groups = graph.bigon_groups()
    if not groups:
        return []
    if len(graph.edges) > sum(len(g) for g in groups):
        return ["bigon-plus-edge shape: admissible, realizability unknown"]
    return ["bigon label combinations: not all are known to occur"]


# -- text format ---------------------------------------------------------------

# Longest graph file, in characters, that `jsj validate` reads.
GRAPH_BUDGET = 1_000_000


def _member(kind, text: str):
    """``kind(text)``, quoting a bounded excerpt of text that names no member."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{excerpt(text)} is not a valid {kind.__name__}") from None


def _parse_slope(token: str) -> SlopePair:
    form, _, frac = token.partition(":")
    num, _, den = frac.partition("/")
    bad = ValueError(f"bad slope token {excerpt(token)}: expected prod:p/q or recip:p/q "
                     "with integers p, q")
    if form not in ("prod", "recip") or not den:
        raise bad
    check_digit_budget(num, den)
    try:
        p, q = int(num), int(den)
    except ValueError:
        raise bad from None
    return SlopePair.prod(p, q) if form == "prod" else SlopePair.recip(p, q)


def parse_graph(text: str) -> JsjGraph:
    """Line format:

        node <id> ifibered|seifert|simple
        edge <id> <nodeA> <nodeB> [label=<type>] [slope=prod:p/q|recip:p/q]

    Blank lines and ``#`` comments are ignored.
    """
    nodes: list[tuple[str, NodeKind]] = []
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "node":
                if len(tokens) != 3:
                    raise ValueError("expected 'node <id> ifibered|seifert|simple'")
                nodes.append((tokens[1], _member(NodeKind, tokens[2])))
            elif tokens[0] == "edge":
                if not 4 <= len(tokens) <= 6:
                    raise ValueError("expected 'edge <id> <nodeA> <nodeB> "
                                     "[label=<type>] [slope=<pair>]'")
                attrs: dict = {}
                for extra in tokens[4:]:
                    key, _, value = extra.partition("=")
                    if key in attrs:
                        raise ValueError(f"repeated edge attribute {excerpt(key)}")
                    if key == "label":
                        attrs[key] = _member(AnnulusType, value)
                    elif key == "slope":
                        attrs[key] = _parse_slope(value)
                    else:
                        raise ValueError(f"unknown edge attribute {excerpt(key)}")
                edges.append(Edge(tokens[1], tokens[2], tokens[3], **attrs))
            else:
                raise ValueError(f"unrecognised directive {excerpt(tokens[0])}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return JsjGraph(tuple(nodes), tuple(edges))
