import itertools
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import graph_k, graph_m, trivial_graph
from hkannuli.classify import AnnulusType
from hkannuli.freegroup import DIGIT_BUDGET
from hkannuli.jsjgraph import (Edge, JsjGraph, NodeKind, SlopePair, Violation,
                               parse_graph, realizability_warnings, validate,
                               validate_labels, validate_slopes, validate_structure)


GRAPH_IDS = st.sampled_from(["x", "y", "a", "b"])
GRAPH_NODE_LINES = st.builds("node {} {}".format, GRAPH_IDS,
                             st.sampled_from(["ifibered", "seifert", "simple"]))
GRAPH_EDGE_LINES = st.builds(
    "edge {} {} {}{}{}".format, GRAPH_IDS, GRAPH_IDS, GRAPH_IDS,
    st.sampled_from(["", " label=3-3i", " label=3-3ii", " label=2-2", " label=4-1"]),
    st.one_of(st.just(""), st.builds(" slope={}:{}/{}".format, st.sampled_from(["prod", "recip"]),
                                     st.integers(-12, 12), st.integers(-12, 12))))
GRAPH_TOKENS = ["node", "edge", "x", "y", "seifert", "simple", "#", "label=", "label=9",
                "slope=", "slope=prod:", "recip:3", "/", "-", "2", "=", ":"]


def hub_graph(*edges: Edge, extra_nodes=()) -> JsjGraph:
    nodes = [("x", NodeKind.IFIBERED)]
    nodes += [(nid, NodeKind.SEIFERT) for nid in extra_nodes]
    return JsjGraph(tuple(nodes), tuple(edges))


def rules_of(violations):
    return {v.rule for v in violations}


def joined_to(start, edges):
    """The nodes a path of edges joins to ``start``, by growing the set
    until no edge leaves it."""
    joined = {start}
    while True:
        grown = joined | {end for edge in edges if joined & {edge.a, edge.b}
                          for end in (edge.a, edge.b)}
        if grown == joined:
            return joined
        joined = grown


class TestSlopePair:
    def test_recip_is_unordered(self):
        assert SlopePair.recip(2, 3) == SlopePair.recip(3, 2)
        assert hash(SlopePair.recip(2, 3)) == hash(SlopePair.recip(3, 2))
        assert SlopePair.recip(2, 3) != SlopePair.recip(2, 5)
        assert SlopePair.recip(-2, 3) == SlopePair("recip", 3, -2)
        assert hash(SlopePair.recip(-2, 3)) == hash(SlopePair("recip", 3, -2))
        assert SlopePair.recip(-2, 3) != SlopePair.recip(2, 3)
        assert SlopePair.recip(2, 3) != SlopePair.prod(2, 3)

    def test_prod_normalization(self):
        assert SlopePair.prod(0, 5) == SlopePair.prod(0, 1)
        assert SlopePair.prod(-3, -2) == SlopePair.prod(3, 2)
        assert str(SlopePair.prod(-6, -4)) == "prod:3/2"
        assert str(SlopePair.prod(3, -2)) == "prod:-3/2"
        assert str(SlopePair.recip(4, -6)) == "recip:-2/3"
        assert SlopePair.prod(3, 2) != SlopePair.prod(2, 3)
        assert parse_graph("node x ifibered\nnode s seifert\n"
                           "edge a x s slope=prod:-3/-2").edges[0].slope \
            == SlopePair.prod(3, 2)
        assert SlopePair.prod(0, 1).is_trivial
        assert not SlopePair.prod(3, 2).is_trivial

    def test_invalid(self):
        with pytest.raises(ValueError):
            SlopePair.recip(0, 3)
        with pytest.raises(ValueError):
            SlopePair.prod(1, 2)
        with pytest.raises(ValueError):
            SlopePair("prod", 3, -2)
        with pytest.raises(ValueError, match="^recip slope requires p\\*q != 0$"):
            SlopePair.recip(3, 0)
        with pytest.raises(ValueError, match="^prod slope requires q > 0$"):
            SlopePair.prod(3, 0)
        with pytest.raises(ValueError, match="^prod slope requires q > 0$"):
            SlopePair.prod(0, 0)


class TestStructure:
    def test_trivial_graph_valid(self):
        assert validate_structure(trivial_graph()) == []

    def test_named_graphs_clean(self):
        for graph in (trivial_graph(), graph_k(), graph_m()):
            assert validate(graph) == []

    def test_two_central_nodes(self):
        graph = JsjGraph((("x", NodeKind.IFIBERED), ("y", NodeKind.SIMPLE)))
        assert "central-piece-law" in rules_of(validate_structure(graph))

    def test_edge_missing_hub(self):
        graph = JsjGraph(
            (("x", NodeKind.IFIBERED), ("s", NodeKind.SEIFERT), ("t", NodeKind.SEIFERT)),
            (Edge("a", "s", "t"),))
        assert "central-piece-law" in rules_of(validate_structure(graph))

    def test_seifert_degree_bound(self):
        edges = tuple(Edge(f"e{i}", "x", "s") for i in range(4))
        graph = hub_graph(*edges, extra_nodes=("s",))
        rules = rules_of(validate_structure(graph))
        assert "seifert-frontier-law" in rules
        assert "three-annulus-law" in rules

    def test_loop_counts_twice_for_degree(self):
        graph = JsjGraph(
            (("x", NodeKind.IFIBERED), ("s", NodeKind.SEIFERT)),
            (Edge("a", "s", "s"), Edge("b", "x", "s")))
        # the loop at s is not adjacent to the hub and s has degree 3
        rules = rules_of(validate_structure(graph))
        assert "central-piece-law" in rules
        assert "seifert-frontier-law" not in rules

    def test_violation_order(self):
        # two over-degree Seifert nodes, one of them with a loop counted twice
        graph = JsjGraph(
            (("s", NodeKind.SEIFERT), ("x", NodeKind.SIMPLE), ("t", NodeKind.SEIFERT)),
            (Edge("a", "t", "t"), Edge("b", "x", "t"), Edge("c", "x", "t"),
             *(Edge(f"e{i}", "x", "s") for i in range(4))))
        assert validate_structure(graph) == [
            Violation("central-piece-law", "edge a"),
            Violation("seifert-frontier-law", "node s"),
            Violation("seifert-frontier-law", "node t"),
            Violation("three-annulus-law", "7 edges"),
        ]

    def test_large_hub_in_linear_time(self):
        size = 8000
        graph = hub_graph(*(Edge(f"e{i}", "x", f"s{i}") for i in range(size)),
                          extra_nodes=[f"s{i}" for i in range(size)])
        started = time.perf_counter()
        assert validate(graph) == [Violation("three-annulus-law", f"{size} edges")]
        assert time.perf_counter() - started < 2.0  # quadratic degrees took 7 s

    def test_unknown_node_reference(self):
        graph = JsjGraph((("x", NodeKind.SIMPLE),), (Edge("a", "x", "ghost"),))
        assert rules_of(validate_structure(graph)) == {"well-formed-graph"}

    def test_removing_edges_is_monotone(self):
        # dropping an edge that leaves the graph connected never introduces
        # a new structural violation
        base_edges = [Edge("a", "x", "x"), Edge("b", "x", "s"), Edge("c", "x", "s"),
                      Edge("d", "x", "t")]
        graph = hub_graph(*base_edges, extra_nodes=("s", "t"))
        before = rules_of(validate_structure(graph))
        for keep in itertools.combinations(base_edges, 3):
            if joined_to("x", keep) != {"x", "s", "t"}:
                continue
            after = rules_of(validate_structure(hub_graph(*keep, extra_nodes=("s", "t"))))
            assert after <= before

    def test_connected_to_the_central_node(self):
        """Every graph with one central node, at most three Seifert nodes
        and at most three edges, loops included: each node no path joins to
        the central node is reported, in node order."""
        checked = 0
        for central in (NodeKind.IFIBERED, NodeKind.SIMPLE):
            for seiferts in range(4):
                ids = ["x"] + [f"s{i}" for i in range(seiferts)]
                nodes = (("x", central),) + tuple((nid, NodeKind.SEIFERT) for nid in ids[1:])
                pairs = list(itertools.combinations_with_replacement(ids, 2))
                for count in range(4):
                    for chosen in itertools.combinations_with_replacement(pairs, count):
                        edges = tuple(Edge(f"e{i}", a, b) for i, (a, b) in enumerate(chosen))
                        joined = joined_to("x", edges)
                        subjects = [v.subject for v in validate_structure(JsjGraph(nodes, edges))
                                    if v.rule == "connected-graph-law"]
                        assert subjects == [f"node {nid}" for nid in ids if nid not in joined]
                        checked += 1
        assert checked == 2 * (4 + 20 + 84 + 286)

    def test_connected_law_text(self):
        graph = hub_graph(Edge("a", "x", "s"), extra_nodes=("s", "t"))
        violations = validate(graph)
        assert violations == [Violation("connected-graph-law", "node t")]
        assert violations[0].lemma == "every node is joined to the central node"


class TestLabels:
    def test_loop_cannot_be_twoone_or_threethree_ii(self):
        for label in (AnnulusType.T2_1, AnnulusType.T3_3ii):
            graph = hub_graph(Edge("a", "x", "x", label=label))
            assert "loop-edge-law" in rules_of(validate_labels(graph))

    def test_bigon_edges_are_threethree_i(self):
        graph = hub_graph(Edge("a", "x", "s", label=AnnulusType.T3_2i),
                          Edge("b", "x", "s", label=AnnulusType.T3_3i),
                          extra_nodes=("s",))
        violations = validate_labels(graph)
        assert rules_of(violations) == {"bigon-threethree-law"}
        assert violations[0].subject == "edge a"

    def test_fourone_never_on_an_edge(self):
        graph = hub_graph(Edge("a", "x", "s", label=AnnulusType.T4_1),
                          extra_nodes=("s",))
        assert "fourone-noncharacteristic-law" in rules_of(validate_labels(graph))

    def test_twoone_unique_shape(self):
        graph = hub_graph(Edge("a", "x", "s", label=AnnulusType.T2_1),
                          Edge("b", "x", "t"), extra_nodes=("s", "t"))
        assert "twoone-shape-law" in rules_of(validate_labels(graph))
        solo = hub_graph(Edge("a", "x", "s", label=AnnulusType.T2_1),
                         extra_nodes=("s",))
        assert validate_labels(solo) == []

    def test_twotwo_not_on_bigon(self):
        graph = hub_graph(Edge("a", "x", "s", label=AnnulusType.T2_2),
                          Edge("b", "x", "s"), extra_nodes=("s",))
        rules = rules_of(validate_labels(graph))
        assert "twotwo-shape-law" in rules

    def test_threethree_ii_not_on_bigon(self):
        graph = hub_graph(Edge("e1", "x", "s", label=AnnulusType.T3_3ii),
                          Edge("e2", "x", "s", label=AnnulusType.T3_3i),
                          extra_nodes=("s",))
        assert validate(graph) == [Violation("bigon-threethree-law", "edge e1"),
                                   Violation("threethree-ii-shape-law", "edge e1")]

    def test_unlabeled_edges_pass(self):
        graph = hub_graph(Edge("a", "x", "x"), Edge("b", "x", "s"),
                          extra_nodes=("s",))
        assert validate_labels(graph) == []


def one_sloped_edge(label, slope, *others):
    return hub_graph(Edge("a", "x", "s", label=label, slope=slope), *others,
                     extra_nodes=("s",))


class TestSlopeRules:
    def test_threethree_ii_requires_trivial_slope(self):
        assert validate_slopes(one_sloped_edge(AnnulusType.T3_3ii, SlopePair.prod(0, 1))) == []
        violations = validate_slopes(one_sloped_edge(AnnulusType.T3_3ii, SlopePair.prod(3, 2)))
        assert rules_of(violations) == {"trivial-slope-law"}

    def test_trivial_slope_with_twotwo_forces_ii(self):
        violations = validate_slopes(one_sloped_edge(
            AnnulusType.T3_3i, SlopePair.prod(0, 1), Edge("b", "x", "x", label=AnnulusType.T2_2)))
        assert rules_of(violations) == {"twotwo-coexistence-law"}
        assert validate_slopes(one_sloped_edge(AnnulusType.T3_3i, SlopePair.prod(0, 1))) == []

    def test_bigon_slopes_must_match(self):
        def bigon(s1, s2):
            return hub_graph(
                Edge("a", "x", "s", label=AnnulusType.T3_3i, slope=s1),
                Edge("b", "x", "s", label=AnnulusType.T3_3i, slope=s2),
                extra_nodes=("s",))

        good = bigon(SlopePair.prod(3, 2), SlopePair.prod(3, 2))
        assert validate_slopes(good) == []
        swapped = bigon(SlopePair.prod(3, 2), SlopePair.prod(2, 3))
        assert "bigon-slope-law" in rules_of(validate_slopes(swapped))
        small = bigon(SlopePair.prod(0, 1), SlopePair.prod(0, 1))
        assert "bigon-slope-law" in rules_of(validate_slopes(small))


class TestRealizabilityWarnings:
    @pytest.mark.parametrize("edges, expected", [
        ((Edge("a", "x", "s"), Edge("b", "x", "s")),
         ["bigon label combinations: not all are known to occur"]),
        ((Edge("a", "x", "s"), Edge("b", "x", "s"), Edge("c", "x", "x")),
         ["bigon-plus-edge shape: admissible, realizability unknown"]),
        ((Edge("a", "x", "s"), Edge("b", "x", "x")), []),
    ], ids=["bigon-only", "bigon-plus-edge", "no-bigon"])
    def test_exact_warnings(self, edges, expected):
        assert realizability_warnings(hub_graph(*edges, extra_nodes=("s",))) == expected


class TestTextFormat:
    SAMPLE = """
    # a bigon with slopes plus a loop
    node x ifibered
    node s seifert
    edge a x s label=3-3i slope=prod:3/2
    edge b x s label=3-3i slope=prod:3/2
    edge c x x
    """

    def test_parse(self):
        graph = parse_graph(self.SAMPLE)
        assert len(graph.nodes) == 2 and len(graph.edges) == 3
        assert graph.edges[0].slope == SlopePair.prod(3, 2)
        assert validate(graph) == []
        assert realizability_warnings(graph)

    @pytest.mark.parametrize("line", [
        "node x spinning",
        "edge a x",
        "edge a x y label=9-9",
        "edge a x y slope=prod:3",
        "flurb x y",
    ])
    def test_parse_errors(self, line):
        with pytest.raises(ValueError):
            parse_graph("node x simple\nnode y seifert\n" + line)

    @pytest.mark.parametrize("line, message", [
        ("edge a x y label=3-3i label=2-1", "line 3: repeated edge attribute 'label'"),
        ("edge a x y slope=prod:3/2 slope=prod:3/2", "line 3: repeated edge attribute 'slope'"),
        ("edge a x", "line 3: expected 'edge <id> <nodeA> <nodeB> "
                     "[label=<type>] [slope=<pair>]'"),
        ("edge a x y label=9-9", "line 3: '9-9' is not a valid AnnulusType"),
        ("edge a x y label", "line 3: '' is not a valid AnnulusType"),
        ("node x", "line 3: expected 'node <id> ifibered|seifert|simple'"),
        ("edge a x y slope=prod:3", "line 3: bad slope token 'prod:3': expected "
                                    "prod:p/q or recip:p/q with integers p, q"),
        ("edge a x y slope=prod:3/x", "line 3: bad slope token 'prod:3/x': expected "
                                      "prod:p/q or recip:p/q with integers p, q"),
        ("edge a x y slope=recip:a/2", "line 3: bad slope token 'recip:a/2': expected "
                                       "prod:p/q or recip:p/q with integers p, q"),
    ])
    def test_parse_error_messages(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_graph("node x simple\nnode y seifert\n" + line)
        assert str(info.value) == message

    @pytest.mark.parametrize("form", ["prod:{}/1", "prod:-{}/1", "recip:2/{}"])
    def test_slope_digit_budget(self, form):
        nodes = "node x simple\nnode y seifert\n"
        at_budget = "9" * DIGIT_BUDGET
        graph = parse_graph(nodes + "edge a x y slope=" + form.format(at_budget))
        assert str(graph.edges[0].slope) == form.format(at_budget)
        for digits in (at_budget + "9", "9" * 5000):
            with pytest.raises(ValueError,
                               match="^line 3: integers must have at most 640 digits$"):
                parse_graph(nodes + "edge a x y slope=" + form.format(digits))

    @given(st.lists(st.one_of(GRAPH_NODE_LINES, GRAPH_EDGE_LINES), max_size=5),
           st.lists(st.sampled_from(GRAPH_TOKENS), max_size=4).map(" ".join),
           st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_parse_graph(self, lines, noise, at):
        """Text over the file format's tokens parses to a graph that validates
        without raising, or is refused with ValueError."""
        lines.insert(at, noise)  # at most one line off the grammar
        text = "\n".join(lines)
        try:
            graph = parse_graph(text)
        except ValueError:
            return
        assert isinstance(validate(graph), list)
