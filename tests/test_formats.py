import pytest
from hypothesis import given

from graphsplice import ParseError, PlfGraph, cycle, double_edge, path
from graphsplice.formats import (
    parse_graph,
    parse_system,
    to_dot,
    write_graph,
    write_system,
)
from graphsplice.language import LanguageConfig, SplicingSystem
from graphsplice.splicing import make_rule
from conftest import plf_graphs


def test_parse_triangle():
    text = "plfg 1\norder 3\nedge 1 2\nedge 2 3\nedge 1 3\n"
    assert parse_graph(text) == cycle(3)


def test_parse_accumulates_multiplicity():
    text = "plfg 1\norder 2\nedge 1 2\nedge 1 2\n"
    assert parse_graph(text) == double_edge()


def test_parse_tolerates_comments_blanks_and_flipped_pairs():
    text = """plfg 1
# a triangle
order 3

edge 2 1   # flipped on purpose
edge 3 2
edge 1 3
"""
    assert parse_graph(text) == cycle(3)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\norder 3\nedge 1 1\n")
    assert err.value.line == 3
    assert "loop" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\norder 3\nedge 1 4\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\n# pad\nwobble 3\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\nedge 1 2\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\norder 2\norder 2\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_graph("plfg 1\norder -1\n")
    assert err.value.line == 2


def test_parse_requires_header():
    with pytest.raises(ParseError):
        parse_graph("order 3\n")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("plfg 2\norder 1\n")


def test_parse_requires_order():
    with pytest.raises(ParseError):
        parse_graph("plfg 1\n# nothing else\n")


def test_write_is_normalized():
    g = PlfGraph(3, ((3, 1), (2, 3), (1, 2)))
    assert write_graph(g) == (
        "plfg 1\norder 3\nedge 1 2\nedge 1 3\nedge 2 3\n"
    )


def test_write_with_comment():
    text = write_graph(path(2), comment="one edge\ntwo vertices")
    assert text.startswith("plfg 1\n# one edge\n# two vertices\n")
    assert parse_graph(text) == path(2)


@given(plf_graphs())
def test_graph_roundtrip(g):
    assert parse_graph(write_graph(g)) == g


@given(plf_graphs())
def test_write_is_a_fixpoint(g):
    once = write_graph(g)
    assert write_graph(parse_graph(once)) == once


def test_system_roundtrip():
    system = SplicingSystem(
        (cycle(3), cycle(4)),
        (make_rule((1, 2), (2, 3)), make_rule((2, 2), (1, 1))),
    )
    config = LanguageConfig(max_iterations=3, max_order=9)
    text = write_system(system, config)
    parsed_system, parsed_config = parse_system(text)
    assert parsed_system == system
    assert parsed_config == config


def test_system_defaults():
    text = "plfs 1\naxiom 3 : 1-2 2-3 1-3\nrule 1,2 : 2,3\n"
    system, config = parse_system(text)
    assert system.axioms == (cycle(3),)
    assert config == LanguageConfig(max_iterations=4, max_order=8)


def test_system_allows_edgeless_axiom():
    text = "plfs 1\naxiom 2 :\nrule 1,2 : 1,2\n"
    system, _ = parse_system(text)
    assert system.axioms == (PlfGraph(2, ()),)


def test_system_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\naxiom 3 1-2\nrule 1,2 : 2,3\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\naxiom 2 : 1-2\nrule 1,2 ; 1,2\n")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\naxiom 2 : 1-2\nrule 0,1 : 1,2\n")
    assert err.value.line == 3

    # a multigraph axiom violates system rules, not syntax, but still
    # surfaces as a parse error with the offending line
    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\naxiom 2 : 1-2 1-2\nrule 1,2 : 1,2\n")
    assert "simple" in str(err.value) or "repeated" in str(err.value)
    assert err.value.line == 2

    # so does a cap below its least value
    with pytest.raises(ParseError, match="max_order must be >= 1") as err:
        parse_system("plfs 1\naxiom 2 : 1-2\nmax-order 0\nrule 1,2 : 1,2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="max_iterations must be >= 0") as err:
        parse_system("plfs 1\naxiom 2 : 1-2\nrule 1,2 : 1,2\nmax-iterations -1\n")
    assert err.value.line == 4

    # errors of the system as a whole have no line of their own
    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\nrule 1,2 : 1,2\n")
    assert err.value.line is None

    with pytest.raises(ParseError) as err:
        parse_system("plfs 1\naxiom 9 :\nrule 1,2 : 1,2\nmax-order 5\n")
    assert err.value.line is None


@pytest.mark.parametrize("directive", ["max-order", "max-iterations"])
def test_system_rejects_a_repeated_cap(directive):
    text = (f"plfs 1\naxiom 3 : 1-2 2-3 1-3\nrule 1,2 : 2,3\n"
            f"{directive} 8\n# pad\n{directive} 4\n")
    with pytest.raises(ParseError, match=f"duplicate {directive} directive") as err:
        parse_system(text)
    assert err.value.line == 6


def test_dot_pins_positions():
    text = to_dot(path(3))
    assert text == (
        "graph plf {\n"
        "  node [shape=circle];\n"
        '  1 [pos="1,0!"];\n'
        '  2 [pos="2,0!"];\n'
        '  3 [pos="3,0!"];\n'
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "}\n"
    )


def test_dot_repeats_parallel_edges():
    text = to_dot(double_edge())
    assert text.count("1 -- 2;") == 2
