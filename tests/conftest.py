"""Shared strategies, the child-process environment and the acceptance
summary hook."""

import os
from pathlib import Path

from hypothesis import strategies as st

import graphsplice
from graphsplice import PlfGraph

# acceptance tests append (criterion number, label, passed, detail) here;
# the terminal summary prints one line per criterion after the test run
ACCEPTANCE_RESULTS = []


def child_env():
    """The environment for a child `python -m graphsplice`: PYTHONPATH
    starts with the src directory of the package these tests import, so
    the child runs the same code from a plain checkout."""
    src = str(Path(graphsplice.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def edge_pairs(order):
    return st.tuples(
        st.integers(min_value=1, max_value=order),
        st.integers(min_value=1, max_value=order),
    ).filter(lambda e: e[0] != e[1])


@st.composite
def plf_graphs(draw, min_order=1, max_order=6, max_edges=12, simple=False):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    if order <= 1:
        return PlfGraph(order, ())
    edges = draw(st.lists(edge_pairs(order), max_size=max_edges))
    if simple:
        seen = {tuple(sorted(e)) for e in edges}
        edges = sorted(seen)
    return PlfGraph(order, tuple(edges))


@st.composite
def graph_with_gap_rule(draw, min_order=2, max_order=6):
    g = draw(plf_graphs(min_order=min_order, max_order=max_order))
    i = draw(st.integers(min_value=1, max_value=g.order - 1))
    return g, i


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number:02d} {label}: {verdict}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
