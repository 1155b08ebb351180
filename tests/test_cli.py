import hashlib
import inspect
import json
import resource
import subprocess
import sys
import time

import pytest

import graphsplice.graphs as graphs_module
from graphsplice import PlfGraph, complete, cycle, path, to_plf
from graphsplice import analysis, cli, splicing
from graphsplice.cli import main
from graphsplice.formats import parse_graph, write_graph
from conftest import child_env


@pytest.fixture
def k5_file(tmp_path):
    target = tmp_path / "k5.plfg"
    assert main(["gen", "complete", "5", "--out", str(target)]) == 0
    return target


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_writes_parseable_file(k5_file):
    g = parse_graph(k5_file.read_text())
    assert g.order == 5
    assert g.size == 10


def test_gen_to_stdout(capsys):
    code, out = run_cli(capsys, "gen", "cycle", "3")
    assert code == 0
    assert parse_graph(out) == cycle(3)


def test_gen_bipartite_takes_two_params(capsys):
    code, out = run_cli(capsys, "gen", "bipartite", "2", "2")
    assert code == 0
    assert parse_graph(out).size == 4


def test_gen_arity_error(capsys):
    assert main(["gen", "bipartite", "2"]) == 2


def test_gen_domain_error(capsys):
    assert main(["gen", "cycle", "2"]) == 2


@pytest.mark.parametrize("argv", [["complete", "100000"],
                                  ["bipartite", "1000", "1000"]])
def test_gen_order_cap(capsys, monkeypatch, argv):
    built = []
    for kind, (_, arity) in list(cli._GENERATORS.items()):
        monkeypatch.setitem(cli._GENERATORS, kind,
                            (lambda *p: built.append(p), arity))
    assert main(["gen", *argv]) == 4
    assert "exceeds cap" in capsys.readouterr().err
    assert built == []


def test_gen_at_the_order_cap(capsys):
    n = cli.GEN_ORDER_CAP
    code, out = run_cli(capsys, "gen", "path", str(n))
    assert code == 0
    assert parse_graph(out).order == n
    assert main(["gen", "path", str(n + 1)]) == 4


def test_cut_k5_payload(capsys, k5_file):
    code, out = run_cli(capsys, "cut", "--rule", "2,3", str(k5_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["power"] == 6
    assert payload["power_formula_left"] == 6
    assert payload["power_formula_right"] == 6
    assert payload["vcut"] is None
    assert payload["ecut"] == [
        [1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5],
    ]
    assert payload["prefix"]["intact"] == [[1, 2]]
    assert payload["suffix"]["intact"] == [[3, 4], [3, 5], [4, 5]]
    assert payload["prefix"]["half_vertex"] is None
    assert [h["anchor"] for h in payload["suffix"]["hanging"]] == [3, 4, 5, 3, 4, 5]


def test_cut_reflexive_payload(capsys, tmp_path):
    target = tmp_path / "p3.plfg"
    main(["gen", "path", "3", "--out", str(target)])
    code, out = run_cli(capsys, "cut", "--rule", "2,2", str(target))
    assert code == 0
    payload = json.loads(out)
    assert payload["vcut"] == 2
    assert payload["power"] == 0
    assert payload["power_formula_left"] is None
    assert payload["prefix"]["half_vertex"] == 2


# sha256 of `graphsplice cut` stdout.  The payload spells out each
# hanging edge's origin, instance, anchor and side, so these pin every
# field of every hanging edge, parallel copies included.
CUT_SHA256 = {
    "k5-2,3": "a67c840cc7fee9284041de9d5c3ee503e8951d005fdcc01d1806484fb0005511",
    "doubled-2,2": "b0522b5132965fc0efc0f7907fd60f636e30b3992ed5a3f27103dd9d82e11c11",
    "c4-1,1": "8f39d7098ed020648dff9edea384d56bd20be45c56387f6a7787ad8d38a9ec21",
}
CUT_INPUTS = {
    "k5-2,3": complete(5),
    # the spanning edge (1,3) twice: both copies cross the split vertex 2
    "doubled-2,2": PlfGraph(3, ((1, 3), (1, 3))),
    "c4-1,1": cycle(4),
}


@pytest.mark.parametrize("case", sorted(CUT_SHA256))
def test_cut_output_bytes_are_pinned(capsys, tmp_path, case):
    target = tmp_path / "g.plfg"
    target.write_text(write_graph(CUT_INPUTS[case]))
    code, out = run_cli(capsys, "cut", "--rule", case.split("-")[1], str(target))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CUT_SHA256[case]
    if case == "doubled-2,2":
        payload = json.loads(out)
        for side in ("prefix", "suffix"):
            assert [h["instance"] for h in payload[side]["hanging"]] == [0, 1]
            assert [h["origin"] for h in payload[side]["hanging"]] == [[1, 3], [1, 3]]


def test_cut_numbers_parallel_copies_in_one_pass(capsys, tmp_path):
    # 40,000 copies of one edge, every one severed: counting each copy's
    # instance over the copies before it is quadratic and took 53 s on a
    # 2-core host with Python 3.11, where one pass takes about 2 s
    copies = 40_000
    target = tmp_path / "parallel.plfg"
    target.write_text(write_graph(PlfGraph(2, ((1, 2),) * copies)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "cut", "--rule", "1,2", str(target))
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    for side in ("prefix", "suffix"):
        assert [h["instance"] for h in payload[side]["hanging"]] == list(range(copies))
    assert elapsed < 15


def test_cut_bad_rule_exit_codes(capsys, k5_file):
    assert main(["cut", "--rule", "9,9", str(k5_file)]) == 2
    assert main(["cut", "--rule", "2:3", str(k5_file)]) == 2
    assert main(["cut", "--rule", "a,b", str(k5_file)]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["cut", "--rule", "1,2", "no-such-file.plfg"]) == 2


def test_unparseable_file_exit(capsys, tmp_path):
    bad = tmp_path / "bad.plfg"
    bad.write_text("plfg 1\norder 2\nedge 1 1\n")
    assert main(["cut", "--rule", "1,2", str(bad)]) == 3


@pytest.mark.parametrize("directive", ["max-order", "max-iterations"])
def test_repeated_cap_in_a_system_file_exits_3(capsys, tmp_path, directive):
    system = tmp_path / "twice.plfs"
    system.write_text("plfs 1\naxiom 3 : 1-2 2-3 1-3\nrule 1,2 : 2,3\n"
                      f"{directive} 8\n{directive} 4\n")
    assert main(["lang", str(system)]) == 3
    assert capsys.readouterr().err == \
        f"error: line 5: duplicate {directive} directive\n"


def _unreadable_inputs(tmp_path):
    """(argv, exit code) pairs: a directory given as a system file, a
    graph file that is not text, and an --out path that is a directory."""
    binary = tmp_path / "utf16.plfg"
    binary.write_bytes(b"\xff\xfep\x00l\x00f\x00g\x00")
    return [
        (["lang", str(tmp_path)], 2),
        (["iso", str(binary), str(binary)], 3),
        (["gen", "cycle", "3", "--out", str(tmp_path)], 2),
    ]


def test_unreadable_files_are_reported_not_raised(capsys, tmp_path):
    for argv, code in _unreadable_inputs(tmp_path):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_files_print_no_traceback(tmp_path):
    for argv, code in _unreadable_inputs(tmp_path)[:2]:
        proc = subprocess.run(
            [sys.executable, "-m", "graphsplice", *argv],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_verify_cap_exit(capsys):
    assert main(["verify", "--max-order", "8",
                 "--theorem", "power-formula"]) == 4


def test_verify_all_cap_exit(capsys):
    # every check at once refuses an order past the enumeration cap
    assert main(["verify", "--max-order", "7"]) == 4
    assert capsys.readouterr().err == "error: sweep order 7 exceeds cap 6\n"


@pytest.mark.parametrize("check_id",
                         [i for ids, _run in analysis.CHECKS for i in ids])
def test_verify_theorem_cap_exit(capsys, check_id):
    # one check alone, a fixed-witness check included, is refused as
    # every check at once is, before any work
    assert main(["verify", "--theorem", check_id, "--max-order", "7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep order 7 exceeds cap 6\n"


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_splice_products_and_files(capsys, tmp_path):
    c3 = tmp_path / "c3.plfg"
    c4 = tmp_path / "c4.plfg"
    outdir = tmp_path / "products"
    outdir.mkdir()
    main(["gen", "cycle", "3", "--out", str(c3)])
    main(["gen", "cycle", "4", "--out", str(c4)])
    code, out = run_cli(
        capsys, "splice", "--rule", "1,2:2,3",
        "--out", str(outdir), str(c3), str(c4),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [r["direction"] for r in payload["products"]] == [1, 1, 2, 2]
    files = sorted(outdir.iterdir())
    assert [f.name for f in files] == [
        "product-001.plfg", "product-002.plfg",
        "product-003.plfg", "product-004.plfg",
    ]
    first = parse_graph(files[0].read_text())
    assert first.order == 3
    assert "direction 1" in files[0].read_text()


def test_splice_creates_missing_out_directory(capsys, tmp_path):
    c3 = tmp_path / "c3.plfg"
    main(["gen", "cycle", "3", "--out", str(c3)])
    outdir = tmp_path / "nested" / "products"
    code, out = run_cli(
        capsys, "splice", "--rule", "1,2:2,3",
        "--out", str(outdir), str(c3), str(c3),
    )
    assert code == 0
    assert json.loads(out)["count"] == 4
    names = sorted(f.name for f in outdir.iterdir())
    assert names == [
        "product-001.plfg", "product-002.plfg",
        "product-003.plfg", "product-004.plfg",
    ]


def test_splice_single_direction(capsys, tmp_path):
    c3 = tmp_path / "c3.plfg"
    main(["gen", "cycle", "3", "--out", str(c3)])
    for direction, number in (("first", 1), ("second", 2)):
        code, out = run_cli(
            capsys, "splice", "--rule", "1,2:2,3",
            "--direction", direction, str(c3), str(c3),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert [r["direction"] for r in payload["products"]] == [number, number]
        assert [r["bijection"] for r in payload["products"]] == [[0, 1], [1, 0]]
        assert [r["index"] for r in payload["products"]] == [1, 2]


# sha256 of `graphsplice splice` stdout: every product's direction,
# bijection, rule, order and edges, in output order
SPLICE_SHA256 = {
    "c3-c4-1,2:2,3-both":
        "51c8ce2892a558b380b56e8f38c6044bf84583954e1a867de7d750b1e02ae06e",
    # power 4, so 2(4!) = 48 products
    "k4-k4-2,3:2,3-both":
        "6b7b97b8a469f1a1bc7adb51b230ce269c2381aa41ed6b24e45abb03331d8400",
    "c4-c4-2,2:3,3-second":
        "1ab2c2fea452efc11c315f8ac7f2d5278d13c51dac2e0a38418e7cdb4da77c50",
}
SPLICE_INPUTS = {"c3": cycle(3), "c4": cycle(4), "k4": complete(4)}


@pytest.mark.parametrize("case", sorted(SPLICE_SHA256))
def test_splice_output_bytes_are_pinned(capsys, tmp_path, case):
    first, second, rule, direction = case.split("-")
    files = []
    for name in (first, second):
        target = tmp_path / f"{name}.plfg"
        target.write_text(write_graph(SPLICE_INPUTS[name]))
        files.append(str(target))
    code, out = run_cli(capsys, "splice", "--rule", rule,
                        "--direction", direction, *files)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SPLICE_SHA256[case]


def test_splice_power_cap_exit(capsys, monkeypatch, tmp_path):
    # K4 cut at [1,2] or [3,4] severs three edges; join refuses them
    # before it enumerates a bijection or builds a product
    def never(*args):
        raise AssertionError("join went past its cap check")

    # join builds each product as tuple.__new__(PlfGraph, ...), which
    # raises TypeError when a function stands in for the class
    monkeypatch.setattr(splicing, "SPLICE_POWER_CAP", 2)
    monkeypatch.setattr(splicing, "permutations", never)
    monkeypatch.setattr(splicing, "PlfGraph", never)
    k4 = tmp_path / "k4.plfg"
    main(["gen", "complete", "4", "--out", str(k4)])
    assert main(["splice", "--rule", "1,2:3,4", str(k4), str(k4)]) == 4
    assert "splice power 3 exceeds cap 2" in capsys.readouterr().err


def test_splice_inapplicable_rule_exit(capsys, tmp_path):
    c3 = tmp_path / "c3.plfg"
    main(["gen", "cycle", "3", "--out", str(c3)])
    assert main(["splice", "--rule", "1,2:1,1", str(c3), str(c3)]) == 2


def test_lang_runs_the_worked_example(capsys, tmp_path):
    system = tmp_path / "two-cycles.plfs"
    system.write_text(
        "plfs 1\n"
        "axiom 3 : 1-2 2-3 1-3\n"
        "axiom 4 : 1-2 2-3 3-4 1-4\n"
        "rule 1,2 : 2,3\n"
        "max-iterations 1\n"
        "max-order 8\n"
    )
    code, out = run_cli(capsys, "lang", str(system))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 4
    assert payload["trace"][1]["raw_products"] == 16
    assert payload["saturated"] is False


def test_lang_output_is_byte_identical(capsys, tmp_path):
    system = tmp_path / "seed.plfs"
    system.write_text("plfs 1\naxiom 3 : 1-2 2-3 1-3\nrule 1,2 : 2,3\n")
    code_a, out_a = run_cli(capsys, "lang", str(system))
    code_b, out_b = run_cli(capsys, "lang", str(system))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_lang_power_cap_exit(capsys, tmp_path):
    # the star K_{1,9} centred at position 1 cut at [1,2] severs all nine
    # edges, one more than SPLICE_POWER_CAP
    system = tmp_path / "star.plfs"
    spokes = " ".join(f"1-{v}" for v in range(2, 11))
    system.write_text(f"plfs 1\naxiom 10 : {spokes}\nrule 1,2 : 1,2\n"
                      "max-order 10\n")
    assert main(["lang", str(system)]) == 4
    assert "splice power 9 exceeds cap 8" in capsys.readouterr().err


def test_lang_search_deeper_than_the_stack_exits_4(capsys, tmp_path):
    # a valid system whose one axiom is a matching just below the
    # recursion limit: its canonical search recurses once per edge but
    # the last, more levels than the 25 frames left on the stack
    small = tmp_path / "small.plfs"
    small.write_text("plfs 1\naxiom 2 : 1-2\nrule 1,2 : 1,2\n")
    assert main(["lang", str(small)]) == 0  # argparse compiles its patterns
    capsys.readouterr()
    limit = sys.getrecursionlimit()
    low_limit = len(inspect.stack(0)) + 25
    edges = (low_limit - 1) // 2
    order = 2 * edges
    system = tmp_path / "deep.plfs"
    matching = " ".join(f"{2 * i - 1}-{2 * i}" for i in range(1, edges + 1))
    system.write_text(f"plfs 1\naxiom {order} : {matching}\nrule 1,2 : 1,2\n"
                      f"max-order {order}\n")
    graphs_module._canon_cached.cache_clear()
    sys.setrecursionlimit(low_limit)
    try:
        code = main(["lang", str(system)])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: canonical form of order {order} is deeper than the interpreter's stack\n")


@pytest.mark.parametrize("command, files, text, order", [
    ("lang", 1, "plfs 1\naxiom 100000 :\nrule 1,2 : 1,2\nmax-order 100000\n",
     100000),
    ("iso", 2, "plfg 1\norder 1000000000\n", 1000000000),
], ids=["lang", "iso"])
def test_lang_order_past_the_stack_exits_4_at_once(tmp_path, command, files,
                                                   text, order):
    # lang's search for this axiom would first build a 100000-by-100000
    # matrix (about 80 GB), and a degree list as long as the order of these
    # two edgeless graphs would take tens of GB before iso's search; the
    # child's address space is capped at 1 GB, so a command that starts
    # building either dies of MemoryError instead of exhausting the machine
    source = tmp_path / "huge"
    source.write_text(text)
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "graphsplice", command, *[str(source)] * files],
        capture_output=True, text=True, env=child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (f"error: canonical form of order {order} is deeper "
                           "than the interpreter's stack\n")


def test_cut_of_a_huge_order_exits_4_at_once(tmp_path):
    # the power formulas of this 24-byte file would build a degree
    # profile as long as its order, tens of GB; the child's address space
    # is capped at 1 GB, so building it dies of MemoryError (exit 1)
    # instead of exhausting the machine
    source = tmp_path / "huge.plfg"
    source.write_text("plfg 1\norder 1000000000\n")
    assert source.stat().st_size == 24
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "graphsplice", "cut", "--rule", "1,2",
         str(source)],
        capture_output=True, text=True, env=child_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == ("error: order 1000000000 exceeds the power-formula "
                           "cap 1000000\n")


def test_iso_at_the_recursion_limit_exits_4(capsys, tmp_path):
    # two edgeless graphs pass the order, size and degree checks, so iso
    # asks for their canonical forms, which are refused at this order
    order = sys.getrecursionlimit()
    first, second = tmp_path / "a.plfg", tmp_path / "b.plfg"
    for target in (first, second):
        target.write_text(write_graph(PlfGraph(order)))
    assert main(["iso", str(first), str(second)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: canonical form of order {order} is deeper than the interpreter's stack\n")


def test_verify_single_check_passes(capsys):
    code, out = run_cli(capsys, "verify", "--max-order", "4",
                        "--theorem", "power-formula")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check"] == "power-formula"
    assert reports[0]["status"] == "verified"


def test_verify_reports_known_violation(capsys):
    # the blanket regularity claim fails on reflexive pairs, so the
    # exit code surfaces it
    code, out = run_cli(capsys, "verify", "--max-order", "3",
                        "--theorem", "regularity-preservation")
    assert code == 1
    reports = json.loads(out)
    assert reports[0]["status"] == "violated"
    assert reports[0]["extras"]["gap_rule_violations"] == 0


def test_verify_rejects_max_order_below_one(capsys):
    for argv in (["--max-order", "0"],
                 ["--max-order", "-3", "--theorem", "power-formula"]):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-order must be at least 1" in captured.err


def test_verify_rejects_negative_max_power(capsys):
    assert main(["verify", "--theorem", "order-bound", "--max-order", "2",
                 "--max-power", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-power must be at least 0" in captured.err


def test_verify_unknown_check(capsys):
    assert main(["verify", "--theorem", "flat-earth"]) == 2


@pytest.fixture(scope="module")
def reports_at_order_3():
    return {r.check_id: r for r in analysis.verify_all(3, 3)}


@pytest.mark.parametrize("check_id",
                         [i for ids, _run in analysis.CHECKS for i in ids])
def test_verify_theorem_matches_verify_all(capsys, reports_at_order_3, check_id):
    code, out = run_cli(capsys, "verify", "--theorem", check_id,
                        "--max-order", "3")
    report = reports_at_order_3[check_id]
    assert code == (0 if report.ok else 1)
    assert json.loads(out) == json.loads(json.dumps([report.to_dict()]))


@pytest.mark.parametrize("check_id", ["noncommutativity",
                                      "regularity-preservation",
                                      "kn-degree-symmetry",
                                      "simplicity-nonclosure"])
def test_witness_checks_run_without_the_law_sweep(capsys, monkeypatch, check_id):
    def no_sweep(*args):
        raise AssertionError("the law sweep ran")

    monkeypatch.setattr(analysis, "check_splice_theorems", no_sweep)
    code, out = run_cli(capsys, "verify", "--theorem", check_id)
    [report] = json.loads(out)
    assert report["check"] == check_id
    assert code == (1 if check_id == "regularity-preservation" else 0)


def test_iso_verdicts(capsys, tmp_path):
    a = tmp_path / "a.plfg"
    b = tmp_path / "b.plfg"
    a.write_text(write_graph(cycle(3)))
    b.write_text(write_graph(to_plf(3, cycle(3).edges, (2, 3, 1))))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": True}

    b.write_text(write_graph(cycle(4)))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": False}


def test_iso_on_edgeless_order_10(capsys, tmp_path):
    a = tmp_path / "a.plfg"
    b = tmp_path / "b.plfg"
    a.write_text(write_graph(PlfGraph(10, ())))
    b.write_text(write_graph(PlfGraph(10, ())))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": True}


def test_iso_above_order_10(capsys, tmp_path):
    a = tmp_path / "a.plfg"
    b = tmp_path / "b.plfg"
    a.write_text(write_graph(cycle(16)))
    b.write_text(write_graph(to_plf(16, cycle(16).edges,
                                    (5, 12, 1, 9, 16, 3, 14, 7, 2, 11, 8, 15, 4, 10, 13, 6))))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": True}

    # C8 + C8 has the order, size and degrees of C16
    two_c8 = PlfGraph(16, cycle(8).edges + tuple((u + 8, v + 8) for u, v in cycle(8).edges))
    b.write_text(write_graph(two_c8))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": False}

    b.write_text(write_graph(cycle(11)))
    code, out = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": False}


def test_iso_search_budget_exit(capsys, monkeypatch, tmp_path):
    a = tmp_path / "a.plfg"
    b = tmp_path / "b.plfg"
    a.write_text(write_graph(cycle(10)))
    b.write_text(write_graph(to_plf(10, cycle(10).edges,
                                    (2, 4, 6, 8, 10, 1, 3, 5, 7, 9))))
    graphs_module._canon_cached.cache_clear()
    monkeypatch.setattr(graphs_module, "CANON_NODE_BUDGET", 2)
    assert main(["iso", str(a), str(b)]) == 4
    assert "search nodes" in capsys.readouterr().err


def test_export_dot(capsys, tmp_path):
    c3 = tmp_path / "c3.plfg"
    main(["gen", "cycle", "3", "--out", str(c3)])
    code, out = run_cli(capsys, "export-dot", str(c3))
    assert code == 0
    assert '2 [pos="2,0!"];' in out
    assert "1 -- 3;" in out


def test_export_dot_order_cap(capsys, tmp_path):
    # a 25-byte file would otherwise make a DOT text of gigabytes
    huge = tmp_path / "huge.plfg"
    huge.write_text("plfg 1\norder 1000000000\n")
    out = tmp_path / "huge.dot"
    assert main(["export-dot", str(huge), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert f"exceeds the export-dot cap {cli.GEN_ORDER_CAP}" in captured.err
    assert captured.out == ""
    assert not out.exists()
    at_cap = tmp_path / "at-cap.plfg"
    at_cap.write_text(f"plfg 1\norder {cli.GEN_ORDER_CAP}\n")
    code, text = run_cli(capsys, "export-dot", str(at_cap))
    assert code == 0
    assert f'{cli.GEN_ORDER_CAP} [pos="{cli.GEN_ORDER_CAP},0!"];' in text


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "graphsplice", "gen", "cycle", "4"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert parse_graph(proc.stdout) == cycle(4)
