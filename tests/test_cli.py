import dataclasses
import hashlib
import random
import re
import time
import xml.etree.ElementTree as ET

import pytest

from pmcut.cli import main
from pmcut.formula import (
    NaeFormula,
    ag23_formula,
    canonical_n3_formula,
    serialize_formula,
)
from pmcut.gadgets import build_variable_gadget
from pmcut.graphs import random_cubic_graph, serialize_graph
from pmcut.reduction import reduce_formula, serialize_provenance
from pmcut.render import render_dot, render_svg
from pmcut.solver import assignment_from_pmc, find_pmc

from _oracles import random_e4_formula_unfiltered


@pytest.fixture()
def n3_file(tmp_path):
    p = tmp_path / "n3.nae"
    p.write_text(serialize_formula(canonical_n3_formula()))
    return p


def test_validate_formula(n3_file, capsys):
    assert main(["validate-formula", str(n3_file)]) == 0
    assert capsys.readouterr().out == "valid nae3sat-e4 instance: n=3 m=4\n"


def test_validate_formula_bad_input(tmp_path, capsys):
    p = tmp_path / "bad.nae"
    for text, error in (("nae3sat-e4 3 4\n1 1 2\n1 2 3\n1 2 3\n1 2 3\n",
                         "line 2: clause literals must be distinct"),
                        ("# only\n# comments\n", "empty formula file"),
                        ("nae3sat-e4 x 4\n", "line 1: bad header numbers")):
        p.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["validate-formula", str(p)])
        assert exc.value.code == 65
        assert capsys.readouterr().err == f"error: {error}\n"


def test_missing_file_is_io_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate-formula", "/nonexistent/x.nae"])
    assert exc.value.code == 74


@pytest.mark.parametrize("command", ["validate-formula", "verify-graph"])
def test_undecodable_file_is_data_error(tmp_path, capsys, command):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64


def test_solve_nae(n3_file, tmp_path, capsys):
    assert main(["solve-nae", str(n3_file)]) == 0
    assert capsys.readouterr().out == "SAT ABA\n"
    unsat = tmp_path / "ag.nae"
    unsat.write_text(serialize_formula(ag23_formula()))
    assert main(["solve-nae", str(unsat)]) == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_reduce_solve_verify_pipeline(n3_file, tmp_path, capsys, canonical_artifact):
    out = tmp_path / "out"
    assert main(["reduce", str(n3_file), "--out", str(out)]) == 0
    graph_file = out / "n3.graph"
    prov_file = out / "n3.prov"
    # the texts test_reduction_outputs_pinned pins
    art = canonical_artifact
    assert graph_file.read_text() == serialize_graph(art.graph, art.embedding)
    assert prov_file.read_text() == serialize_provenance(art)
    capsys.readouterr()

    assert main(["verify-graph", str(graph_file)]) == 0
    assert capsys.readouterr().out == "cubic bipartite planar 3-connected: PASS\n"

    witness = tmp_path / "w.matching"
    cut = tmp_path / "w.cut"
    assert main(["solve-pmc", str(graph_file),
                 "--witness", str(witness), "--cut", str(cut)]) == 0
    assert capsys.readouterr().out == "perfect matching cut with 422 edges\n"
    assert witness.read_text().startswith("matching 422\n")
    assert cut.read_text().startswith("cut 422\n")

    # a witness path below a regular file cannot be written: an I/O error
    with pytest.raises(SystemExit) as exc:
        main(["solve-pmc", str(graph_file), "--witness", str(witness / "w.matching")])
    assert exc.value.code == 74
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_pmc_negative_and_budget(tmp_path, capsys):
    g = tmp_path / "k4.graph"
    g.write_text("graph 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["solve-pmc", str(g)]) == 1
    assert main(["solve-pmc", str(g), "--oracle"]) == 1

    n3 = tmp_path / "n3.nae"
    n3.write_text(serialize_formula(canonical_n3_formula()))
    out = tmp_path / "o"
    main(["reduce", str(n3), "--out", str(out)])
    capsys.readouterr()
    # the canonical reduction's first witness takes 2 search nodes
    assert main(["solve-pmc", str(out / "n3.graph"), "--budget", "1"]) == 2
    assert "budget" in capsys.readouterr().out

    # AG(2,3)'s reduction is refuted in exactly 16 search nodes
    ag = tmp_path / "ag23.nae"
    ag.write_text(serialize_formula(ag23_formula()))
    main(["reduce", str(ag), "--out", str(out)])
    capsys.readouterr()
    for budget, code, answer in (("16", 1, "no perfect matching cut\n"),
                                 ("15", 2, "budget exhausted\n")):
        assert main(["solve-pmc", str(out / "ag23.graph"), "--budget", budget]) == code
        assert capsys.readouterr().out == answer


def test_solve_pmc_failed_witness_check_is_internal_error(tmp_path, capsys, monkeypatch):
    q3 = tmp_path / "q3.graph"
    q3.write_text("graph 8 12\n0 1\n0 3\n0 4\n1 2\n1 5\n2 3\n2 6\n3 7\n4 5\n4 7\n5 6\n6 7\n")
    assert main(["solve-pmc", str(q3)]) == 0
    monkeypatch.setattr("pmcut.solver.cut_from_edge_set", lambda g, m: None)
    assert main(["solve-pmc", str(q3)]) == 70
    assert "RuntimeError" in capsys.readouterr().err


def test_failed_reduction_check_is_internal_error(n3_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pmcut.reduction.is_cubic", lambda g: False)
    for argv in (["reduce", str(n3_file), "--out", str(tmp_path / "o")],
                 ["render", str(n3_file), "--out", str(tmp_path / "r")],
                 ["roundtrip", str(n3_file)]):
        assert main(argv) == 70, argv
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: assembled graph is not cubic\n", argv


def test_verify_graph_without_embedding_block(n3_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reduce", str(n3_file), "--out", str(out)]) == 0
    text = (out / "n3.graph").read_text()
    plain = tmp_path / "plain.graph"
    plain.write_text(text[:text.index("embedding")])
    capsys.readouterr()
    assert main(["verify-graph", str(plain)]) == 0
    assert capsys.readouterr().out == "cubic bipartite 3-connected: PASS\n"


_TWO_TRIANGLES = "graph 6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
_TWO_TRIANGLES_EMBEDDED = _TWO_TRIANGLES + (
    "embedding\nrot 0 2 0 1\nrot 1 2 0 2\nrot 2 2 1 2\n"
    "rot 3 2 3 4\nrot 4 2 3 5\nrot 5 2 4 5\n")


def test_verify_graph_indented_comments_match_plain(n3_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reduce", str(n3_file), "--out", str(out)]) == 0
    plain = out / "n3.graph"
    commented = tmp_path / "commented.graph"
    commented.write_text("".join(f"{ln}\n    # indented note\n" for ln in plain.read_text().splitlines()))
    capsys.readouterr()
    results = []
    for p in (plain, commented):
        results.append((main(["verify-graph", str(p)]), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0


@pytest.mark.parametrize("text", [_TWO_TRIANGLES, _TWO_TRIANGLES_EMBEDDED],
                         ids=["plain", "embedded"])
def test_verify_graph_disconnected_is_fail(tmp_path, capsys, text):
    p = tmp_path / "two.graph"
    p.write_text(text)
    assert main(["verify-graph", str(p)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith(": FAIL")
    assert "3-connected: FAILED" in out


@pytest.mark.parametrize("command", ["verify-graph", "solve-pmc"])
@pytest.mark.parametrize("text", [
    "graph -1 0\n",
    "graph 2 1\n0 1\nembedding\nrot 0\n",
    "graph 2 1\n0 1\nembedding\nrot 5 1 0\n",
    "graph 3 2\n0 1 2\n1 2\n",
    "graph 3 3\n0 1\n1 2\n1 0\n",
    "graph 3 2\n0 1\n",
    "graph 3 2\n0 1\n1 2\nembedding\nrot 0 2 0\nrot 1 2 0 1\nrot 2 1 1\n",
], ids=["negative-count", "short-rot", "rot-vertex-out-of-range", "edge-three-fields",
        "reversed-twice", "truncated", "rot-degree-mismatch"])
def test_malformed_graph_file_is_data_error(tmp_path, capsys, command, text):
    p = tmp_path / "bad.graph"
    p.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert exc.value.code == 65
    assert capsys.readouterr().err.startswith("error: ")


# The path 0-1-2 (edge 0 is 0-1, edge 1 is 1-2) with one bad rotation each.
_PATH = "graph 3 2\n0 1\n1 2\nembedding\n"
_BAD_ROTATIONS = {
    "duplicate-edge": "rot 0 1 0\nrot 1 2 0 0\nrot 2 1 1\n",
    "edge-not-at-vertex": "rot 0 1 1\nrot 1 2 0 1\nrot 2 1 1\n",
    "empty-rotation": "rot 0 0\nrot 1 2 0 1\nrot 2 1 1\n",
    "negative-edge": "rot 0 1 -1\nrot 1 2 0 1\nrot 2 1 1\n",
    "edge-past-end": "rot 0 1 2\nrot 1 2 0 1\nrot 2 1 1\n",
}


@pytest.mark.parametrize("command", ["verify-graph", "solve-pmc"])
@pytest.mark.parametrize("case", sorted(_BAD_ROTATIONS))
def test_bad_rotation_file_is_data_error(tmp_path, capsys, command, case):
    p = tmp_path / "bad.graph"
    p.write_text(_PATH + _BAD_ROTATIONS[case])
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "permutation" in err and "Traceback" not in err


@pytest.mark.parametrize("text,line", [
    ("graph 3\n", "graph 3"),
    ("graph 3 x\n", "graph 3 x"),
    ("graph 3 2\n0 1 2\n1 2\n", "0 1 2"),
    ("graph 3 2\n0 1\n1\n", "1"),
    ("graph 3 2\n0 1\n0 x\n", "0 x"),
    (_PATH + "rot x 1 0\n", "rot x 1 0"),
    (_PATH + "rot 0 1 y\n", "rot 0 1 y"),
], ids=["short-header", "header-not-int", "edge-three-fields", "edge-one-field",
        "edge-not-int", "rot-vertex-not-int", "rot-edge-not-int"])
def test_malformed_graph_line_is_named(tmp_path, capsys, text, line):
    p = tmp_path / "bad.graph"
    p.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify-graph", str(p)])
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(line) in err
    assert "unpack" not in err and "invalid literal" not in err


@pytest.mark.parametrize("command", ["verify-graph", "solve-pmc"])
def test_repeated_rotation_is_data_error(tmp_path, capsys, command):
    p = tmp_path / "bad.graph"
    p.write_text(_PATH + "rot 0 1 0\nrot 0 1 0\nrot 1 2 0 1\nrot 2 1 1\n")
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert err == "error: rotation of vertex 0 listed twice\n"


# A valid E4 formula whose incidence graph is disconnected, which the
# reduction rejects, and one over the brute-force oracle's 24-variable guard,
# which the CLI's DPLL answers.
_REJECTED = NaeFormula(6, ((1, 2, 3),) * 4 + ((4, 5, 6),) * 4)
_TOO_LARGE = random_e4_formula_unfiltered(27, random.Random(1))
_EMPTY = NaeFormula(0, ())


@pytest.mark.parametrize("command,formula,code", [
    ("reduce", _REJECTED, 65),
    ("roundtrip", _REJECTED, 65),
    ("render", _REJECTED, 65),
    ("reduce", _EMPTY, 65),
    ("roundtrip", _EMPTY, 65),
    ("render", _EMPTY, 65),
    ("solve-nae", _TOO_LARGE, 0),
    ("roundtrip", _TOO_LARGE, 0),
], ids=["reduce-rejected", "roundtrip-rejected", "render-rejected",
        "reduce-empty", "roundtrip-empty", "render-empty",
        "solve-nae-too-large", "roundtrip-too-large"])
def test_exit_contract_without_traceback(tmp_path, capsys, command, formula, code):
    p = tmp_path / "f.nae"
    p.write_text(serialize_formula(formula))
    argv = [command, str(p)]
    if command in ("reduce", "render"):
        argv += ["--out", str(tmp_path / "out")]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert (err.startswith("error: ") and err.count("\n") == 1) if code else err == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve-pmc", "roundtrip"])
def test_negative_budget_is_usage_error(tmp_path, capsys, command):
    p = tmp_path / "in.txt"
    p.write_text("")
    with pytest.raises(SystemExit) as exc:
        main([command, str(p), "--budget", "-1"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.endswith("argument --budget: node budget must be >= 0, got -1\n")
    assert "Traceback" not in err


# Connected and cubic, but over the brute-force oracle's 24-vertex guard.
_CUBIC_26 = serialize_graph(random_cubic_graph(26, random.Random(26)))


@pytest.mark.parametrize("text,oracle,code", [
    (_TWO_TRIANGLES, False, 65),
    (_TWO_TRIANGLES, True, 65),
    (_CUBIC_26, True, 70),
], ids=["disconnected", "disconnected-oracle", "oracle-too-large"])
def test_solve_pmc_exit_contract(tmp_path, capsys, text, oracle, code):
    p = tmp_path / "g.graph"
    p.write_text(text)
    assert main(["solve-pmc", str(p)] + ["--oracle"] * oracle) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _torus_file(k: int) -> str:
    """k x k grid with wrap-around: 4-regular, k*k vertices."""
    edges = [(i * k + j, ((i + di) % k) * k + (j + dj) % k)
             for i in range(k) for j in range(k) for di, dj in ((1, 0), (0, 1))]
    return f"graph {k * k} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("text", [
    "graph 20002 20001\n" + "".join(f"{v} {v + 1}\n" for v in range(20001)),
    _torus_file(30),
], ids=["path-20002", "torus-30x30"])
def test_verify_graph_non_cubic_fails_fast(tmp_path, capsys, text):
    p = tmp_path / "g.graph"
    p.write_text(text)
    start = time.perf_counter()
    assert main(["verify-graph", str(p)]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "cubic: FAILED" in out and "3-connected: FAILED" in out


# A header with V > 2E leaves a vertex isolated and is refused before any
# vertex is allocated.
@pytest.mark.parametrize("command", ["verify-graph", "solve-pmc"])
@pytest.mark.parametrize("header", ["graph 20001 0", "graph 100000000 0"],
                         ids=["isolated-20001", "isolated-100000000"])
def test_isolated_vertex_header_is_data_error(tmp_path, capsys, command, header):
    p = tmp_path / "g.graph"
    p.write_text(header + "\n")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([command, str(p)])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(header) in err and "Traceback" not in err


def test_verify_gadgets(capsys):
    assert main(["verify-gadgets"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gadget variable census 1 expected 1 PASS",
        "gadget clause census 3 expected 3 PASS",
        "gadget crossing census 8 expected 8 PASS"]


def test_verify_gadgets_fails_on_a_wrong_forced_set(capsys, monkeypatch):
    good = build_variable_gadget()
    mutant = dataclasses.replace(good, red_edges=good.red_edges - {min(good.red_edges)})
    monkeypatch.setattr("pmcut.gadgets.build_variable_gadget", lambda: mutant)
    assert main(["verify-gadgets"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("gadget variable census 1 expected 1 FAIL ")
    assert lines[1:] == ["gadget clause census 3 expected 3 PASS",
                         "gadget crossing census 8 expected 8 PASS"]


def test_roundtrip_command(n3_file, tmp_path, capsys):
    assert main(["roundtrip", str(n3_file)]) == 0
    assert capsys.readouterr().out == "SAT=yes PMC=yes assignment NAE-valid\n"
    assert main(["roundtrip", str(n3_file), "--budget", "0"]) == 2
    assert capsys.readouterr().out == "budget exhausted\n"


def test_roundtrip_checks_that_the_witness_maps_invert(n3_file, capsys, monkeypatch):
    """A decoded assignment that is NAE-valid but rebuilds another perfect
    matching cut than the solver's fails the roundtrip."""
    art = reduce_formula(canonical_n3_formula())
    decoded = assignment_from_pmc(art, find_pmc(art.graph))
    other = next(a for a in ((0, 0, 1), (0, 1, 0), (1, 0, 0))
                 if decoded not in (a, tuple(1 - x for x in a)))
    monkeypatch.setattr("pmcut.solver.assignment_from_pmc", lambda art, m: other)
    assert main(["roundtrip", str(n3_file)]) == 1
    assert capsys.readouterr().out == "SAT=yes PMC=yes assignment INVALID\n"


def test_roundtrip_unsat_consistent(tmp_path, capsys):
    p = tmp_path / "ag.nae"
    p.write_text(serialize_formula(ag23_formula()))
    assert main(["roundtrip", str(p)]) == 0
    assert capsys.readouterr().out == "SAT=no PMC=no consistent\n"


def test_render_svg(n3_file, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["render", str(n3_file), "--format", "svg", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'n3.svg'}\n"
    svg = (out / "n3.svg").read_text()
    assert hashlib.sha256(svg.encode()).hexdigest() == RENDER_SHA256["n3"][0]
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    rects = root.findall(f".//{ns}rect")
    classes = [r.get("class") for r in rects]
    assert classes.count("variable") == 3
    assert classes.count("clause") == 4
    assert classes.count("crossing") == 18


def test_render_dot(n3_file, tmp_path, capsys, canonical_artifact):
    out = tmp_path / "r"
    assert main(["render", str(n3_file), "--format", "dot", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'n3.dot'}\n"
    dot = (out / "n3.dot").read_text()
    assert hashlib.sha256(dot.encode()).hexdigest() == RENDER_SHA256["n3"][1]
    assert dot.startswith("graph reduction {")
    assert dot.rstrip().endswith("}")
    # node and edge statements follow the plain DOT grammar
    assert re.search(r'^\s+"x1";$', dot, re.M)
    edge = re.compile(r'^\s+"[CxX]\d+" -- "[CxX]\d+" \[label="x\d+"\];$', re.M)
    assert len(edge.findall(dot)) == len(re.findall(r' -- ', dot))
    # one node per gadget, clauses, crossings, then variables, each ascending
    art = canonical_artifact
    nodes = re.findall(r'^\s+"(\w+)";$', dot, re.M)
    assert nodes == ([f"C{j}" for j in range(1, 5)] + [f"X{k}" for k in range(1, art.q + 1)]
                     + [f"x{i}" for i in range(1, 4)])
    # one edge line per connector, joining the gadgets that hold its ends
    gadget = {"variable": "x", "clause": "C", "crossing": "X"}
    name = [gadget[kind] + str(idx) for kind, idx, _ in art.vertex_info]
    assert edge.findall(dot) == [f'  "{name[u]}" -- "{name[v]}" [label="x{i}"];'
                                 for u, v, i in art.connectors]


def test_outputs_deterministic(n3_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["reduce", str(n3_file), "--out", str(out1)])
    main(["reduce", str(n3_file), "--out", str(out2)])
    assert (out1 / "n3.graph").read_text() == (out2 / "n3.graph").read_text()
    assert (out1 / "n3.prov").read_text() == (out2 / "n3.prov").read_text()
    main(["render", str(n3_file), "--format", "svg", "--out", str(out1)])
    main(["render", str(n3_file), "--format", "svg", "--out", str(out2)])
    assert (out1 / "n3.svg").read_text() == (out2 / "n3.svg").read_text()


# sha256 of render_svg and render_dot, both (svg, dot)
RENDER_SHA256 = {
    "n3": ("58c71db0a0db3f77050787fd2be071f358f7ced13b0543775a7a88bad7b1da9d",
           "d2e09c89a3002cabe5a88463e4fdfcbfdd1448ab5a2029a5de87440d45496899"),
    "ag23": ("315a74cb138bffe6866e30fcce311d2aa278b0da73333da60216be52c445fd28",
             "629727e2221df39f5d9dd20eb02d1dd8aad8f88ccd7222d9bc9777716c80e5c7"),
}


@pytest.mark.parametrize("name,formula", [("n3", canonical_n3_formula), ("ag23", ag23_formula)])
def test_render_outputs_pinned(name, formula):
    art = reduce_formula(formula())
    got = tuple(hashlib.sha256(render(art).encode()).hexdigest()
                for render in (render_svg, render_dot))
    assert got == RENDER_SHA256[name]
