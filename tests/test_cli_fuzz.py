"""Generated formula, graph, matching and cut files, fed through the command
line and the file parsers.

The exit-code contract holds for every input: the code is one of those the
CLI documents, and stderr never holds a traceback.  None of the commands run
here has a size guard, so no input may exit 70 either.  Generated files are
either token soup under a well-formed header or a valid file with a few
lines edited.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcut.cli import main
from pmcut.formula import canonical_n3_formula, random_e4_formula, serialize_formula
from pmcut.graphs import (
    cube_graph,
    cut_from_edge_set,
    parse_cut,
    parse_matching,
    random_cubic_graph,
    serialize_cut,
    serialize_graph,
    serialize_matching,
)
from pmcut.solver import find_pmc

from _oracles import planar_rotation_from_coords

EXIT_CODES = {0, 1, 2, 64, 65, 70, 74}
MAX_COUNT = 64

_TOKENS = st.one_of(
    st.integers(-2, MAX_COUNT + 2).map(str),
    st.sampled_from(["", "x", "#", "1.5", "-0", "+3", "0x10", "٣", "\t",
                     "nae3sat-e4", "graph", "embedding", "rot", "matching", "cut"]),
)
_LINES = st.lists(_TOKENS, max_size=5).map(" ".join)
_COUNT = st.integers(0, MAX_COUNT)
_VERTEX_COUNT = st.one_of(_COUNT, st.integers(0, 10 ** 12))

_CUBE = cube_graph()
_CUBE_EMBEDDING = planar_rotation_from_coords(
    _CUBE, [(2, 2), (-2, 2), (-2, -2), (2, -2), (1, 1), (-1, 1), (-1, -1), (1, -1)])
_CUBE_PMC = find_pmc(_CUBE)


def _seeded_formula(n, seed):
    if n == 3:
        return canonical_n3_formula()
    return random_e4_formula(n, random.Random(seed))


_SEEDED_FORMULAS = st.builds(_seeded_formula, st.sampled_from(range(3, 31, 3)),
                             st.integers(0, 2 ** 16))


def _soup(keyword, *counts):
    """A header with counts drawn from the given strategies, then lines of
    arbitrary tokens."""
    header = st.tuples(*counts).map(
        lambda ks: " ".join([keyword, *map(str, ks)]))
    return st.builds(lambda h, body: "\n".join([h, *body]) + "\n",
                     header, st.lists(_LINES, max_size=12))


@st.composite
def _edited(draw, valid_texts):
    """A valid file with up to three lines deleted, repeated, replaced or
    inserted."""
    lines = draw(valid_texts).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["delete", "repeat", "replace", "insert"]))
        if edit == "insert" or k == len(lines):
            lines.insert(k, draw(_LINES))
        elif edit == "delete":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        else:
            words = lines[k].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(_TOKENS)
            lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


_VALID_GRAPHS = st.one_of(
    st.just(serialize_graph(_CUBE, _CUBE_EMBEDDING)),
    st.builds(lambda n, seed: serialize_graph(random_cubic_graph(n, random.Random(seed))),
              st.sampled_from(range(4, 21, 2)), st.integers(0, 2 ** 16)),
)
_FORMULA_TEXTS = st.one_of(_soup("nae3sat-e4", _COUNT, _COUNT),
                           _edited(_SEEDED_FORMULAS.map(serialize_formula)))
_GRAPH_TEXTS = st.one_of(_soup("graph", _VERTEX_COUNT, _COUNT), _edited(_VALID_GRAPHS))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(path, text, command, *options):
    """Exit code and stderr of one CLI call on a file holding text."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, str(path), *options])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check_contract(code, err):
    assert code in EXIT_CODES
    assert code != 70, err
    assert "Traceback" not in err
    if code not in (0, 1, 2):
        assert err.startswith("error: ") and err.count("\n") == 1, err


@given(_FORMULA_TEXTS, st.sampled_from(["validate-formula", "solve-nae"]))
@settings(max_examples=150, deadline=None)
def test_formula_files_keep_the_exit_contract(workdir, text, command):
    _check_contract(*_run(workdir / "f.nae", text, command))


@given(_GRAPH_TEXTS, st.sampled_from(["verify-graph", "solve-pmc"]))
@settings(max_examples=150, deadline=None)
def test_graph_files_keep_the_exit_contract(workdir, text, command):
    options = ("--budget", "2000") if command == "solve-pmc" else ()
    _check_contract(*_run(workdir / "g.graph", text, command, *options))


@given(_SEEDED_FORMULAS, st.sampled_from(["validate-formula", "solve-nae"]))
@settings(max_examples=30, deadline=None)
def test_seeded_formulas_are_answered(workdir, f, command):
    code, err = _run(workdir / "f.nae", serialize_formula(f), command)
    assert code in ((0,) if command == "validate-formula" else (0, 1)), err
    assert err == ""


@given(st.one_of(_soup("matching", _COUNT), _edited(st.just(serialize_matching(_CUBE, _CUBE_PMC)))))
@settings(max_examples=100, deadline=None)
def test_parse_matching_raises_only_value_error(text):
    try:
        parse_matching(text, _CUBE)
    except ValueError:
        pass


@given(st.one_of(_soup("cut", _COUNT),
                 _edited(st.just(serialize_cut(cut_from_edge_set(_CUBE, _CUBE_PMC))))))
@settings(max_examples=100, deadline=None)
def test_parse_cut_raises_only_value_error(text):
    try:
        parse_cut(text, _CUBE.n)
    except ValueError:
        pass
