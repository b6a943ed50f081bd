"""The layer table the benchmark calls through, and the spans of a traced run.

The benchmark never calls pmcut directly: it calls ``api.<layer>.<function>``.
``plain_api`` fills that table with pmcut's own public functions.
``Tracer.api`` fills it with wrappers that record one span per call, and
``Tracer.internals`` also wraps the three stages that ``reduce_formula``
calls and counts the nodes of every search ``find_pmc`` builds.  pmcut
itself carries no instrumentation; the wrappers exist only in a traced run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from types import SimpleNamespace

# The public functions each layer is driven through, by module.
LAYERS = {
    "formula": ("random_e4_formula", "ag23_formula", "canonical_n3_formula",
                "serialize_formula", "parse_formula", "solve_nae_bruteforce",
                "nae_satisfies"),
    "gadgets": ("build_variable_gadget", "build_clause_gadget",
                "build_crossing_gadget", "enumerate_local_pmcs"),
    "reduction": ("reduce_formula", "serialize_provenance"),
    "graphs": ("serialize_graph", "parse_graph", "is_cubic", "is_bipartite",
               "is_planar_embedding", "is_3_connected", "is_perfect_matching",
               "cut_from_edge_set"),
    "solver": ("find_pmc", "assignment_from_pmc", "pmc_from_assignment",
               "lemma_oracles"),
    "render": ("render_svg", "render_dot"),
}

# reduce_formula's stages, looked up in pmcut.reduction at call time.
REDUCE_STAGES = ("build_h", "layout", "planarize")


def _module(layer: str):
    return importlib.import_module(f"pmcut.{layer}")


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**{
        layer: SimpleNamespace(**{name: getattr(_module(layer), name) for name in names})
        for layer, names in LAYERS.items()
    })


def _text_bytes(text: str) -> dict:
    return {"bytes": len(text.encode())}


def _reduction_sizes(art) -> dict:
    return {"vertices": art.graph.n, "edges": art.graph.m, "crossings": art.q}


def _census_size(census) -> dict:
    return {"elements": len(census)}


# Counts taken from a call's result, keyed by span name.
_RESULT_INFO = {
    "reduction.reduce_formula": _reduction_sizes,
    "graphs.serialize_graph": _text_bytes,
    "render.render_svg": _text_bytes,
    "render.render_dot": _text_bytes,
    "gadgets.enumerate_local_pmcs": _census_size,
}


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "info", "child_s")

    def __init__(self, name: str, op: str, start: float, parent: int | None):
        self.name = name
        self.op = op
        self.start = start
        self.end = start
        self.parent = parent
        self.info: dict = {}
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (calls are sequential)."""
        return self.end - self.start - self.child_s

    def to_json(self, sid: int) -> dict:
        return {"id": sid, "name": self.name, "op": self.op, "start": self.start,
                "end": self.end, "parent": self.parent, "self_s": self.self_s,
                **self.info}


class Tracer:
    """Records spans in memory; ``op`` names the operation new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._searches: list = []
        self.nodes_readable = True

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, time.perf_counter(), parent)
            sid = len(self.spans)
            self.spans.append(span)
            self._stack.append(sid)
            first_search = len(self._searches)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name == "graphs.is_3_connected":
                    span.info["refused"] = 1
                raise
            else:
                note = _RESULT_INFO.get(name)
                if note is not None:
                    span.info.update(note(result))
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
                if name == "solver.find_pmc":
                    span.info["nodes"] = self._nodes_since(first_search)
        return traced

    def _nodes_since(self, first: int) -> int | None:
        searches = self._searches[first:]
        if not self.nodes_readable or not searches:
            return None
        if not all(hasattr(s, "nodes") for s in searches):
            return None
        return sum(s.nodes for s in searches)

    def api(self) -> SimpleNamespace:
        base = plain_api()
        return SimpleNamespace(**{
            layer: SimpleNamespace(**{
                name: self.wrap(f"{layer}.{name}", getattr(getattr(base, layer), name))
                for name in names
            })
            for layer, names in LAYERS.items()
        })

    @contextmanager
    def internals(self):
        """Wrap reduce_formula's stages and record find_pmc's search objects.

        The node counter is the private ``_PmcSearch.nodes``; when that name
        is gone, ``nodes_readable`` turns false and the count reads as missing.
        """
        reduction, solver = _module("reduction"), _module("solver")
        saved = {name: getattr(reduction, name) for name in REDUCE_STAGES}
        for name, fn in saved.items():
            setattr(reduction, name, self.wrap(f"reduction.{name}", fn))
        search_cls = getattr(solver, "_PmcSearch", None)
        self.nodes_readable = isinstance(search_cls, type)
        if self.nodes_readable:
            searches = self._searches

            class RecordedSearch(search_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    searches.append(self)

            solver._PmcSearch = RecordedSearch
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(reduction, name, fn)
            if self.nodes_readable:
                solver._PmcSearch = search_cls
            self._searches.clear()
