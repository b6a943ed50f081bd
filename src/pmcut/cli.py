"""Batch front-end for the reduction pipeline.

Exit codes: 0 success (for solve commands: answer found / verification
passed), 1 negative answer or failed verification, 2 node budget exhausted,
64 usage error, 65 bad input data, 70 internal error (a size guard or a
bug; one line on stderr, no traceback), 74 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formula as fm
from . import gadgets as gd
from . import graphs as gr
from . import render as rd
from . import solver as sv
from .reduction import reduce_formula, serialize_provenance

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    nodes = int(text)
    if nodes < 0:
        raise argparse.ArgumentTypeError(f"node budget must be >= 0, got {nodes}")
    return nodes


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_IOERR)
    except UnicodeDecodeError as exc:  # bad input data, not an I/O error
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_DATAERR)


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_IOERR)


def _load(step, arg):
    """step(arg), where a ValueError means bad input data: one error line,
    exit 65."""
    try:
        return step(arg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EX_DATAERR)


def cmd_validate_formula(args) -> int:
    f = _load(fm.parse_formula, _read(args.formula))
    print(f"valid nae3sat-e4 instance: n={f.n} m={f.m}")
    return 0


def cmd_solve_nae(args) -> int:
    f = _load(fm.parse_formula, _read(args.formula))
    a = fm.solve_nae(f)
    if a is None:
        print("UNSAT")
        return 1
    print("SAT " + "".join("AB"[b] for b in a))
    return 0


def cmd_reduce(args) -> int:
    art = _load(reduce_formula, _load(fm.parse_formula, _read(args.formula)))
    stem = Path(args.formula).stem
    out = Path(args.out)
    _write(out / f"{stem}.graph", gr.serialize_graph(art.graph, art.embedding))
    _write(out / f"{stem}.prov", serialize_provenance(art))
    print(f"reduced: |V|={art.graph.n} |E|={art.graph.m} crossings={art.q}")
    print(f"wrote {out / (stem + '.graph')} and {out / (stem + '.prov')}")
    return 0


def cmd_solve_pmc(args) -> int:
    g, _ = _load(gr.parse_graph, _read(args.graph))
    if not g.is_connected():
        print("error: solve-pmc requires a connected graph", file=sys.stderr)
        return EX_DATAERR
    try:
        m = sv.find_pmc_bruteforce(g) if args.oracle else sv.find_pmc(g, budget=args.budget)
    except sv.BudgetExhausted:
        print("budget exhausted")
        return 2
    if m is None:
        print("no perfect matching cut")
        return 1
    print(f"perfect matching cut with {len(m)} edges")
    if args.witness:
        _write(Path(args.witness), gr.serialize_matching(g, m))
    if args.cut:
        cut = gr.cut_from_edge_set(g, m)
        _write(Path(args.cut), gr.serialize_cut(cut))
    return 0


def cmd_verify_graph(args) -> int:
    g, emb = _load(gr.parse_graph, _read(args.graph))
    cubic = gr.is_cubic(g)
    checks = [("cubic", cubic), ("bipartite", gr.is_bipartite(g) is not None)]
    planar = emb is not None and g.is_connected() and gr.is_planar_embedding(g, emb)
    if emb is not None:
        checks.append(("planar", planar))
    checks.append(("3-connected", cubic and gr.is_3_connected(g)))
    ok = all(v for _, v in checks)
    names = " ".join(name for name, _ in checks)
    print(f"{names}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        for name, v in checks:
            print(f"  {name}: {'ok' if v else 'FAILED'}")
    return 0 if ok else 1


def cmd_verify_gadgets(args) -> int:
    ok = True
    for build in (gd.build_variable_gadget, gd.build_clause_gadget, gd.build_crossing_gadget):
        gadget = build()
        census = gd.enumerate_local_pmcs(gadget)
        try:
            gd.census_types(gadget, census)
            verdict = "PASS"
        except gd.FigureError as exc:
            ok = False
            verdict = f"FAIL {exc}"
        print(f"gadget {gadget.kind} census {len(census)} "
              f"expected {gd.CENSUS_SIZES[gadget.kind]} {verdict}")
    return 0 if ok else 1


def cmd_roundtrip(args) -> int:
    f = _load(fm.parse_formula, _read(args.formula))
    a = fm.solve_nae(f)
    art = _load(reduce_formula, f)
    try:
        m = sv.find_pmc(art.graph, budget=args.budget)
    except sv.BudgetExhausted:
        print("budget exhausted")
        return 2
    sat = a is not None
    pmc = m is not None
    if sat != pmc:
        print(f"SAT={'yes' if sat else 'no'} PMC={'yes' if pmc else 'no'} MISMATCH")
        return 1
    if not sat:
        print("SAT=no PMC=no consistent")
        return 0
    recovered = sv.assignment_from_pmc(art, m)
    # the maps invert each other: the reduction is a bijection between NAE
    # assignments up to complement and perfect matching cuts
    ok = fm.nae_satisfies(f, recovered) and sv.pmc_from_assignment(art, recovered) == m
    witness = sv.pmc_from_assignment(art, a)
    ok &= gr.is_perfect_matching(art.graph, witness)
    ok &= gr.cut_from_edge_set(art.graph, witness) is not None
    print(f"SAT=yes PMC=yes assignment {'NAE-valid' if ok else 'INVALID'}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    art = _load(reduce_formula, _load(fm.parse_formula, _read(args.formula)))
    render = rd.render_svg if args.format == "svg" else rd.render_dot
    path = Path(args.out) / f"{Path(args.formula).stem}.{args.format}"
    _write(path, render(art))
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="pmcut", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-formula", help="parse and validate a formula file")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_validate_formula)

    p = sub.add_parser("solve-nae", help="decide the formula by DPLL")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_solve_nae)

    p = sub.add_parser("reduce", help="compile a formula to a PMC instance")
    p.add_argument("formula")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve-pmc", help="decide perfect matching cut existence")
    p.add_argument("graph")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle")
    p.add_argument("--budget", type=_budget, default=sv.DEFAULT_BUDGET)
    p.add_argument("--witness", help="write the matching file here")
    p.add_argument("--cut", help="write the cut file here")
    p.set_defaults(fn=cmd_solve_pmc)

    p = sub.add_parser("verify-graph", help="check the Barnette properties")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_verify_graph)

    p = sub.add_parser("verify-gadgets", help="check the censuses by the census theorem")
    p.set_defaults(fn=cmd_verify_gadgets)

    p = sub.add_parser("roundtrip", help="reduce, solve, and cross-check both ways")
    p.add_argument("formula")
    p.add_argument("--budget", type=_budget, default=sv.DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_roundtrip)

    p = sub.add_parser("render", help="schematic SVG or DOT of the reduction")
    p.add_argument("formula")
    p.add_argument("--format", choices=("svg", "dot"), default="svg")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # the exit-code contract: a crash must not read as "no"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
