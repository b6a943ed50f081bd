"""Schematic SVG and DOT views of a reduction artifact.

The SVG shows the two gadget columns, one straight polyline per wire bundle,
and a marked block at each bundle crossing.  It is a schematic of the routing
topology, not a coordinate-faithful drawing.  The DOT output is the gadget
adjacency multigraph with connector edges labelled by variable.
"""

from __future__ import annotations

from .reduction import CLAUSE_SIZE, CROSSING_SIZE, VARIABLE_SIZE, ReductionArtifact

_VAR_X = (20.0, 100.0)
_CLAUSE_X = (320.0, 400.0)
_SLOT_DY = 14.0
_PAD = 30.0


def _slot_y(slot: int) -> float:
    return _PAD + (2 * slot + 0.5) * _SLOT_DY


def render_svg(art: ReductionArtifact) -> str:
    plan = art.plan
    height = 2 * _PAD + 2 * len(plan.exit_order) * _SLOT_DY
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="420" height="{height:.0f}" '
        f'viewBox="0 0 420 {height:.0f}">',
        '<style>text{font:10px sans-serif}</style>',
    ]
    # each bundle is a straight line from its exit slot to its entry slot
    wx0, wx1 = _VAR_X[1], _CLAUSE_X[0]
    entry_y = {ij: _slot_y(k) for k, ij in enumerate(plan.entry_order)}
    ends = {ij: (_slot_y(k), entry_y[ij]) for k, ij in enumerate(plan.exit_order)}
    for (i, j), (y0, y1) in sorted(ends.items()):
        out.append(
            f'<polyline class="bundle" points="{wx0:.1f},{y0:.1f} {wx1:.1f},{y1:.1f}" '
            f'stroke="#888" fill="none"><title>x{i} in C{j}</title></polyline>'
        )
    columns = ((plan.exit_order, 0, _VAR_X, "variable", "#cfe3ff", "#245", "x"),
               (plan.entry_order, 1, _CLAUSE_X, "clause", "#ffe3cf", "#542", "C"))
    for order, side, (x0, x1), cls, fill, stroke, prefix in columns:
        slot_y = {}
        for k, ij in enumerate(order):
            slot_y.setdefault(ij[side], []).append(_slot_y(k))
        for i, ys in sorted(slot_y.items()):
            y0, y1 = min(ys) - 0.6 * _SLOT_DY, max(ys) + 0.6 * _SLOT_DY
            out.append(
                f'<rect class="{cls}" x="{x0:.1f}" y="{y0:.1f}" '
                f'width="{x1 - x0:.1f}" height="{y1 - y0:.1f}" '
                f'fill="{fill}" stroke="{stroke}"/>'
            )
            out.append(f'<text x="{x0 + 6:.1f}" y="{(y0 + y1) / 2:.1f}">{prefix}{i}</text>')
    # a crossing's block sits where its two bundles' lines meet
    for k, (lo, hi) in enumerate(art.crossings, 1):
        (ya0, ya1), (yb0, yb1) = ends[lo], ends[hi]
        d0, d1 = ya0 - yb0, ya1 - yb1
        t = d0 / (d0 - d1) if d0 != d1 else 0.5
        x = wx0 + t * (wx1 - wx0)
        y = ya0 + t * (ya1 - ya0)
        out.append(
            f'<rect class="crossing" x="{x - 4:.1f}" y="{y - 4:.1f}" width="8" height="8" '
            f'fill="#fff" stroke="#a22"><title>crossing {k}</title></rect>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_dot(art: ReductionArtifact) -> str:
    """Gadget adjacency multigraph; connector edges labelled by variable."""
    f = art.formula
    lines = ["graph reduction {", "  node [shape=box];"]
    for p, count in (("C", f.m), ("X", art.q), ("x", f.n)):
        lines += [f'  "{p}{i}";' for i in range(1, count + 1)]
    # each block's start, read once, last block first
    blocks = [(art.vertex_info.start(kind, 1), size, p)
              for kind, size, count, p in (("crossing", CROSSING_SIZE, art.q, "X"),
                                           ("clause", CLAUSE_SIZE, f.m, "C"),
                                           ("variable", VARIABLE_SIZE, f.n, "x")) if count]

    def gadget(v: int) -> str:
        for start, size, p in blocks:
            if v >= start:
                break
        return f"{p}{(v - start) // size + 1}"

    for u, v, var in art.connectors:
        lines.append(f'  "{gadget(u)}" -- "{gadget(v)}" [label="x{var}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
