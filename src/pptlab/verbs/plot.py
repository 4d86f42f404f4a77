"""``pptlab plot``: a grid-graph diagram of a state's edges, as text and
optionally SVG (display only); the state is read as ``certify-sn`` reads
it (:func:`pptlab.verbs.certify_sn.edge_state`)."""

from .. import replay as rp
from . import EXIT_OK, _write
from .certify_sn import edge_state


def run(args) -> int:
    state = edge_state(args.state)
    text = render_grid(state)
    if args.svg:
        _write(args.svg, render_svg(state))
        print(f"wrote {args.svg}")
    print(text)
    return EXIT_OK


def render_grid(state: rp.BipartiteState) -> str:
    """ASCII rendering: the site grid plus one line per edge.  Sites read
    ``|ij>``, or ``|i,j>`` when a side has 10 or more levels."""
    m, n = state.dims
    lines = [f"{state.label or 'state'}: {m}x{n} grid, {len(state.edges)} edges"]
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    # a, b, ..., Z, then a1, b1, ...: one letter each for the first 52 edges
    tags = [letters[idx % 52] + str(idx // 52 or "") for idx in range(len(state.edges))]
    width = 1 + max(map(len, tags), default=1)
    used = [["." for _ in range(n)] for _ in range(m)]
    sep = "," if max(m, n) >= 10 else ""
    legend = []
    for tag, e in zip(tags, state.edges):
        sites = []
        for i in range(m):
            for j in range(n):
                x = e.vec[i * n + j]
                if x:
                    sites.append((i, j, x))
                    used[i][j] = tag if used[i][j] == "." else "*"
        desc = " ".join(f"{'+' if x.re >= 0 and x.im == 0 else ''}{x}|{i}{sep}{j}>"
                        for i, j, x in sites)
        legend.append(f"  {tag}: {e.name} (weight {e.weight}) = {desc}")
    lines += ["".join(f"{cell:>{width}}" for cell in row) for row in used]
    lines.extend(legend)
    lines.append("  (* marks sites shared by several edges)")
    return "\n".join(lines)


def render_svg(state: rp.BipartiteState) -> str:
    """Minimal SVG: sites as circles, edges as polylines (display only)."""
    m, n = state.dims
    cell = 60
    pad = 40
    w, h = pad * 2 + (n - 1) * cell, pad * 2 + (m - 1) * cell
    colors = ["#2a6f97", "#c44536", "#6a994e", "#b07d2b", "#7251b5", "#3a7ca5"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for idx, e in enumerate(state.edges):
        sites = [(i, j) for i in range(m) for j in range(n) if e.vec[i * n + j]]
        color = colors[idx % len(colors)]
        negative = any((e.vec[i * n + j].re < 0 or e.vec[i * n + j].im != 0) for i, j in sites)
        dash = ' stroke-dasharray="6,4"' if negative else ""
        pts = " ".join(f"{pad + j * cell},{pad + i * cell}" for i, j in sites)
        if len(sites) > 1:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="3"{dash}/>')
        for i, j in sites:
            parts.append(f'<circle cx="{pad + j * cell}" cy="{pad + i * cell}" r="6" '
                         f'fill="{color}"/>')
    for i in range(m):
        for j in range(n):
            parts.append(f'<circle cx="{pad + j * cell}" cy="{pad + i * cell}" r="2" '
                         f'fill="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts)
