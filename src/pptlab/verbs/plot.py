"""``pptlab plot``: a grid-graph diagram of a state's edges, as text and
optionally SVG (display only)."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from . import EXIT_INPUT, EXIT_OK
from .states import load_state

if TYPE_CHECKING:
    from .. import replay as rp


def run(args) -> int:
    state = load_state(args.state)
    if state.edges is None:
        print("plot: state carries no edge decomposition", file=sys.stderr)
        return EXIT_INPUT
    text = render_grid(state)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(state))
        print(f"wrote {args.svg}")
    print(text)
    return EXIT_OK


def render_grid(state: rp.BipartiteState) -> str:
    """ASCII rendering: the site grid plus one line per edge."""
    m, n = state.dims
    lines = [f"{state.label or 'state'}: {m}x{n} grid, {len(state.edges)} edges"]
    used = [[" ." for _ in range(n)] for _ in range(m)]
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    legend = []
    for idx, e in enumerate(state.edges):
        tag = letters[idx % len(letters)]
        sites = []
        for i in range(m):
            for j in range(n):
                x = e.vec[i * n + j]
                if x:
                    sites.append((i, j, x))
                    used[i][j] = f" {tag}" if used[i][j] == " ." else used[i][j][:1] + "*"
        desc = " ".join(f"{'+' if x.re >= 0 and x.im == 0 else ''}{x}|{i}{j}>" for i, j, x in sites)
        legend.append(f"  {tag}: {e.name} (weight {e.weight}) = {desc}")
    for i in range(m):
        lines.append("".join(used[i]))
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
