"""Minimal dependency-free SVG line chart for sweep curves.

Two series are drawn against the bits level: normalized conditional
entropy and boundary fraction, both living in [0, 1]. ``emit_svg`` returns
the document as text and writes no file; its bytes depend only on the curve.
"""

from __future__ import annotations

from .errors import DataError
from .sweep import SweepCurve

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 24, 28, 56
SERIES = (
    ("normalized_conditional", "normalized conditional entropy", "#1f6fb2"),
    ("boundary_fraction", "boundary fraction", "#c44e52"),
)


def _coord(x: float) -> str:
    return f"{x:.2f}"


def emit_svg(curve: SweepCurve) -> str:
    """Render the curve as a standalone SVG document; the caller writes it."""
    if not curve.points:
        raise DataError("empty curve")
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    levels = [p.bits_level for p in curve.points]
    lo, hi = min(levels), max(levels)
    span = (hi - lo) or 1

    def sx(bits: int) -> float:
        return MARGIN_L + (bits - lo) / span * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + (1.0 - v) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black" stroke-width="1"/>',
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 14}" '
        'text-anchor="middle" font-size="13">granularity (bits)</text>',
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">'
        'fraction</text>',
    ]
    for bits in levels:
        x = _coord(sx(bits))
        parts.append(f'<line x1="{x}" y1="{MARGIN_T + plot_h}" x2="{x}" '
                     f'y2="{MARGIN_T + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-size="11">{bits}</text>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _coord(sy(tick))
        parts.append(f'<line x1="{MARGIN_L - 4}" y1="{y}" x2="{MARGIN_L}" '
                     f'y2="{y}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="11">{tick:g}</text>')

    for attr, label, color in SERIES:
        pts = [(sx(p.bits_level), sy(getattr(p, attr))) for p in curve.points]
        if len(pts) > 1:
            joined = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in pts)
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="2" points="{joined}"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{_coord(x)}" cy="{_coord(y)}" r="3" '
                         f'fill="{color}"/>')

    # legend, top-right
    ly = MARGIN_T + 6
    for _, label, color in SERIES:
        x0 = MARGIN_L + plot_w - 230
        parts.append(f'<line x1="{x0}" y1="{ly}" x2="{x0 + 22}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x0 + 28}" y="{ly + 4}" font-size="12">{label}</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
