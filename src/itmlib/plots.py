"""Self-contained SVG renderings of measures, CDFs, and attractors.

Every function returns a complete SVG document as a string, with no
external assets or stylesheet, so the files open anywhere and identical
inputs produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from itmlib.circle import ArcSet
from itmlib.conjugacy import ConjugacyData
from itmlib.measure import Measure

WIDTH = 640
HEIGHT = 320
MARGIN = 40

_AXIS = "#444444"
_BAR = "#4878a8"
_ATOM = "#b04030"
_LINE = "#2a6030"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _document(body: list[str], title: str, height: int = HEIGHT) -> str:
    """The SVG document of a chart's elements, with its title above the plot."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">'
    )
    bg = f'<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>'
    caption = (
        f'<text x="{MARGIN}" y="{MARGIN - 12}" font-size="12" '
        f'fill="{_AXIS}">{title}</text>'
    )
    return "\n".join([head, bg, *body, caption, "</svg>"]) + "\n"


def _x_pixel(x: Fraction) -> float:
    return MARGIN + float(x) * (WIDTH - 2 * MARGIN)


def _y_pixel(y: float, top: float) -> float:
    usable = HEIGHT - 2 * MARGIN
    return HEIGHT - MARGIN - (y / top if top else 0.0) * usable


def _axes() -> list[str]:
    y0 = HEIGHT - MARGIN
    return [
        f'<line x1="{MARGIN}" y1="{y0}" x2="{WIDTH - MARGIN}" y2="{y0}" '
        f'stroke="{_AXIS}" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{y0}" '
        f'stroke="{_AXIS}" stroke-width="1"/>',
        f'<text x="{MARGIN}" y="{y0 + 16}" font-size="11" fill="{_AXIS}">0</text>',
        f'<text x="{WIDTH - MARGIN - 6}" y="{y0 + 16}" font-size="11" '
        f'fill="{_AXIS}">1</text>',
    ]


def density_svg(mu: Measure) -> str:
    """Histogram of the density segments, with atom spikes."""
    top = max(
        [float(w) for _, _, w in mu.density] + [float(m) for _, m in mu.atoms] + [1.0]
    )
    body = _axes()
    y0 = HEIGHT - MARGIN
    for lo, hi, w in mu.density:
        x = _x_pixel(lo)
        bw = _x_pixel(hi) - x
        y = _y_pixel(float(w), top)
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bw)}" '
            f'height="{_fmt(y0 - y)}" fill="{_BAR}" stroke="none"/>'
        )
    for p, m in mu.atoms:
        x = _x_pixel(p)
        y = _y_pixel(float(m), top)
        body.append(
            f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{_fmt(y)}" '
            f'stroke="{_ATOM}" stroke-width="2"/>'
        )
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{_ATOM}"/>'
        )
    return _document(body, "density")


def cdf_svg(mu: Measure, title: str = "distribution function") -> str:
    """Graph of F(x) = mu([0, x]) as a polyline, with vertical jumps."""
    cdf = mu.cdf()
    pts: list[tuple[float, float]] = []
    for i, x in enumerate(cdf.cuts):
        left = float(cdf.value_left[i])
        at = float(cdf.value_at[i])
        px = _x_pixel(x)
        pts.append((px, _y_pixel(left, 1.0)))
        if at != left:
            pts.append((px, _y_pixel(at, 1.0)))
    path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
    body = _axes()
    body.append(
        f'<polyline points="{path}" fill="none" stroke="{_LINE}" stroke-width="2"/>'
    )
    return _document(body, title)


def attractor_svg(iterates: Sequence[ArcSet]) -> str:
    """One bar per iterate A_k, arcs filled, the final row is the attractor."""
    rows = len(iterates)
    height = max(2 * MARGIN + 24 * rows, HEIGHT // 2)
    body = []
    for k, a in enumerate(iterates):
        y = MARGIN + 24 * k
        body.append(
            f'<rect x="{MARGIN}" y="{y}" width="{WIDTH - 2 * MARGIN}" '
            f'height="16" fill="#eeeeee" stroke="{_AXIS}" stroke-width="0.5"/>'
        )
        for arc in a.arcs:
            for lo, hi in arc.segments():
                x = _x_pixel(lo)
                w = _x_pixel(hi) - x
                body.append(
                    f'<rect x="{_fmt(x)}" y="{y}" width="{_fmt(w)}" '
                    f'height="16" fill="{_BAR}" stroke="none"/>'
                )
        body.append(
            f'<text x="{MARGIN - 34}" y="{y + 12}" font-size="11" '
            f'fill="{_AXIS}">A_{k}</text>'
        )
    return _document(body, "forward images", height=height)


def conjugacy_svg(data: ConjugacyData) -> str:
    """Graph of h(x) = mu([0, x]) with the induced piece starts marked."""
    doc = cdf_svg(data.mu, title="conjugating map h")
    marks = []
    for p in data.induced.breakpoints:
        x = _fmt(_x_pixel(data.h.quantile(p.value)))
        marks.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{HEIGHT - MARGIN}" '
            f'stroke="{_ATOM}" stroke-width="0.5" stroke-dasharray="3 3"/>'
        )
    return doc.replace("</svg>", "\n".join(marks + ["</svg>"]))
