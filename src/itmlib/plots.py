"""Self-contained SVG renderings of measures, CDFs, and attractors.

Every function returns a complete SVG document as a string, with no
external assets or stylesheet, so the files open anywhere and identical
inputs produce identical bytes.  The charts read the integer rows the
library stores: a measure's runs and atoms in floats
(``measure._float_view``), its distribution function's rows
(``measure._rows``) and each iterate's runs of cells (``circle._arc_runs``),
each value a / q divided once, which is the float of Fraction(a, q).  An
attractor's chart draws at most 64 rows: the first iterates and the
attractor, with a note of the rows left out.
"""

from __future__ import annotations

from typing import Sequence

from itmlib.circle import ArcSet, _arc_runs
from itmlib.conjugacy import ConjugacyData
from itmlib.measure import Measure, _float_view, _rows

WIDTH = 640
HEIGHT = 320
MARGIN = 40

_AXIS = "#444444"
_BAR = "#4878a8"
_ATOM = "#b04030"
_LINE = "#2a6030"
_MAX_ROWS = 64


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


def _x_pixel(x: float) -> float:
    return MARGIN + x * (WIDTH - 2 * MARGIN)


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
    runs, atoms = _float_view(mu)
    top = max([w for _, _, w in runs] + [m for _, m in atoms] + [1.0])
    body = _axes()
    y0 = HEIGHT - MARGIN
    for lo, hi, w in runs:
        x = _x_pixel(lo)
        bw = _x_pixel(hi) - x
        y = _y_pixel(w, top)
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bw)}" '
            f'height="{_fmt(y0 - y)}" fill="{_BAR}" stroke="none"/>'
        )
    for p, m in atoms:
        x = _x_pixel(p)
        y = _y_pixel(m, top)
        body.append(
            f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{_fmt(y)}" '
            f'stroke="{_ATOM}" stroke-width="2"/>'
        )
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{_ATOM}"/>'
        )
    return _document(body, "density")


def cdf_svg(mu: Measure, title: str = "distribution function") -> str:
    """Graph of F(x) = mu([0, x]) as a polyline, with vertical jumps.

    A jump is drawn where the floats of F(x-) and F(x) differ: an atom
    too light to move the float adds no point.
    """
    grid, unit, ticks, lefts, ats = _rows(mu)
    pts: list[tuple[float, float]] = []
    for x, left, at in zip(ticks, lefts, ats):
        px = _x_pixel(x / grid)
        left, at = left / unit, at / unit
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
    """One bar per iterate A_k, arcs filled, the final row is the attractor.

    Past _MAX_ROWS iterates, the chart draws the first _MAX_ROWS - 1 and the
    attractor, and a line under them says how many rows it left out.
    """
    shown = list(enumerate(iterates))
    if len(shown) > _MAX_ROWS:
        shown = shown[: _MAX_ROWS - 1] + shown[-1:]
    rows = len(shown) + (len(shown) < len(iterates))
    height = max(2 * MARGIN + 24 * rows, HEIGHT // 2)
    body = []
    for row, (k, a) in enumerate(shown):
        y = MARGIN + 24 * row
        body.append(
            f'<rect x="{MARGIN}" y="{y}" width="{WIDTH - 2 * MARGIN}" '
            f'height="16" fill="#eeeeee" stroke="{_AXIS}" stroke-width="0.5"/>'
        )
        q, runs = _arc_runs(a)
        for lo, hi in runs:
            x = _x_pixel(lo / q)
            w = _x_pixel(hi / q) - x
            body.append(
                f'<rect x="{_fmt(x)}" y="{y}" width="{_fmt(w)}" '
                f'height="16" fill="{_BAR}" stroke="none"/>'
            )
        body.append(
            f'<text x="{MARGIN - 34}" y="{y + 12}" font-size="11" '
            f'fill="{_AXIS}">A_{k}</text>'
        )
    if len(shown) < len(iterates):
        y, left_out = MARGIN + 24 * len(shown) + 12, len(iterates) - len(shown)
        body.append(
            f'<text x="{MARGIN}" y="{y}" font-size="11" fill="{_AXIS}">{left_out} of '
            f'{len(iterates)} rows left out: A_{_MAX_ROWS - 1} to A_{len(iterates) - 2}</text>'
        )
    return _document(body, "forward images", height=height)


def conjugacy_svg(data: ConjugacyData) -> str:
    """Graph of h(x) = mu([0, x]) with the induced piece starts marked."""
    doc = cdf_svg(data.mu, title="conjugating map h")
    marks = []
    for p in data.induced.breakpoints:
        x = _fmt(_x_pixel(float(data.h.quantile(p.value))))
        marks.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{HEIGHT - MARGIN}" '
            f'stroke="{_ATOM}" stroke-width="0.5" stroke-dasharray="3 3"/>'
        )
    return doc.replace("</svg>", "\n".join(marks + ["</svg>"]))
