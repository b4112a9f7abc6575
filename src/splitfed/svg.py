"""Hand-rolled SVG rendering for break-even curves. No plotting dependency.

The curve is drawn on log-log axes: client count along x, break-even model
size along y. Points above the curve are where split training moves less
data; below it federated averaging wins.
"""

from __future__ import annotations

import math
from itertools import islice

from .cost_model import BreakEvenCurve

_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 80, 24, 48, 56
# The polyline's points are formatted and joined this many at a time.
_POINTS_PER_BLOCK = 1024


def _decade_range(least: float, most: float) -> tuple[int, int]:
    """The whole decades spanning [least, most]: log10 is monotone, so the logs
    of the two ends bound the log of every value between them."""
    lo = math.floor(math.log10(least))
    hi = math.ceil(math.log10(most))
    if lo == hi:
        lo -= 1
        hi += 1
    return lo, hi


def _fmt_pow10(exponent: int) -> str:
    return f"1e{exponent}" if exponent not in (0, 1, 2, 3) else str(10**exponent)


def render_breakeven_svg(curve: BreakEvenCurve, path: str | None = None) -> str:
    """Render the curve to an SVG document; optionally write it to ``path``."""
    document = _document(curve)  # its lines are freed before the document is written
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document)
    return document


def _document(curve: BreakEvenCurve) -> str:
    """The SVG text. The polyline takes one log10 per coordinate and is joined a
    block of points at a time, so no string per point is held."""
    ks, ns = curve.clients, curve.break_even_sizes
    x_lo, x_hi = _decade_range(ks[0], ks[-1])  # the client counts ascend
    y_lo, y_hi = _decade_range(min(ns), max(ns))
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(k: float) -> float:
        return _MARGIN_LEFT + (math.log10(k) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(n: float) -> float:
        return _MARGIN_TOP + (y_hi - math.log10(n)) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    title = (
        f"break-even model size: p={curve.dataset_size}, q={curve.smashed_size}, "
        f"eta={float(curve.client_fraction):g}, {curve.variant.label}"
    )
    lines.append(
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>'
    )

    # grid and tick labels, one per decade
    for exp in range(x_lo, x_hi + 1):
        x = sx(10**exp)
        lines.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_TOP}" x2="{x:.1f}" '
            f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_pow10(exp)}</text>'
        )
    for exp in range(y_lo, y_hi + 1):
        y = sy(10**exp)
        lines.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{y:.1f}" stroke="#dddddd"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_pow10(exp)}</text>'
        )

    # axes
    lines.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_HEIGHT - _MARGIN_BOTTOM}" '
        f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="black"/>'
    )
    lines.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
        f'x2="{_MARGIN_LEFT}" y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="black"/>'
    )
    lines.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">clients K</text>'
    )
    lines.append(
        f'<text x="20" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {_MARGIN_TOP + plot_h / 2:.1f})">model size N</text>'
    )

    # sx and sy inline, the same float expressions: a point costs no call of its own
    points, log10, x_span, y_span = zip(ks, ns), math.log10, x_hi - x_lo, y_hi - y_lo
    blocks = iter(lambda: " ".join([
        f"{_MARGIN_LEFT + (log10(k) - x_lo) / x_span * plot_w:.1f},"
        f"{_MARGIN_TOP + (y_hi - log10(n)) / y_span * plot_h:.1f}"
        for k, n in islice(points, _POINTS_PER_BLOCK)]), "")
    lines.append(f'<polyline points="{" ".join(blocks)}" fill="none" stroke="#1f4e9c" stroke-width="2"/>')

    # region labels on either side of the curve
    lines.append(
        f'<text x="{_MARGIN_LEFT + 0.62 * plot_w:.1f}" y="{_MARGIN_TOP + 0.22 * plot_h:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" fill="#1f4e9c">'
        f"split learning cheaper</text>"
    )
    lines.append(
        f'<text x="{_MARGIN_LEFT + 0.38 * plot_w:.1f}" y="{_MARGIN_TOP + 0.82 * plot_h:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12" fill="#9c3a1f">'
        f"federated learning cheaper</text>"
    )
    lines.append("</svg>\n")
    return "\n".join(lines)
