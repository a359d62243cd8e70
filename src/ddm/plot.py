"""Tiny hand-rolled SVG rendering of a score curve.

Produces byte-identical text for identical inputs: coordinates are
formatted with a fixed number of decimals and elements are emitted in a
fixed order (frame, threshold line, ground-truth marks, curve, kept
peaks).  No plotting library is involved, so the output is easy to diff
and safe to regenerate in tests.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .errors import ContractError

WIDTH, HEIGHT = 640.0, 200.0
PAD = 24.0


def _x(position: float, last: float) -> float:
    span = last if last > 0 else 1.0
    return PAD + (WIDTH - 2 * PAD) * position / span


def _y(score: float) -> float:
    return PAD + (HEIGHT - 2 * PAD) * (1.0 - score)


def score_curve_svg(positions, scores, kept=(), theta: float | None = None,
                    boundaries=(), title: str = "") -> str:
    """Render one video's score curve; ``kept`` are indices into scores."""
    positions = np.asarray(positions, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if positions.shape != scores.shape or positions.ndim != 1:
        raise ContractError(
            f"positions {positions.shape} and scores {scores.shape} must be "
            f"matching 1-d arrays")
    last = float(positions[-1]) if positions.size else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white" '
        f'stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{PAD:.1f}" y="16" font-size="12" '
                     f'font-family="monospace">{escape(title)}</text>')
    if theta is not None:
        y = _y(float(theta))
        parts.append(f'<line x1="{PAD:.1f}" y1="{y:.2f}" '
                     f'x2="{WIDTH - PAD:.1f}" y2="{y:.2f}" stroke="gray" '
                     f'stroke-dasharray="4 3"/>')
    for b in boundaries:
        x = _x(float(b), last)
        parts.append(f'<line x1="{x:.2f}" y1="{PAD:.1f}" x2="{x:.2f}" '
                     f'y2="{HEIGHT - PAD:.1f}" stroke="#cc3333"/>')
    if positions.size:
        points = " ".join(f"{_x(p, last):.2f},{_y(s):.2f}"
                          for p, s in zip(positions, scores))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="#3355cc" stroke-width="1.5"/>')
    for i in kept:
        parts.append(f'<circle cx="{_x(float(positions[i]), last):.2f}" '
                     f'cy="{_y(float(scores[i])):.2f}" r="3.5" '
                     f'fill="none" stroke="#117711" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
