"""Minimal standalone SVG emission: polyline plots and bar charts.

Deliberately renderer-free; output is plain SVG with axis ticks, suitable
for eyeballing ensemble averages and RD bars.
"""

from __future__ import annotations

import numpy as np

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 60, 20, 30, 45
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo, hi):
    if hi == lo:
        hi = lo + 1.0
    return [float(v) for v in np.linspace(lo, hi, 5)]


def _header(title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]


def _write(parts, path):
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n</svg>\n")


def _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel):
    px = lambda x: _ML + (x - xlo) / (xhi - xlo or 1.0) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - ylo) / (yhi - ylo or 1.0) * (_H - _MT - _MB)
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for v in _ticks(xlo, xhi):
        x = px(v)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{v:.3g}</text>')
    for v in _ticks(ylo, yhi):
        y = py(v)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 3:.1f}" text-anchor="end">{v:.3g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 8}" text-anchor="middle">{_esc(xlabel)}</text>')
    parts.append(f'<text x="14" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2})">{_esc(ylabel)}</text>')
    return px, py


def line_plot(series: dict, path, x, title="", xlabel="time (s)", ylabel=""):
    """series: label -> 1-D array. All series share the x axis x."""
    ys = [np.asarray(v, dtype=float) for v in series.values()]
    if not ys:
        raise ValueError("no series to plot")
    xs = np.asarray(x, dtype=float)
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(y.min()) for y in ys)
    yhi = max(float(y.max()) for y in ys)
    parts = _header(title)
    px, py = _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel)
    for i, (label, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=float)
        pts = " ".join(f"{px(xs[j]):.1f},{py(y[j]):.1f}" for j in range(len(y)))
        color = _COLORS[i % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{_W - _MR - 5}" y="{_MT + 14 + 14 * i}" text-anchor="end" '
                     f'fill="{color}">{_esc(str(label))}</text>')
    _write(parts, path)


def bar_chart(labels, values, path, title="", ylabel=""):
    values = [float(v) for v in values]
    ylo = min(0.0, min(values))
    yhi = max(0.0, max(values))
    parts = _header(title)
    px, py = _axes(parts, -0.5, len(values) - 0.5, ylo, yhi, "", ylabel)
    width = (_W - _ML - _MR) / max(1, len(values)) * 0.6
    for i, (label, v) in enumerate(zip(labels, values)):
        xc = px(i)
        y0, y1 = py(0.0), py(v)
        top, h = (min(y0, y1), abs(y1 - y0))
        parts.append(f'<rect x="{xc - width / 2:.1f}" y="{top:.1f}" width="{width:.1f}" '
                     f'height="{h:.1f}" fill="{_COLORS[i % len(_COLORS)]}"/>')
        parts.append(f'<text x="{xc:.1f}" y="{_H - _MB + 30}" text-anchor="middle">{_esc(str(label))}</text>')
    _write(parts, path)
