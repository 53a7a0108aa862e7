"""Minimal native SVG plotting.

Hermetic on purpose: no plotting process, no fonts beyond SVG defaults, no
timestamps or random ids, so rendering the same data twice gives the same
bytes.  Floats are written with %.6g throughout.
"""

from __future__ import annotations

import math

W, H = 640, 420
ML, MR, MT, MB = 64, 20, 34, 46

PALETTE = ["#1f6fb2", "#d1495b", "#3a8f5d", "#8a5fbf", "#c07f2a", "#3aa0a0"]

LABEL_COLORS = {
    "L2_subcritical": "#1f6fb2",
    "subcritical_non_L2": "#e0b63a",
    "boundary": "#777777",
    "phase_II_glassy": "#d1495b",
    "phase_III": "#3a8f5d",
}


def _fmt(x):
    return f"{x:.6g}"


def _span(lo, hi):
    """(lo, hi), widened to a span ticks can step through: 1.0 if empty, and
    at least 1e-9 of the larger magnitude (a span of a few ulps gives a
    step that cannot advance) and 1e-300 (a fifth of it must not underflow),
    downward where upward would overflow."""
    if hi <= lo:
        hi = lo + 1.0
    width = max(1e-9 * max(abs(lo), abs(hi)), 1e-300)
    if hi - lo >= width:
        return lo, hi
    return (lo, lo + width) if math.isfinite(lo + width) else (hi - width, hi)


def _ticks(lo, hi, n=5):
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t - hi <= 1e-9 * step:  # hi + 1e-9 step may overflow
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


class _Axes:
    """Linear or log mapping from data coordinates to the pixel frame."""

    def __init__(self, xlo, xhi, ylo, yhi, logx=False, logy=False):
        tx = math.log10 if logx else float
        ty = math.log10 if logy else float
        self.logx, self.logy = logx, logy
        self.xlo, self.xhi = _span(tx(xlo), tx(xhi))
        self.ylo, self.yhi = _span(ty(ylo), ty(yhi))

    def px(self, x):
        v = math.log10(x) if self.logx else x
        return ML + (v - self.xlo) / (self.xhi - self.xlo) * (W - ML - MR)

    def py(self, y):
        v = math.log10(y) if self.logy else y
        return H - MB - (v - self.ylo) / (self.yhi - self.ylo) * (H - MT - MB)

    def x_ticks(self):
        ts = _ticks(self.xlo, self.xhi)
        return [(10.0 ** t if self.logx else t) for t in ts]

    def y_ticks(self):
        ts = _ticks(self.ylo, self.yhi)
        return [(10.0 ** t if self.logy else t) for t in ts]


def _frame(ax, title, xlabel, ylabel):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for t in ax.x_ticks():
        x = ax.px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{H - MB}" x2="{_fmt(x)}" '
                     f'y2="{H - MB + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{H - MB + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    for t in ax.y_ticks():
        y = ax.py(t)
        parts.append(f'<line x1="{ML - 4}" y1="{_fmt(y)}" x2="{ML}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{ML - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    parts.append(f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" '
                 f'height="{H - MT - MB}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle" '
                 f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="16" y="{H / 2}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 16 {H / 2})">'
                 f'{ylabel}</text>')
    return parts


def _bounds(values, logscale):
    vals = [v for v in values if not (logscale and v <= 0)]
    if not vals:
        vals = [1e-3, 1.0]
    lo, hi = min(vals), max(vals)
    if logscale:
        return lo / 1.5, hi * 1.5
    pad = 0.08 * (hi - lo) if hi > lo else max(abs(hi), 1.0) * 0.2
    return lo - pad, hi + pad


def line_plot(series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """Polyline plot with optional per-point error bars.

    series: list of dicts with keys x, y, label, and optionally err.
    Nonpositive values are dropped on log axes.
    """
    all_x = [x for s in series for x in s["x"]]
    all_y = [y for s in series for y in s["y"]]
    xlo, xhi = _bounds(all_x, logx)
    ylo, yhi = _bounds(all_y, logy)
    ax = _Axes(xlo, xhi, ylo, yhi, logx=logx, logy=logy)
    parts = _frame(ax, title, xlabel, ylabel)
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = [(x, y) for x, y in zip(s["x"], s["y"])
               if not (logx and x <= 0) and not (logy and y <= 0)]
        coords = " ".join(f"{_fmt(ax.px(x))},{_fmt(ax.py(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        errs = s.get("err")
        for j, (x, y) in enumerate(zip(s["x"], s["y"])):
            if logx and x <= 0 or logy and y <= 0:
                continue
            parts.append(f'<circle cx="{_fmt(ax.px(x))}" cy="{_fmt(ax.py(y))}" '
                         f'r="3" fill="{color}"/>')
            if errs is not None:
                lo, hi = y - errs[j], y + errs[j]
                if logy:
                    lo = max(lo, yhi * 1e-12)
                parts.append(f'<line x1="{_fmt(ax.px(x))}" y1="{_fmt(ax.py(lo))}" '
                             f'x2="{_fmt(ax.px(x))}" y2="{_fmt(ax.py(hi))}" '
                             f'stroke="{color}"/>')
        if s.get("label"):
            ly = MT + 16 + 14 * i
            parts.append(f'<line x1="{W - MR - 110}" y1="{ly - 4}" '
                         f'x2="{W - MR - 90}" y2="{ly - 4}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{W - MR - 84}" y="{ly}" font-size="11" '
                         f'font-family="sans-serif">{s["label"]}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def bar_plot(names, values, title="", ylabel="", hlines=()):
    """Vertical bars with optional horizontal reference lines."""
    n = max(len(names), 1)
    ylo, yhi = _bounds(list(values) + [0.0] + [h for h, _ in hlines], False)
    ax = _Axes(0, n, ylo, yhi)
    parts = _frame(ax, title, "", ylabel)
    width = (W - ML - MR) / n
    for i, (name, v) in enumerate(zip(names, values)):
        x = ML + i * width
        y0, y1 = ax.py(0.0), ax.py(v)
        top, hgt = min(y0, y1), abs(y1 - y0)
        parts.append(f'<rect x="{_fmt(x + 0.15 * width)}" y="{_fmt(top)}" '
                     f'width="{_fmt(0.7 * width)}" height="{_fmt(hgt)}" '
                     f'fill="{PALETTE[0]}"/>')
        parts.append(f'<text x="{_fmt(x + 0.5 * width)}" y="{H - MB + 18}" '
                     f'text-anchor="middle" font-size="10" '
                     f'font-family="sans-serif">{name}</text>')
    for h, label in hlines:
        y = ax.py(h)
        parts.append(f'<line x1="{ML}" y1="{_fmt(y)}" x2="{W - MR}" '
                     f'y2="{_fmt(y)}" stroke="#555" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{W - MR - 4}" y="{_fmt(y - 4)}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def phase_map(alphas, betas, labels, title=""):
    """Phase-label raster; consecutive same-label run lengths share one rect."""
    na, nb = len(alphas), len(betas)
    ax = _Axes(min(alphas), max(alphas), min(betas), max(betas))
    parts = _frame(ax, title, "alpha", "beta")
    cw = (W - ML - MR) / na
    ch = (H - MT - MB) / nb
    for j in range(nb):
        i = 0
        while i < na:
            k = i
            lab = labels[j][i]
            while k + 1 < na and labels[j][k + 1] == lab:
                k += 1
            color = LABEL_COLORS.get(lab, "#000000")
            x = ML + i * cw
            y = H - MB - (j + 1) * ch
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                         f'width="{_fmt((k - i + 1) * cw)}" height="{_fmt(ch)}" '
                         f'fill="{color}"/>')
            i = k + 1
    ly = MT + 14
    for lab, color in LABEL_COLORS.items():
        parts.append(f'<rect x="{W - MR - 150}" y="{ly - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{W - MR - 136}" y="{ly}" font-size="10" '
                     f'font-family="sans-serif">{lab}</text>')
        ly += 13
    parts.append("</svg>")
    return "\n".join(parts)
