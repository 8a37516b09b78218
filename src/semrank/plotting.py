"""Deterministic SVG rendering of a 2D experiment.

The emitter writes plain SVG by hand: fixed element order, fixed 2-decimal
coordinate formatting, and no timestamps or generator metadata, so two runs
over identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

from .datagen import SyntheticDataset
from .experiments import ExperimentBundle, ExperimentReport
from .geometry import EmbeddingVector
from .graph import EDGE_KINDS, SemanticGraph

_WIDTH = 860.0
_HEIGHT = 620.0
_MARGIN = 40.0

_CLUSTER_PALETTE = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
)

# method -> (colour, glyph, legend label)
_METHOD_STYLE = {
    "topk_ann": ("#1f77b4", "circle", "top-k by query similarity"),
    "semantic_compression": ("#9467bd", "diamond", "coverage+diversity greedy"),
    "graph_ppr": ("#2ca02c", "triangle", "graph diffusion (ppr)"),
    "hybrid": ("#ff7f0e", "square", "hybrid blend"),
}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Canvas:
    """Affine map from data coordinates into the SVG viewport (y flipped)."""

    def __init__(self, points: list[tuple[float, float]]) -> None:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span_x = max(max_x - min_x, 1e-9)
        span_y = max(max_y - min_y, 1e-9)
        pad_x = span_x * 0.05
        pad_y = span_y * 0.05
        self._min_x = min_x - pad_x
        self._min_y = min_y - pad_y
        self._scale_x = (_WIDTH - 2 * _MARGIN) / (span_x + 2 * pad_x)
        self._scale_y = (_HEIGHT - 2 * _MARGIN) / (span_y + 2 * pad_y)

    def map(self, x: float, y: float) -> tuple[float, float]:
        px = _MARGIN + (x - self._min_x) * self._scale_x
        py = _HEIGHT - _MARGIN - (y - self._min_y) * self._scale_y
        return px, py


def _star(cx: float, cy: float, outer: float, cls: str, fill: str) -> str:
    points = []
    for i in range(10):
        radius = outer if i % 2 == 0 else outer * 0.4
        angle = -math.pi / 2 + i * math.pi / 5
        points.append(f"{_fmt(cx + radius * math.cos(angle))},{_fmt(cy + radius * math.sin(angle))}")
    return f'<polygon class="{cls}" points="{" ".join(points)}" fill="{fill}" stroke="#000000" stroke-width="0.5"/>'


def _marker(cx: float, cy: float, glyph: str, color: str, cls: str) -> str:
    r = 7.0
    if glyph == "circle":
        return f'<circle class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" stroke="{color}" stroke-width="2"/>'
    if glyph == "diamond":
        pts = f"{_fmt(cx)},{_fmt(cy - r)} {_fmt(cx + r)},{_fmt(cy)} {_fmt(cx)},{_fmt(cy + r)} {_fmt(cx - r)},{_fmt(cy)}"
    elif glyph == "triangle":
        half = r * 0.866
        pts = f"{_fmt(cx)},{_fmt(cy - r)} {_fmt(cx + half)},{_fmt(cy + r / 2)} {_fmt(cx - half)},{_fmt(cy + r / 2)}"
    else:  # square
        pts = f"{_fmt(cx - r)},{_fmt(cy - r)} {_fmt(cx + r)},{_fmt(cy - r)} {_fmt(cx + r)},{_fmt(cy + r)} {_fmt(cx - r)},{_fmt(cy + r)}"
    return f'<polygon class="{cls}" points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'


def render_svg(
    report: ExperimentReport,
    dataset: SyntheticDataset,
    graph: SemanticGraph,
    query: EmbeddingVector,
) -> str:
    """Render the experiment scene as an SVG string (2D datasets only)."""
    dims = {point.dim for point in dataset.points}
    if dims != {2} or query.dim != 2:
        msg = "plotting requires a 2-dimensional dataset; regenerate with dim=2"
        raise ValueError(msg)

    coords = [(float(p.values[0]), float(p.values[1])) for p in dataset.points]
    coords.append((float(query.values[0]), float(query.values[1])))
    canvas = _Canvas(coords)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
    ]

    by_id = dataset.by_id
    position = {point.id: canvas.map(float(point.values[0]), float(point.values[1])) for point in dataset.points}

    # Edges first so nodes draw on top: knn in light gray, symbolic dashed red.
    ids = graph.node_ids
    for source, target, kind in zip(graph.sources.tolist(), graph.targets.tolist(), graph.kind.tolist()):
        (x1, y1), (x2, y2) = position[ids[source]], position[ids[target]]
        if EDGE_KINDS[kind] == "knn":
            parts.append(
                f'<line class="knn-edge" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#bbbbbb" stroke-width="0.6"/>'
            )
        else:
            parts.append(
                f'<line class="symbolic-edge" x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#d62728" stroke-width="1.1" stroke-dasharray="5,3"/>'
            )

    for point in dataset.points:
        x, y = position[point.id]
        color = _CLUSTER_PALETTE[dataset.labels[point.id] % len(_CLUSTER_PALETTE)]
        parts.append(f'<circle class="point" cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{color}"/>')

    for head in graph.cluster_heads or ():
        if head in position:
            x, y = position[head]
            parts.append(_star(x, y, 9.0, "head", "#000000"))

    for entry in report.results:
        color, glyph, _ = _METHOD_STYLE[entry.method]
        for item_id in entry.item_ids:
            if item_id not in by_id:
                msg = f"result item {item_id!r} is not in the dataset"
                raise ValueError(msg)
            x, y = position[item_id]
            parts.append(_marker(x, y, glyph, color, f"mark-{entry.method}"))

    qx, qy = canvas.map(float(query.values[0]), float(query.values[1]))
    parts.append(_star(qx, qy, 11.0, "query", "#d62728"))

    # Legend: one row per method present, plus the fixed glyph rows.
    legend_x = _WIDTH - 250.0
    legend_y = 16.0
    rows = [(entry.method,) + _METHOD_STYLE[entry.method] for entry in report.results]
    height = 22.0 * (len(rows) + (2 if graph.cluster_heads else 1)) + 12.0
    parts.append(
        f'<rect class="legend" x="{_fmt(legend_x - 10)}" y="{_fmt(legend_y - 4)}" width="244" '
        f'height="{_fmt(height)}" fill="#ffffff" stroke="#999999" stroke-width="0.8"/>'
    )
    cursor = legend_y + 12.0
    for method, color, glyph, label in rows:
        parts.append(_marker(legend_x + 8, cursor - 4, glyph, color, f"legend-{method}"))
        parts.append(
            f'<text x="{_fmt(legend_x + 24)}" y="{_fmt(cursor)}" font-family="sans-serif" font-size="12">{label}</text>'
        )
        cursor += 22.0
    parts.append(_star(legend_x + 8, cursor - 4, 8.0, "legend-query", "#d62728"))
    parts.append(
        f'<text x="{_fmt(legend_x + 24)}" y="{_fmt(cursor)}" font-family="sans-serif" font-size="12">composite query</text>'
    )
    cursor += 22.0
    if graph.cluster_heads:
        parts.append(_star(legend_x + 8, cursor - 4, 8.0, "legend-head", "#000000"))
        parts.append(
            f'<text x="{_fmt(legend_x + 24)}" y="{_fmt(cursor)}" font-family="sans-serif" font-size="12">cluster head</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_bundle_plot(bundle: ExperimentBundle, path: str | Path) -> Path:
    """Write the bundle's experiment scene to ``path`` as deterministic SVG bytes."""
    path = Path(path)
    svg = render_svg(bundle.report, bundle.dataset, bundle.graph, bundle.query)
    path.write_text(svg, encoding="utf-8", newline="\n")
    return path
