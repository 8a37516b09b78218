"""Plain-text persistence for datasets and graphs.

Both formats share a header line ``#nodes <N> <TAB> #dim <d>`` style prefix and
are UTF-8 with LF line endings.

Dataset files::

    #nodes <N> #dim <d>
    <id> TAB <cluster_label> TAB <c1,c2,...,cd>      (N rows)

Graph files::

    #nodes <N> #dim <d>
    <id> TAB <c1,c2,...,cd>                          (N vector rows)
    <source_id> TAB <target_id> TAB <weight> TAB <kind>   (edge rows to EOF)

Floats are written with ``repr`` so values round-trip exactly in double
precision.  Ids are written as they are, so saving rejects an id that holds
a tab or a line break.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .datagen import SyntheticDataset
from .geometry import EmbeddingVector, Embeddings
from .graph import EDGE_KINDS, SemanticGraph


# The field separator plus every line boundary ``str.splitlines`` honours.
_UNWRITABLE_ID_CHARS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")

T = TypeVar("T")


def _check_writable_id(item_id: str) -> None:
    if not _UNWRITABLE_ID_CHARS.isdisjoint(item_id):
        msg = f"id {item_id!r} contains a tab or line break, which the file format cannot hold"
        raise ValueError(msg)


def _format_values(vector: EmbeddingVector) -> str:
    return ",".join(repr(float(value)) for value in vector.values)


def _parse_header(line: str, path: Path) -> tuple[int, int]:
    parts = line.strip().split()
    if len(parts) != 4 or parts[0] != "#nodes" or parts[2] != "#dim":
        msg = f"{path}: malformed header {line.strip()!r}, expected '#nodes <N> #dim <d>'"
        raise ValueError(msg)
    try:
        count, dim = int(parts[1]), int(parts[3])
    except ValueError:
        msg = f"{path}: non-integer header fields in {line.strip()!r}"
        raise ValueError(msg) from None
    if count < 0 or dim < 1:
        msg = f"{path}: header declares invalid sizes (N={count}, d={dim})"
        raise ValueError(msg)
    return count, dim


def _parse_values(item_id: str, raw: str, dim: int, path: Path) -> list[float]:
    pieces = raw.split(",")
    if len(pieces) != dim:
        msg = f"{path}: vector {item_id!r} has {len(pieces)} coordinates, expected {dim}"
        raise ValueError(msg)
    try:
        return [float(piece) for piece in pieces]
    except ValueError:
        msg = f"{path}: vector {item_id!r} has a non-numeric coordinate"
        raise ValueError(msg) from None


def _parse_dataset_row(row: str, labels: dict[str, int], dim: int, path: Path) -> tuple[str, int, list[float]]:
    """Id, label and coordinates of one dataset row; ``labels`` holds the
    ids read before it.  Finiteness is left to :func:`_parse_corpus`."""
    fields = row.split("\t")
    if len(fields) != 3:
        msg = f"{path}: malformed dataset row {row!r}"
        raise ValueError(msg)
    item_id, raw_label, raw_values = fields
    if item_id in labels:
        msg = f"{path}: duplicate item id {item_id!r}"
        raise ValueError(msg)
    try:
        label = int(raw_label)
    except ValueError:
        msg = f"{path}: non-integer cluster label for {item_id!r}"
        raise ValueError(msg) from None
    return item_id, label, _parse_values(item_id, raw_values, dim, path)


def _parse_vector_row(row: str, seen: dict[str, None], dim: int, path: Path) -> tuple[str, None, list[float]]:
    """Id and coordinates of one graph vector row, in
    :func:`_parse_dataset_row`'s shape; ``seen`` holds the ids read before it."""
    fields = row.split("\t")
    if len(fields) != 2:
        msg = f"{path}: malformed vector row {row!r}"
        raise ValueError(msg)
    item_id, raw_values = fields
    if item_id in seen:
        msg = f"{path}: duplicate item id {item_id!r}"
        raise ValueError(msg)
    return item_id, None, _parse_values(item_id, raw_values, dim, path)


def _parse_edge_rows(rows: list[str], path: Path) -> Iterator[tuple[str, str, float, str]]:
    """Source id, target id, weight and kind name of each edge row."""
    for row in rows:
        fields = row.split("\t")
        if len(fields) != 4:
            msg = f"{path}: malformed edge row {row!r}"
            raise ValueError(msg)
        source, target, raw_weight, kind = fields
        try:
            weight = float(raw_weight)
        except ValueError:
            msg = f"{path}: non-numeric weight in edge row {row!r}"
            raise ValueError(msg) from None
        yield source, target, weight, kind


def _parse_corpus(
    rows: list[str], parse_row: Callable[[str, dict, int, Path], tuple[str, T, list[float]]], dim: int, path: Path
) -> tuple[Embeddings, dict[str, T]]:
    """The vectors of ``rows``, each parsed by ``parse_row``, and what it
    read beside each id.

    On the first row error the rows before it are validated first, so a
    non-finite coordinate is reported before any error in a later row,
    while a row's own format errors still come before its non-finite check.
    """
    extras: dict[str, T] = {}
    values: list[list[float]] = []
    error: ValueError | None = None
    for row in rows:
        try:
            item_id, extra, row_values = parse_row(row, extras, dim, path)
        except ValueError as exc:
            error = exc
            break
        extras[item_id] = extra
        values.append(row_values)
    corpus = Embeddings.from_matrix(tuple(extras), np.array(values, dtype=np.float64).reshape(len(values), dim))
    if error is not None:
        raise error
    return corpus, extras


def save_dataset(dataset: SyntheticDataset, path: str | Path) -> Path:
    path = Path(path)
    if not dataset.points:
        msg = "cannot save an empty dataset"
        raise ValueError(msg)
    dim = dataset.points[0].dim
    lines = [f"#nodes {len(dataset.points)} #dim {dim}"]
    for point in dataset.points:
        _check_writable_id(point.id)
        label = dataset.labels[point.id]
        lines.append(f"{point.id}\t{label}\t{_format_values(point)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def load_dataset(path: str | Path) -> SyntheticDataset:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        msg = f"{path}: empty dataset file"
        raise ValueError(msg)
    count, dim = _parse_header(lines[0], path)
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != count:
        msg = f"{path}: header declares {count} rows, found {len(rows)}"
        raise ValueError(msg)
    points, labels = _parse_corpus(rows, _parse_dataset_row, dim, path)
    return SyntheticDataset(points=points, labels=labels, spec=None)


def save_graph(graph: SemanticGraph, path: str | Path) -> Path:
    path = Path(path)
    if not graph.nodes:
        msg = "cannot save an empty graph"
        raise ValueError(msg)
    dim = graph.nodes[0].dim
    lines = [f"#nodes {len(graph.nodes)} #dim {dim}"]
    for node in graph.nodes:
        _check_writable_id(node.id)
        lines.append(f"{node.id}\t{_format_values(node)}")
    ids = graph.node_ids
    columns = (graph.sources.tolist(), graph.targets.tolist(), graph.weights.tolist(), graph.kind.tolist())
    for source, target, weight, kind in zip(*columns):
        lines.append(f"{ids[source]}\t{ids[target]}\t{weight!r}\t{EDGE_KINDS[kind]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def load_graph(path: str | Path) -> SemanticGraph:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        msg = f"{path}: empty graph file"
        raise ValueError(msg)
    count, dim = _parse_header(lines[0], path)
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) < count:
        msg = f"{path}: header declares {count} vector rows, found {len(rows)}"
        raise ValueError(msg)
    nodes, _ = _parse_corpus(rows[:count], _parse_vector_row, dim, path)
    return SemanticGraph.from_named(nodes, _parse_edge_rows(rows[count:], path))

