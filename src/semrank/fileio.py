"""Plain-text persistence for datasets and graphs.

Both formats are UTF-8 with LF line endings and share one codec: a header
line, then one vector row per item.  A graph file adds its edge rows after
the vector block.

Dataset files::

    #nodes <N> #dim <d>
    <id> TAB <cluster_label> TAB <c1,c2,...,cd>      (N rows)

Graph files::

    #nodes <N> #dim <d>
    <id> TAB <c1,c2,...,cd>                          (N vector rows)
    <source_id> TAB <target_id> TAB <weight> TAB <kind>   (edge rows to EOF)

The header's fields are separated by single spaces.  Floats are written
with ``repr`` so values round-trip exactly in double precision.  Ids are
written as they are, so saving rejects an id that holds a tab or a line
break.  A save checks the ids, all it can reject (a dataset checks its
labels as it is built), before it opens the file, so a failed save writes
nothing, and then streams the rows into the file one line at a time.
A loaded label must fit int64, the dtype a dataset keeps its labels in.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .datagen import SyntheticDataset
from .geometry import Embeddings
from .graph import EDGE_KINDS, SemanticGraph


# The field separator plus every line boundary ``str.splitlines`` honours.
_UNWRITABLE_ID_CHARS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")

# A dataset keeps its cluster labels as int64; plain ints, since an
# ``np.iinfo`` attribute is worked out on every read.
_LABEL_MIN, _LABEL_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _write(
    path: str | Path,
    corpus: Embeddings,
    what: str,
    labels: np.ndarray | None = None,
    edge_rows: Iterable[str] = (),
) -> Path:
    """Write the header, one vector row per item of ``corpus`` (with its
    label at the same position of ``labels`` when given) and then
    ``edge_rows``; every check runs before ``path`` is opened."""
    path = Path(path)
    if not corpus:
        msg = f"cannot save an empty {what}"
        raise ValueError(msg)
    for item_id in corpus.ids:
        if not _UNWRITABLE_ID_CHARS.isdisjoint(item_id):
            msg = f"id {item_id!r} contains a tab or line break, which the file format cannot hold"
            raise ValueError(msg)
    matrix = corpus.matrix
    prefixes = itertools.repeat("") if labels is None else (f"{label}\t" for label in labels)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#nodes {len(matrix)} #dim {matrix.shape[1]}\n")
        for item_id, prefix, row in zip(corpus.ids, prefixes, matrix):
            handle.write(f"{item_id}\t{prefix}{','.join(map(repr, row.tolist()))}\n")
        handle.writelines(edge_rows)
    return path


def _read(path: Path, what: str) -> tuple[int, int, list[str]]:
    """The declared row count and dimension of the file at ``path``, and
    its non-blank rows after the header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        msg = f"{path}: empty {what} file"
        raise ValueError(msg)
    header = lines[0].strip()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "#nodes" or parts[2] != "#dim":
        msg = f"{path}: malformed header {header!r}, expected '#nodes <N> #dim <d>'"
        raise ValueError(msg)
    try:
        count, dim = int(parts[1]), int(parts[3])
    except ValueError:
        msg = f"{path}: non-integer header fields in {header!r}"
        raise ValueError(msg) from None
    if count < 0 or dim < 1:
        msg = f"{path}: header declares invalid sizes (N={count}, d={dim})"
        raise ValueError(msg)
    return count, dim, [line for line in lines[1:] if line.strip()]


def _parse_vector_row(
    row: str, labelled: bool, seen: Mapping[str, object], dim: int, path: Path
) -> tuple[str, int | None, list[float]]:
    """Id, label (``None`` unless ``labelled``) and coordinates of one
    vector row; ``seen`` holds the ids read before it.  Finiteness is left
    to :func:`_parse_corpus`."""
    fields = row.split("\t")
    if len(fields) != 2 + labelled:
        msg = f"{path}: malformed {'dataset' if labelled else 'vector'} row {row!r}"
        raise ValueError(msg)
    item_id, raw_values = fields[0], fields[-1]
    if item_id in seen:
        msg = f"{path}: duplicate item id {item_id!r}"
        raise ValueError(msg)
    label = None
    if labelled:
        try:
            label = int(fields[1])
        except ValueError:
            msg = f"{path}: non-integer cluster label for {item_id!r}"
            raise ValueError(msg) from None
        if not _LABEL_MIN <= label <= _LABEL_MAX:
            msg = f"{path}: cluster label for {item_id!r} is out of range"
            raise ValueError(msg)
    pieces = raw_values.split(",")
    if len(pieces) != dim:
        msg = f"{path}: vector {item_id!r} has {len(pieces)} coordinates, expected {dim}"
        raise ValueError(msg)
    try:
        return item_id, label, [float(piece) for piece in pieces]
    except ValueError:
        msg = f"{path}: vector {item_id!r} has a non-numeric coordinate"
        raise ValueError(msg) from None


def _parse_corpus(rows: list[str], labelled: bool, dim: int, path: Path) -> tuple[Embeddings, dict[str, int | None]]:
    """The vectors of ``rows`` and the label read beside each id.

    On the first row error the rows before it are validated first, so a
    non-finite coordinate is reported before any error in a later row,
    while a row's own format errors still come before its non-finite check.
    """
    labels: dict[str, int | None] = {}
    values: list[list[float]] = []
    error: ValueError | None = None
    for row in rows:
        try:
            item_id, label, row_values = _parse_vector_row(row, labelled, labels, dim, path)
        except ValueError as exc:
            error = exc
            break
        labels[item_id] = label
        values.append(row_values)
    corpus = Embeddings.from_matrix(tuple(labels), np.array(values, dtype=np.float64).reshape(len(values), dim))
    if error is not None:
        raise error
    return corpus, labels


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


def save_dataset(dataset: SyntheticDataset, path: str | Path) -> Path:
    return _write(path, dataset.points, "dataset", labels=dataset.labels)


def load_dataset(path: str | Path) -> SyntheticDataset:
    path = Path(path)
    count, dim, rows = _read(path, "dataset")
    if len(rows) != count:
        msg = f"{path}: header declares {count} rows, found {len(rows)}"
        raise ValueError(msg)
    points, labels = _parse_corpus(rows, True, dim, path)
    return SyntheticDataset(points=points, labels=np.array(list(labels.values()), dtype=np.int64), spec=None)


def save_graph(graph: SemanticGraph, path: str | Path) -> Path:
    ids = graph.node_ids
    columns = (graph.sources.tolist(), graph.targets.tolist(), graph.weights.tolist(), graph.kind.tolist())
    edge_rows = (f"{ids[s]}\t{ids[t]}\t{w!r}\t{EDGE_KINDS[k]}\n" for s, t, w, k in zip(*columns))
    return _write(path, graph.nodes, "graph", edge_rows=edge_rows)


def load_graph(path: str | Path) -> SemanticGraph:
    path = Path(path)
    count, dim, rows = _read(path, "graph")
    if len(rows) < count:
        msg = f"{path}: header declares {count} vector rows, found {len(rows)}"
        raise ValueError(msg)
    nodes, _ = _parse_corpus(rows[:count], False, dim, path)
    return SemanticGraph.from_named(nodes, _parse_edge_rows(rows[count:], path))
