"""Dataset file formats.

JSON: ``{"dimension": d, "sequences": [[[x1, ..., xd], ...], ...]}``; the
optional ``dimension`` must be an int >= 1.

CSV: header ``seq_id,t,x1,...,xd``, one vertex per row, rows ordered by
(seq_id, t); sequences appear in first-occurrence order of seq_id.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .core import Dataset, PointSequence
from .errors import DomainError

FORMATS = ("json", "csv")


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt:
        if fmt not in FORMATS:
            raise DomainError(f"unknown dataset format {fmt!r}")
        return fmt
    suffix = path.suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise DomainError(f"cannot infer dataset format from {path.name!r}; pass --format")


def _dataset_from_obj(obj) -> Dataset:
    if not isinstance(obj, dict) or "sequences" not in obj:
        raise DomainError("dataset JSON must be an object with a 'sequences' key")
    seqs = obj["sequences"]
    if not isinstance(seqs, list) or not seqs:
        raise DomainError("dataset must contain at least one sequence")
    dim = obj.get("dimension")
    if "dimension" in obj and (isinstance(dim, bool) or not isinstance(dim, int) or dim < 1):
        raise DomainError(f"dataset field 'dimension' must be an int >= 1, got {dim!r}")
    out = []
    for si, rows in enumerate(seqs):
        if not isinstance(rows, list) or not rows:
            raise DomainError(f"sequence {si} is empty")
        for vi, row in enumerate(rows):
            if not isinstance(row, list):
                raise DomainError(
                    f"sequence {si}, vertex {vi}: expected a coordinate list"
                )
            if dim is not None and len(row) != dim:
                raise DomainError(
                    f"sequence {si}, vertex {vi}: expected {dim} coordinates, "
                    f"got {len(row)}"
                )
        out.append(PointSequence(rows))
    return Dataset(out)


def _dataset_from_csv(path: Path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "seq_id" or header[1] != "t":
            raise DomainError(
                f"{path}: expected header seq_id,t,x1,...; got {header!r}"
            )
        width = len(header)
        groups: dict[str, list[tuple[float, list[float]]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DomainError(
                    f"{path}, row {lineno}: expected {width} columns, got {len(row)}"
                )
            try:
                t, *coords = map(float, row[1:])
                if not math.isfinite(t):
                    raise ValueError(f"t must be finite, got {row[1]!r}")
            except ValueError as exc:
                raise DomainError(f"{path}, row {lineno}: {exc}") from None
            groups.setdefault(row[0], []).append((t, coords))
    if not groups:
        raise DomainError(f"{path}: no vertex rows")
    out = []
    for rows in groups.values():
        rows.sort(key=lambda item: item[0])
        out.append(PointSequence([coords for _, coords in rows]))
    return Dataset(out)


def load_input(path, fmt: str | None = None) -> Dataset | list:
    """A dataset file's dataset, or the entries of a JSON run list.

    A run list is a JSON object with a ``runs`` key, which must hold a list.
    """
    path = Path(path)
    if _infer_format(path, fmt) == "csv":
        return _dataset_from_csv(path)
    text = path.read_text()
    if not text.strip():
        raise DomainError(f"{path}: empty file")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON ({exc})") from None
    if not (isinstance(obj, dict) and "runs" in obj):
        return _dataset_from_obj(obj)
    if not isinstance(obj["runs"], list):
        raise DomainError(f"{path}: 'runs' must be a list of run configs")
    return obj["runs"]


def load_dataset(path, fmt: str | None = None) -> Dataset:
    """Read and validate a dataset file; see the module docstring for schemas."""
    T = load_input(path, fmt)
    if not isinstance(T, Dataset):
        raise DomainError(f"{path}: holds a run list, not a dataset")
    return T


def dataset_to_obj(T: Dataset) -> dict:
    return {
        "dimension": T.dimension,
        "sequences": [s.as_list() for s in T.sequences],
    }


def save_dataset(T: Dataset, path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "json":
        path.write_text(json.dumps(dataset_to_obj(T), indent=2) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq_id", "t"] + [f"x{i + 1}" for i in range(T.dimension)])
        for si, s in enumerate(T.sequences):
            for t, row in enumerate(s.vertices):
                writer.writerow([si, t] + [repr(float(v)) for v in row])
