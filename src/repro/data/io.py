"""Dataset persistence: CSV (human-inspectable) and NPZ (fast) round-trips.

The CSV layout is one point per row, coordinates first, followed by an
optional integer ``label`` column.  Ground-truth dimension sets travel in
a ``# cluster_dims:`` header comment so a CSV written by
:func:`save_csv` reloads losslessly with :func:`load_csv`.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from ..exceptions import DataError
from ..validation import check_path
from .dataset import Dataset

__all__ = ["save_csv", "load_csv", "save_npz", "load_npz"]

PathLike = Union[str, Path]

_DIMS_HEADER = "# cluster_dims:"
_NAME_HEADER = "# name:"


def save_csv(dataset: Dataset, path: PathLike) -> Path:
    """Write ``dataset`` to CSV; returns the path written."""
    path = check_path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{_NAME_HEADER} {dataset.name}\n")
        if dataset.cluster_dimensions is not None:
            payload = {str(k): list(v) for k, v in dataset.cluster_dimensions.items()}
            fh.write(f"{_DIMS_HEADER} {json.dumps(payload)}\n")
        header = ",".join(f"x{j}" for j in range(dataset.n_dims))
        if dataset.labels is not None:
            header += ",label"
        fh.write(header + "\n")
        for i in range(dataset.n_points):
            row = ",".join(repr(float(v)) for v in dataset.points[i])
            if dataset.labels is not None:
                row += f",{int(dataset.labels[i])}"
            fh.write(row + "\n")
    return path


def load_csv(path: PathLike, *, allow_nonfinite: bool = False) -> Dataset:
    """Read a dataset previously written by :func:`save_csv`.

    The preamble -- ``# name:`` and ``# cluster_dims:`` lines, then the
    column header -- is read line by line; those two keys are honoured
    only before the header, where :func:`save_csv` writes them.  The
    body is parsed by one ``np.loadtxt`` call, which skips blank lines
    and ``#`` comments, and reads each float as ``float()`` does, so a
    round trip is bit-exact.  A malformed cell, a non-integer label, a
    row whose width differs from the header's, an unreadable file or a
    file without data rows raises :class:`~repro.exceptions.DataError`.

    ``allow_nonfinite=True`` accepts NaN/inf cells (e.g. dirty exports
    headed for the sanitization pipeline) instead of raising
    :class:`~repro.exceptions.DataError`.
    """
    path = check_path(path)
    name = path.stem
    cluster_dims = None
    line = ""
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith(_NAME_HEADER):
                    name = line[len(_NAME_HEADER):].strip()
                elif line.startswith(_DIMS_HEADER):
                    cluster_dims = json.loads(line[len(_DIMS_HEADER):])
                elif line and not line.startswith("#"):
                    break  # the column header
            has_labels = line.split(",")[-1].strip() == "label"
            d = line.count(",") + 1 - has_labels
            fields = [("p", "f8", (d,)), ("label", "i8")][:1 + has_labels]
            # without a header fh is at EOF, so this warns "no data" too
            with warnings.catch_warnings():
                warnings.filterwarnings("error", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=fields, delimiter=",",
                                  comments="#", ndmin=1)
    except UserWarning:
        raise DataError(f"{path} contains no data rows")
    except ValueError as exc:
        raise DataError(f"{path}: malformed CSV: {exc}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}")
    return Dataset(
        points=rows["p"],
        labels=rows["label"] if has_labels else None,
        cluster_dimensions=cluster_dims,
        name=name,
        allow_nonfinite=allow_nonfinite,
    )


def save_npz(dataset: Dataset, path: PathLike) -> Path:
    """Write ``dataset`` to a compressed ``.npz``; returns the path."""
    path = check_path(path)
    arrays = {"points": dataset.points, "name": np.asarray(dataset.name)}
    if dataset.labels is not None:
        arrays["labels"] = dataset.labels
    if dataset.cluster_dimensions is not None:
        payload = {str(k): list(v) for k, v in dataset.cluster_dimensions.items()}
        arrays["cluster_dims_json"] = np.asarray(json.dumps(payload))
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_npz(path: PathLike) -> Dataset:
    """Read a dataset previously written by :func:`save_npz`.

    An unreadable file, a file that is not an ``.npz`` archive (a bare
    ``.npy`` array, pickled data, anything else), an archive without a
    ``points`` array and a malformed ``cluster_dims_json`` raise
    :class:`~repro.exceptions.DataError`.
    """
    path = check_path(path)
    try:
        # an archive only: np.load would also hand back a bare .npy array
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as data:
            points = data["points"]
            labels = data.get("labels")
            # a missing entry reads as JSON null: no dimension sets
            cluster_dims = json.loads(str(data.get("cluster_dims_json",
                                                   "null")))
            name = str(data.get("name", path.stem))
    except KeyError:
        raise DataError(f"{path} holds no 'points' array")
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # a missing, unreadable or non-zip file, a pickled or corrupt
        # member, or cluster_dims_json that is not JSON
        raise DataError(f"cannot read {path} as an .npz dataset: {exc}")
    return Dataset(points=points, labels=labels,
                   cluster_dimensions=cluster_dims, name=name)
