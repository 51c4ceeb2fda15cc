"""Persist fitted results: save/load :class:`ProclusResult` as ``.npz``.

A fitted projected clustering is often computed once and consumed by
downstream jobs (reporting, the query server, assignment of new
records).  The format is a single compressed ``.npz``: arrays stored
natively, scalar/structured metadata as one JSON blob — no pickle, so
files are safe to share.

Two integrity guarantees, both motivated by the serving path (a daemon
hot-loading a model must never serve a half-written file):

* **Atomic writes** — :func:`save_result` stages the payload through
  :func:`repro.robustness.atomicio.atomic_write` (write-temp-then-
  ``os.replace``), so a crash mid-save can never leave a truncated
  model at the destination path.
* **Content fingerprint** — format version 2 embeds a sha256 digest of
  the arrays and the metadata blob.  :func:`load_result` recomputes and
  compares it; a corrupt, truncated, or tampered file raises
  :class:`~repro.exceptions.CheckpointError` (CLI exit code 4), the
  same typed failure the checkpoint/resume machinery uses for an
  unusable on-disk artifact.  Version-1 files (pre-fingerprint) still
  load.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from ..exceptions import CheckpointError, DataError
from ..robustness.atomicio import atomic_write
from ..validation import check_path
from .result import ProclusResult

__all__ = ["save_result", "load_result", "load_result_with_fingerprint",
           "result_fingerprint"]

PathLike = Union[str, Path]

_FORMAT_VERSION = 2
#: Format versions :func:`load_result` accepts (1 = legacy, no
#: fingerprint; 2 = fingerprinted).
_READABLE_VERSIONS = (1, 2)


def _content_fingerprint(labels: np.ndarray, medoids: np.ndarray,
                         medoid_indices: np.ndarray, meta_json: str) -> str:
    """sha256 over the saved arrays (dtype+shape+bytes) and metadata."""
    digest = hashlib.sha256()
    for array in (labels, medoids, medoid_indices):
        arr = np.ascontiguousarray(array)
        digest.update(arr.dtype.str.encode("utf-8"))
        digest.update(repr(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    digest.update(meta_json.encode("utf-8"))
    return digest.hexdigest()


def _resolve_npz_path(path: PathLike) -> Path:
    """The on-disk path ``np.savez`` semantics would produce."""
    path = check_path(path)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


def save_result(result: ProclusResult, path: PathLike) -> Path:
    """Write ``result`` to ``path`` (``.npz``) atomically; returns the path.

    The file lands under its final name only after the complete payload
    (including the content fingerprint) has been written — a reader can
    never observe a torn save.
    """
    final = _resolve_npz_path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "dimensions": {str(k): list(v) for k, v in result.dimensions.items()},
        "objective": result.objective,
        "iterative_objective": result.iterative_objective,
        "n_iterations": result.n_iterations,
        "n_improvements": result.n_improvements,
        "objective_history": list(result.objective_history),
        "phase_seconds": dict(result.phase_seconds),
        "terminated_by": result.terminated_by,
        "warnings": list(result.warnings),
        "degraded": bool(result.degraded),
        "cache_stats": result.cache_stats,
        "parallelism": result.parallelism,
        "fault_tolerance": result.fault_tolerance,
        "profile": result.profile,
    }
    meta_json = json.dumps(meta)
    fingerprint = _content_fingerprint(
        result.labels, result.medoids, result.medoid_indices, meta_json)
    with atomic_write(final) as tmp:
        # write through a file handle so numpy cannot re-suffix the
        # staging path out from under the atomic replace
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh,
                labels=result.labels,
                medoids=result.medoids,
                medoid_indices=result.medoid_indices,
                meta_json=np.asarray(meta_json),
                fingerprint=np.asarray(fingerprint),
            )
    return final


def load_result(path: PathLike) -> ProclusResult:
    """Read a result previously written by :func:`save_result`.

    Raises
    ------
    CheckpointError
        The file is corrupt, truncated, or its content fingerprint does
        not match — loading it would serve a model that differs from
        what was saved.
    DataError
        The file is a well-formed archive but not a saved
        :class:`ProclusResult`, or its format version is unreadable.
    """
    return load_result_with_fingerprint(path)[0]


def load_result_with_fingerprint(
        path: PathLike) -> Tuple[ProclusResult, str]:
    """Like :func:`load_result`, plus the file's content fingerprint.

    The fingerprint comes from the *same single read* as the arrays —
    callers that need both (the query server pairing responses with a
    model identity) must not re-read the file, because a concurrent
    atomic replace between two reads would pair one file's arrays with
    another file's fingerprint.  For version-2 files this is the stored
    (and verified) sha256; for legacy version-1 files it is computed
    from the loaded content.
    """
    path = check_path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            try:
                meta_json = str(data["meta_json"])
                labels = data["labels"]
                medoids = data["medoids"]
                medoid_indices = data["medoid_indices"]
            except KeyError as exc:
                raise DataError(
                    f"{path} is not a saved ProclusResult: missing {exc}")
            stored_fingerprint = (
                str(data["fingerprint"]) if "fingerprint" in data else None)
    except DataError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        # numpy raises plain ValueError for torn/garbled array payloads
        raise CheckpointError(
            f"saved result {path} is corrupt or truncated: {exc}")
    try:
        meta = json.loads(meta_json)
    except ValueError as exc:
        raise CheckpointError(
            f"saved result {path} has an unreadable metadata blob: {exc}")
    version = meta.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise DataError(
            f"{path} has format version {version}; this library reads "
            f"versions {list(_READABLE_VERSIONS)}"
        )
    fingerprint = _content_fingerprint(labels, medoids, medoid_indices,
                                       meta_json)
    if version >= 2 and stored_fingerprint != fingerprint:
        raise CheckpointError(
            f"saved result {path} fails its content fingerprint check "
            f"(stored {stored_fingerprint!r}); the file was tampered "
            "with or corrupted after the save"
        )
    result = ProclusResult(
        labels=labels,
        medoids=medoids,
        medoid_indices=medoid_indices,
        dimensions={int(k): tuple(v) for k, v in meta["dimensions"].items()},
        objective=float(meta["objective"]),
        iterative_objective=float(meta.get("iterative_objective", np.inf)),
        n_iterations=int(meta["n_iterations"]),
        n_improvements=int(meta["n_improvements"]),
        objective_history=[float(x) for x in meta["objective_history"]],
        phase_seconds={k: float(v) for k, v in meta["phase_seconds"].items()},
        terminated_by=str(meta["terminated_by"]),
        warnings=[str(m) for m in meta.get("warnings", [])],
        degraded=bool(meta.get("degraded", False)),
        cache_stats=meta.get("cache_stats"),
        parallelism=meta.get("parallelism"),
        fault_tolerance=meta.get("fault_tolerance"),
        profile=meta.get("profile"),
    )
    return result, fingerprint


def result_fingerprint(path: PathLike) -> str:
    """The content fingerprint of a saved result file.

    For version-2 files this is the stored (and verified) sha256; for
    legacy version-1 files the digest is computed on the fly so callers
    (the query server's model registry) always get a stable identity.
    """
    path = check_path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if "fingerprint" in data:
                return str(data["fingerprint"])
            try:
                return _content_fingerprint(
                    data["labels"], data["medoids"], data["medoid_indices"],
                    str(data["meta_json"]))
            except KeyError as exc:
                raise DataError(
                    f"{path} is not a saved ProclusResult: missing {exc}")
    except DataError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"saved result {path} is corrupt or truncated: {exc}")
