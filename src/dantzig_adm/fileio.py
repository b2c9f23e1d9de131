"""Matrix Market and manifest file helpers used by the command-line front end.

Matrices and vectors are stored in Matrix Market array format (real, general),
vectors as single-column matrices.  Manifests are plain ``key = value`` text
files; float values are written with repr so they read back bit-exactly.
A file that exists but does not parse raises :class:`FileFormatError`.
scipy.io is imported by the Matrix Market functions when called, so a
process that reads and writes no ``.mtx`` file (a library solve, ``bench``)
loads no scipy.  Imported with this module, it took a fresh
``import dantzig_adm.cli`` from 0.13 s to 0.22 s and added about 20 MiB of
resident pages.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class FileFormatError(ValueError):
    """An input file exists but its contents are not what the reader expects."""


def write_matrix(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    from scipy import io as spio

    spio.mmwrite(str(path), a)


def read_matrix(path) -> np.ndarray:
    if not Path(path).is_file():
        raise FileNotFoundError(f"no such file: {path}")
    from scipy import io as spio

    try:
        rows = spio.mminfo(str(path))[0]
        a = spio.mmread(str(path)) if rows else None
    except ValueError as exc:
        raise FileFormatError(f"{path} is not a Matrix Market array file: {exc}") from exc
    if not rows:  # scipy's mmread dies of SIGFPE on an array file with no rows
        raise FileFormatError(f"{path} holds a matrix with no rows")
    if not isinstance(a, np.ndarray) or a.ndim != 2:  # a coordinate file reads as sparse
        raise FileFormatError(f"{path} does not hold a dense 2-d array")
    if np.iscomplexobj(a):
        raise FileFormatError(f"{path} holds complex entries; a real matrix is expected")
    return np.asarray(a, dtype=np.float64)


def write_vector(path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {v.shape}")
    write_matrix(path, v.reshape(-1, 1))


def read_vector(path) -> np.ndarray:
    a = read_matrix(path)
    if a.shape[1] != 1:
        raise FileFormatError(f"{path} holds a {a.shape} matrix, not a column vector")
    return a[:, 0].copy()


def write_manifest(path, entries: dict) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:  # a ValueError, but not a usage error
        raise FileFormatError(f"{path} is not a text file: {exc}") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FileFormatError(f"{path}: malformed manifest line: {raw!r}")
        entries[key.strip()] = value.strip()
    return entries
