"""Saved artifacts (checkpoint, feature cache, CSV): atomic replacement, guarded reading."""

from __future__ import annotations

import contextlib
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["atomic_write", "read_npz"]


@contextlib.contextmanager
def atomic_write(path):
    """Yield a staging path next to ``path``; rename it over ``path`` on success.

    The caller writes the whole file to the staging path. If anything inside
    the block or the rename fails, the staged file is removed and ``path``
    keeps its previous content.
    """
    path = Path(path)
    staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield staged
        os.replace(staged, path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def read_npz(path, what: str):
    """Yield the ``.npz`` archive at ``path``, open for the block.

    The file is closed however ``np.load`` fails. A file holding no archive
    (random bytes, a bare ``.npy``) or pickled arrays, and an ``OSError``,
    ``ValueError`` or ``KeyError`` in the block, raise
    ``DataError("unreadable <what> <path>: ...")``.
    """
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                yield data
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"unreadable {what} {path}: {exc}") from exc
