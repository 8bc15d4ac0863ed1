"""Saved artifacts (checkpoint, feature cache, CSV, run directory): atomic writes, guarded reads."""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["atomic_write", "read_npz", "staged_directory", "write_text"]


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


def write_text(path, text: str) -> None:
    """Replace ``path`` with ``text``; a failed write or rename keeps the previous file."""
    with atomic_write(path) as staged, open(staged, "w") as fh:
        fh.write(text)


@contextlib.contextmanager
def staged_directory(out_dir):
    """Yield an empty directory inside ``out_dir``; move its files into ``out_dir`` on success.

    The caller writes one run's files into the yielded directory. When the
    block succeeds, one rename pass moves them into ``out_dir``, replacing
    files of the same name; a rename that fails part-way leaves the files
    it already moved. When the block raises, ``out_dir`` gets none of the
    files, and an ``out_dir`` this call made is removed again. The staging
    directory is removed on every path, and an ``OSError`` raises
    ``DataError`` naming ``out_dir``.
    """
    out_dir = Path(out_dir)
    made = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".export-", dir=out_dir))
    except OSError as exc:
        raise DataError(f"cannot write to {out_dir}: {exc}") from exc
    try:
        yield staging
        for staged in sorted(staging.iterdir()):
            os.replace(staged, out_dir / staged.name)
    except BaseException as exc:
        shutil.rmtree(staging, ignore_errors=True)
        if made:
            with contextlib.suppress(OSError):
                out_dir.rmdir()  # only if empty: a rename may have moved files in
        if isinstance(exc, OSError):
            raise DataError(f"export to {out_dir} failed: {exc}") from exc
        raise
    staging.rmdir()


@contextlib.contextmanager
def read_npz(path, what: str):
    """Yield the ``.npz`` archive at ``path``, open for the block.

    The file is closed however ``np.load`` fails. A file holding no archive
    (random bytes, a bare ``.npy``) or pickled arrays, a member ``zipfile``
    cannot decode (``NotImplementedError``: an encryption flag or an unknown
    compression method), and an ``OSError``, ``ValueError`` or ``KeyError``
    in the block, raise ``DataError("unreadable <what> <path>: ...")``.
    """
    try:
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                yield data
    except (OSError, EOFError, ValueError, KeyError, NotImplementedError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise DataError(f"unreadable {what} {path}: {exc}") from exc
