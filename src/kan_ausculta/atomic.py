"""Atomic replacement of a saved artifact (checkpoint, feature cache, CSV)."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_write"]


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
