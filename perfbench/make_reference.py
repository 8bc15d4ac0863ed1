"""Write ``extract-reference.npz``: the feature rows of the reference recordings.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, and only when the program's features
are meant to change. It generates the ``extract-corpus`` corpus of seed 0,
runs ``kan-ausculta extract`` on it and keeps the rows of the
seed-independent ``corpus.ANCHORS`` recordings, which the check of every
``extract-corpus`` run compares with its own.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from kan_ausculta import cli  # noqa: E402
from kan_ausculta.features import load_feature_cache  # noqa: E402


def main() -> int:
    work = Path.cwd() / ".perfbench_work" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    made = corpus.generate(work / "corpus", 0, **corpus.SPECS["extract-corpus"])
    cache = work / "features.npz"
    code = cli.main(["extract", "--data", str(made.audio_dir), "--diagnosis", str(made.table),
                     "--out", str(cache)])
    if code != 0:
        return code
    _, paths, matrix, _ = load_feature_cache(cache)
    names = [corpus.wav_name(k) for k in range(len(corpus.ANCHORS))]
    where = {Path(p).name: i for i, p in enumerate(paths)}
    np.savez_compressed(checks.REFERENCE_ROWS, names=np.array(names),
                        rows=np.stack([matrix[where[n]] for n in names]))
    shutil.rmtree(work)
    print(f"wrote {len(names)} reference rows to {checks.REFERENCE_ROWS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
