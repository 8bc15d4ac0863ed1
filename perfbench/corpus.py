"""Deterministic synthetic respiratory-sound corpus.

Writes int16 PCM WAV files named ``<pid>_1b1_Al_sc_Meditron.wav`` (the
ICBHI 2017 naming scheme) at a mix of 4 kHz, 10 kHz and 44.1 kHz, plus a
``patient-id<TAB>diagnosis`` table. Each class has its own content -- a
tone, a crackle rate and a breathing period -- so a classifier trained on
the extracted features converges.

Two extra files exercise the rejects path of ``dataset.ingest``: one
recording whose table row names a diagnosis outside the six classes, and
one recording with no table row at all. ``REJECTS`` is their count.

With ``anchors=True`` the first recordings (one per rate, ``ANCHORS``) do
not depend on the seed: their feature rows are compared with the committed
``extract-reference.npz``, so a change in the program's output shows
whatever seed the run uses.

The same arguments give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io.wavfile

RATES = (4000, 10000, 44100)
REJECTS = 2
# the seed-independent recordings of ``anchors=True``: pid 101 + k, at RATES[k]
ANCHORS = ("COPD", "Pneumonia", "Bronchiectasis")
ANCHOR_SEED = 20170101

# class -> (tone Hz, crackles per second, breathing period s); every tone
# sits inside the 100-2000 Hz band the feature extractor keeps
SIGNATURES = {
    "Healthy": (180.0, 0.0, 4.0),
    "COPD": (260.0, 2.0, 5.0),
    "Bronchiectasis": (420.0, 8.0, 3.0),
    "Bronchiolitis": (600.0, 4.0, 2.0),
    "Pneumonia": (820.0, 12.0, 2.5),
    "URTI": (1100.0, 1.0, 3.5),
}


# the generated corpus of each audio workload
SPECS = {
    # ICBHI-like imbalance with every class at or above the ingest floor of 10;
    # 2 s clips, since the per-epoch re-extractions dominate a train call
    "cv-audio": {
        "class_counts": {"COPD": 70, "Pneumonia": 12, "Healthy": 12, "URTI": 11,
                         "Bronchiectasis": 10, "Bronchiolitis": 10},
        "clip_seconds": 2.0,
    },
    # every class at the ingest floor of 10 (COPD a little above): 64 recordings
    # of full length keep one extract call at 8-11 s, so a 30 s run times three
    # or four calls (workloads.measure stops when the next call would end more
    # than half a call past the deadline)
    "extract-corpus": {
        "class_counts": {"COPD": 14, "Pneumonia": 10, "Healthy": 10, "URTI": 10,
                         "Bronchiectasis": 10, "Bronchiolitis": 10},
        "clip_seconds": 20.0,
        "anchors": True,
    },
}


@dataclass
class Corpus:
    audio_dir: Path
    table: Path
    recordings: int  # rows ingest keeps
    files: int  # WAV files written, rejects included
    bytes: int


def _synthesize(rng, class_name: str, rate: int, seconds: float) -> np.ndarray:
    tone_hz, crackle_rate, period = SIGNATURES[class_name]
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    tone_hz *= 1.0 + 0.03 * rng.standard_normal()
    period *= 1.0 + 0.05 * rng.standard_normal()
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    signal = 0.35 * envelope * np.sin(2 * np.pi * tone_hz * t)
    signal += 0.1 * envelope * rng.standard_normal(n)

    n_crackles = rng.poisson(crackle_rate * seconds)
    width = max(4, int(0.004 * rate))
    burst = np.exp(-np.arange(width) / (0.25 * width)) * np.sin(
        2 * np.pi * 1500.0 * np.arange(width) / rate
    )
    for start in rng.integers(0, max(1, n - width), size=n_crackles):
        signal[start : start + width] += 0.5 * burst

    signal /= max(1e-9, np.max(np.abs(signal)))
    return np.round(0.8 * 32767 * signal).astype(np.int16)


def wav_name(k: int) -> str:
    return f"{101 + k}_1b1_Al_sc_Meditron.wav"


def generate(out_dir, seed: int, class_counts: dict, clip_seconds: float,
             anchors: bool = False) -> Corpus:
    """Write the corpus under ``out_dir`` (which must be empty or absent)."""
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=False)
    rng = np.random.default_rng(seed)

    counts = dict(class_counts)
    fixed = list(ANCHORS) if anchors else []
    for name in fixed:
        counts[name] -= 1
    plan = [name for name in SIGNATURES for _ in range(counts.get(name, 0))]
    plan = fixed + [plan[i] for i in rng.permutation(len(plan))]
    # the two rejects: an unknown diagnosis, then a recording with no table row
    plan += ["Asthma", None]

    rows = []
    total = 0
    for k, diagnosis in enumerate(plan):
        pid = 101 + k
        rate = RATES[k % len(RATES)]
        content = diagnosis if diagnosis in SIGNATURES else "Healthy"
        source = np.random.default_rng([ANCHOR_SEED, k]) if k < len(fixed) else rng
        path = audio_dir / wav_name(k)
        scipy.io.wavfile.write(path, rate, _synthesize(source, content, rate, clip_seconds))
        total += path.stat().st_size
        if diagnosis is not None:
            rows.append(f"{pid}\t{diagnosis}\n")

    table = out_dir / "diagnosis.txt"
    table.write_text("".join(rows))
    return Corpus(
        audio_dir=audio_dir,
        table=table,
        recordings=len(plan) - REJECTS,
        files=len(plan),
        bytes=total,
    )
