"""Recording index: join audio files to a diagnosis table and filter classes.

Expected inputs: a directory of WAV files whose names start with the
patient id followed by an underscore (``101_1b1_Al_sc_Meditron.wav``) and
a delimited text table of (patient id, diagnosis) rows. Diagnoses are
matched case-insensitively against the six supported classes; anything
else lands in a rejects report. Classes that end up with fewer than the
minimum recording count are dropped with a logged summary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["CLASS_NAMES", "IndexRow", "DatasetIndex", "IngestResult", "ingest"]

log = logging.getLogger(__name__)

CLASS_NAMES = ("Healthy", "COPD", "Bronchiectasis", "Bronchiolitis", "Pneumonia", "URTI")


@dataclass
class IndexRow:
    path: str
    patient_id: str
    label: int
    split: str | None = None  # "train" | "val" once folds are assigned
    fold: int | None = None


@dataclass
class DatasetIndex:
    rows: list
    class_names: tuple

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([row.label for row in self.rows], dtype=int)

    def histogram(self) -> dict:
        counts = {name: 0 for name in self.class_names}
        for row in self.rows:
            counts[self.class_names[row.label]] += 1
        return counts

    def with_folds(self, fold_of: np.ndarray, val_fold: int) -> "DatasetIndex":
        """Copy with split tags set for one validation fold."""
        rows = [
            replace(row, fold=int(fold_of[i]), split="val" if fold_of[i] == val_fold else "train")
            for i, row in enumerate(self.rows)
        ]
        return DatasetIndex(rows=rows, class_names=self.class_names)


@dataclass
class IngestResult:
    index: DatasetIndex
    rejects: list = field(default_factory=list)  # (path-or-patient, reason)
    dropped_classes: dict = field(default_factory=dict)  # name -> count


def _parse_diagnosis_table(path: Path) -> dict:
    mapping = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for sep in ("\t", ",", ";"):
            if sep in line:
                parts = [p.strip() for p in line.split(sep)]
                break
        else:
            parts = line.split()
        if len(parts) < 2:
            continue
        mapping[parts[0]] = parts[1]
    if not mapping:
        raise DataError(f"diagnosis table {path} contains no (patient, diagnosis) rows")
    return mapping


def ingest(audio_dir, diagnosis_table, min_class_count: int) -> IngestResult:
    """Build the dataset index; raises DataError on missing/empty inputs."""
    audio_dir = Path(audio_dir)
    table_path = Path(diagnosis_table)
    if not audio_dir.is_dir():
        raise DataError(f"audio directory {audio_dir} does not exist")
    if not table_path.is_file():
        raise DataError(f"diagnosis table {table_path} does not exist")

    diagnosis_of = _parse_diagnosis_table(table_path)
    canonical = {name.lower(): name for name in CLASS_NAMES}

    wavs = sorted(p for p in audio_dir.iterdir() if p.suffix.lower() == ".wav")
    if not wavs:
        raise DataError(f"no .wav files found under {audio_dir}")

    rejects = []
    by_class: dict[str, list] = {name: [] for name in CLASS_NAMES}
    for wav in wavs:
        patient = wav.name.split("_", 1)[0]
        diagnosis = diagnosis_of.get(patient)
        if diagnosis is None:
            rejects.append((str(wav), f"patient {patient} not in diagnosis table"))
            continue
        name = canonical.get(diagnosis.strip().lower())
        if name is None:
            rejects.append((str(wav), f"unknown diagnosis {diagnosis!r}"))
            continue
        by_class[name].append((str(wav), patient))

    dropped = {
        name: len(items)
        for name, items in by_class.items()
        if 0 < len(items) < min_class_count
    }
    for name, count in dropped.items():
        log.warning("dropping class %s: only %d recording(s) (< %d)", name, count, min_class_count)

    kept_names = tuple(
        name for name in CLASS_NAMES if len(by_class[name]) >= min_class_count
    )
    if not kept_names:
        raise DataError("no class satisfies the minimum recording count")

    rows = []
    for label, name in enumerate(kept_names):
        for path, patient in by_class[name]:
            rows.append(IndexRow(path=path, patient_id=patient, label=label))
    index = DatasetIndex(rows=rows, class_names=kept_names)
    log.info("ingested %d recordings: %s", len(rows), index.histogram())
    return IngestResult(index=index, rejects=rejects, dropped_classes=dropped)
