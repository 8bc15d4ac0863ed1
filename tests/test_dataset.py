import numpy as np
import pytest
import scipy.io.wavfile

from kan_ausculta.dataset import CLASS_NAMES, ingest
from kan_ausculta.errors import DataError

SR = 8000


def write_tone(path, seed=0):
    rng = np.random.default_rng(seed)
    samples = (0.3 * rng.normal(size=SR // 4)).astype(np.float32)
    scipy.io.wavfile.write(path, SR, samples)


@pytest.fixture
def corpus(tmp_path):
    """12 recordings per kept class, plus rejects and a too-small class."""
    audio = tmp_path / "audio"
    audio.mkdir()
    table_lines = []
    pid = 100
    for name in ("COPD", "Healthy", "Pneumonia"):
        for k in range(12):
            write_tone(audio / f"{pid}_rec{k}_chest.wav", seed=pid * 31 + k)
        table_lines.append(f"{pid}\t{name}")
        pid += 1
    # a class below the minimum count: dropped, not rejected
    for k in range(9):
        write_tone(audio / f"{pid}_rec{k}_chest.wav", seed=pid * 31 + k)
    table_lines.append(f"{pid}\tURTI")
    pid += 1
    # unknown diagnosis: rejected
    write_tone(audio / f"{pid}_rec0_chest.wav", seed=1)
    table_lines.append(f"{pid}\tAsthma")
    pid += 1
    # recording whose patient is missing from the table: rejected
    write_tone(audio / f"{pid}_rec0_chest.wav", seed=2)
    table = tmp_path / "diagnosis.txt"
    table.write_text("\n".join(table_lines) + "\n")
    return audio, table


class TestIngest:
    def test_histogram_and_classes(self, corpus):
        audio, table = corpus
        result = ingest(audio, table, min_class_count=10)
        hist = result.index.histogram()
        assert hist == {"Healthy": 12, "COPD": 12, "Pneumonia": 12}
        # retained classes keep the canonical ordering
        assert result.index.class_names == ("Healthy", "COPD", "Pneumonia")

    def test_small_class_dropped_and_logged(self, corpus, caplog):
        audio, table = corpus
        with caplog.at_level("WARNING"):
            result = ingest(audio, table, min_class_count=10)
        assert result.dropped_classes == {"URTI": 9}
        assert any("dropping class URTI" in rec.message for rec in caplog.records)

    def test_unknown_diagnosis_and_missing_patient_rejected(self, corpus):
        audio, table = corpus
        result = ingest(audio, table, min_class_count=10)
        reasons = [reason for _, reason in result.rejects]
        assert any("unknown diagnosis 'Asthma'" in r for r in reasons)
        assert any("not in diagnosis table" in r for r in reasons)
        assert len(result.rejects) == 2

    def test_case_insensitive_mapping(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        for k in range(10):
            write_tone(audio / f"7_r{k}.wav", seed=k)
        table = tmp_path / "d.csv"
        table.write_text("7,copd\n")
        result = ingest(audio, table, min_class_count=10)
        assert result.index.histogram() == {"COPD": 10}

    def test_missing_directory_fatal(self, tmp_path):
        table = tmp_path / "d.csv"
        table.write_text("1\tCOPD\n")
        with pytest.raises(DataError):
            ingest(tmp_path / "nope", table, min_class_count=10)

    def test_empty_directory_fatal(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        table = tmp_path / "d.csv"
        table.write_text("1\tCOPD\n")
        with pytest.raises(DataError):
            ingest(audio, table, min_class_count=10)

    def test_missing_table_fatal(self, corpus, tmp_path):
        audio, _ = corpus
        with pytest.raises(DataError):
            ingest(audio, tmp_path / "missing.csv", min_class_count=10)

    def test_labels_match_class_names(self, corpus):
        audio, table = corpus
        result = ingest(audio, table, min_class_count=10)
        labels = result.index.labels()
        assert set(labels) == {0, 1, 2}
        assert all(0 <= row.label < len(result.index.class_names)
                   for row in result.index.rows)

    def test_canonical_class_list(self):
        assert CLASS_NAMES == (
            "Healthy", "COPD", "Bronchiectasis", "Bronchiolitis", "Pneumonia", "URTI"
        )
