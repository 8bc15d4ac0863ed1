"""Every loader of an outside file either loads a damaged copy or raises its documented error.

Each test flips bits in, truncates, or inserts bytes into a valid file and
hands the result to the loader: ``DataError`` for audio, the feature cache,
checkpoints and reports, ``ValueError`` for a config file. Any other
exception escapes ``cli.main``'s exit-code mapping as a traceback.
"""

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

from kan_ausculta.config import load_config, parse_config_file
from kan_ausculta.errors import DataError
from kan_ausculta.features import load_feature_cache, read_wav, save_feature_cache
from kan_ausculta.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from kan_ausculta.report import export, load_report
from test_report import make_report

# derandomized: tier-1 sees the same mutations on every run
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

CONFIG_TEXT = """\
# a run's settings
seed = 3
folds = 4
train.stage2_max_epochs = 6
train.early_stop_threshold = 1e-4
augment.enabled = true
augment.prob.URTI = 0.6
augment.pitch.Pneumonia = 1.5
smote.target_ratio = 0.5
"""


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """``original`` after one to three bit flips, truncations or insertions."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if kind == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "insert":
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """name -> (the bytes of a valid file, the path a mutant is written to)."""
    root = tmp_path_factory.mktemp("valid")
    samples = np.random.default_rng(0).integers(-3000, 3000, size=(200, 2)).astype(np.int16)
    scipy.io.wavfile.write(root / "clip.wav", 8000, samples)
    save_feature_cache(root / "cache.npz", "fp", ["a.wav", "b.wav", "c.wav"],
                       np.arange(12.0).reshape(3, 4), labels=np.array([0, 1, 2]))
    model = build_model(3, 2, np.random.default_rng(1),
                        ModelConfig(lstm_hidden=2, kan_hidden=2, dropout=0.0))
    save_checkpoint(model, root / "model.npz", fingerprint="fp", scaler_mean=np.zeros(3),
                    scaler_scale=np.ones(3), meta={"fold": 0})
    export(make_report(), root / "run")
    (root / "run.cfg").write_text(CONFIG_TEXT)
    files = {"clip.wav": root / "clip.wav", "cache.npz": root / "cache.npz",
             "model.npz": root / "model.npz", "report.json": root / "run" / "report.json",
             "run.cfg": root / "run.cfg"}
    mutant_dir = tmp_path_factory.mktemp("mutants")
    return {name: (path.read_bytes(), mutant_dir / name) for name, path in files.items()}


def mutant(valid, name, data):
    """Writes ``data`` where the loader under test reads the mutant of ``name``."""
    path = valid[name][1]
    path.write_bytes(data(mutations(valid[name][0])))
    return path


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@FUZZ
@given(data=st.data())
def test_read_wav(valid, data):
    try:
        read_wav(mutant(valid, "clip.wav", data.draw))
    except DataError:
        pass


@FUZZ
@given(data=st.data())
def test_load_feature_cache(valid, data):
    try:
        load_feature_cache(mutant(valid, "cache.npz", data.draw), expected_fingerprint="fp")
    except DataError:
        pass


@FUZZ
@given(data=st.data())
def test_load_checkpoint(valid, data):
    try:
        load_checkpoint(mutant(valid, "model.npz", data.draw), expected_fingerprint="fp")
    except DataError:
        pass


@FUZZ
@given(data=st.data())
def test_load_report(valid, data):
    try:
        load_report(mutant(valid, "report.json", data.draw))
    except DataError:
        pass


@FUZZ
@given(data=st.data())
def test_parse_config_file(valid, data):
    path = mutant(valid, "run.cfg", data.draw)
    try:
        parse_config_file(path)
        load_config(path=path)  # the values too, as the CLI reads them
    except ValueError:
        pass


def test_the_valid_files_load(valid):
    paths = {name: path for name, (_, path) in valid.items()}
    for original, path in valid.values():
        path.write_bytes(original)
    assert read_wav(paths["clip.wav"]).samples.shape == (200,)
    assert load_feature_cache(paths["cache.npz"], expected_fingerprint="fp")[2].shape == (3, 4)
    assert load_checkpoint(paths["model.npz"], expected_fingerprint="fp")[1]["meta"] == {"fold": 0}
    assert load_report(paths["report.json"]).seed == 7
    assert load_config(path=paths["run.cfg"]).folds == 4
