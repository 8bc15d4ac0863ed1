import pytest

from kan_ausculta import atomic as atomic_module
from kan_ausculta.atomic import write_text


class TestWriteText:
    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "splines.csv"
        write_text(path, "previous\n" * 100)
        before = path.read_bytes()

        if failure == "write":
            real_open = open

            class HalfWritten:
                def __init__(self, *args):
                    self.fh = real_open(*args)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, text):
                    self.fh.write(text[: len(text) // 2])
                    raise OSError("no space left on device")

            monkeypatch.setattr(atomic_module, "open", HalfWritten, raising=False)
        else:
            def refuse(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(atomic_module.os, "replace", refuse)

        with pytest.raises(OSError):
            write_text(path, "next\n" * 100)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["splines.csv"]
