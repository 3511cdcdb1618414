"""The data files shipped inside the package."""

import pytest

from geosent import bundled

PATHS = [bundled.lexicon_path, bundled.regions_path, bundled.corpus_path,
         bundled.training_path, bundled.model_path]


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__)
def test_every_bundled_file_exists(path):
    assert path().is_file()


def test_missing_bundled_file_is_named(monkeypatch, tmp_path):
    monkeypatch.setattr(bundled.resources, "files", lambda package: tmp_path)
    with pytest.raises(FileNotFoundError) as raised:
        bundled.model_path()
    assert str(raised.value) == f"bundled file missing: {tmp_path / '_data' / 'model.nb'}"
