"""The committed demo outputs are exactly what the current code writes."""

import importlib.util
from pathlib import Path

import pytest

from geosent.cli import main

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load_demo(name: str):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("threads", [1, 2])
def test_full_pipeline_reproduces_committed_outputs(tmp_path, threads):
    config = tmp_path / "pipeline.cfg"
    text = _load_demo("full_pipeline").pipeline_config(tmp_path)
    config.write_text(text + f"threads={threads}\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config)]) == 0

    # pipeline.cfg holds absolute paths, so only the data files must match
    committed = {p.name for p in (DEMOS / "out").glob("pipe*")} - {"pipeline.cfg"}
    written = {p.name for p in tmp_path.iterdir()} - {"pipeline.cfg"}
    assert written == committed
    for name in sorted(committed):
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name


def test_draw_maps_reproduces_committed_outputs(tmp_path):
    _load_demo("draw_maps").main(tmp_path)
    for name in ("demo.t2.tsv", "demo.kml", "demo-tiles.svg", "demo-series.svg",
                 "demo-series.csv"):
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name


@pytest.mark.parametrize("demo, names", [
    ("parse_bundled_corpus", ["demo.t1.jsonl", "demo.t2.tsv"]),
    ("score_with_lexicon", ["demo.t2.tsv"]),
    ("train_and_classify", ["demo-model.nb"]),
])
def test_demo_reproduces_committed_outputs(tmp_path, demo, names):
    _load_demo(demo).main(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
