"""Paths to the small data files shipped inside the package.

These exist so the demos and the command line work out of the box: a
starter opinion lexicon, a toy region file with two square counties, a
labelled training table, the model trained from it, and a nine-tweet
raw corpus that walks through every pipeline stage.  Real deployments
point the tools at their own files instead.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def _path(name: str) -> Path:
    """Filesystem path of the bundled data file called name."""
    path = Path(str(resources.files("geosent") / "_data" / name))
    if not path.is_file():
        raise FileNotFoundError(f"bundled file missing: {path}")
    return path


def lexicon_path() -> Path:
    return _path("lexicon.tsv")


def regions_path() -> Path:
    return _path("regions.geojson")


def corpus_path() -> Path:
    return _path("corpus.jsonl")


def training_path() -> Path:
    return _path("train.tsv")


def model_path() -> Path:
    return _path("model.nb")
