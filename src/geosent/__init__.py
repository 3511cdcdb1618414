"""Geolocated tweet sentiment: collect, score by region, and render.

The pipeline runs in three tables.  Raw JSON lines are collected
verbatim, parsed into a tab-separated table of geolocated tweets, and
scored into per-region, per-bucket sentiment rows.  Two independent
scorers are included (an opinion-word lexicon and a Naive Bayes
classifier trained from emoticon-labelled tweets), and the scored table
feeds KML map overlays, SVG tile maps, and SVG line graphs.
"""

from .classifier import (
    LabeledTweet,
    ModelAnalyser,
    NBModel,
    classify,
    distant_label,
    evaluate,
    load_model,
    save_model,
    train,
)
from .estimator import (
    AggregationSpec,
    ScoreSeries,
    aggregate,
    aggregate_many,
    compute_pss,
    correlate,
    series_from_rows,
)
from .georesolve import RegionIndex, load_regions, resolve
from .ingest import CollectorStats, collect, parse_and_aggregate, parse_corpus, parse_record
from .lexicon import DictionaryAnalyser, Lexicon, load_lexicon
from .store import (
    APPROACHES,
    LEVELS,
    ParsedTweet,
    ScoreRow,
    read_scores,
    write_scores,
)
from .visualize import color_for, emit_kml, emit_linegraph, emit_tilemap

__version__ = "0.1.0"

__all__ = [
    "APPROACHES",
    "AggregationSpec",
    "CollectorStats",
    "DictionaryAnalyser",
    "LEVELS",
    "LabeledTweet",
    "Lexicon",
    "ModelAnalyser",
    "NBModel",
    "ParsedTweet",
    "RegionIndex",
    "ScoreRow",
    "ScoreSeries",
    "aggregate",
    "aggregate_many",
    "classify",
    "collect",
    "color_for",
    "compute_pss",
    "correlate",
    "distant_label",
    "emit_kml",
    "emit_linegraph",
    "emit_tilemap",
    "evaluate",
    "load_lexicon",
    "load_model",
    "load_regions",
    "parse_and_aggregate",
    "parse_corpus",
    "parse_record",
    "read_scores",
    "resolve",
    "save_model",
    "series_from_rows",
    "train",
    "write_scores",
]
