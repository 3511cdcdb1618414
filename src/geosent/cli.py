"""Command line front end.

Exit codes: 0 on success, 1 for usage problems (bad flags, missing
required options), 2 for data problems (unreadable files, malformed
content, impossible requests).  Progress and warnings go to stderr;
stdout carries only machine-readable key=value lines and file paths.

Every subcommand accepts --config FILE holding key=value lines, one per
option, with the same names as the long flags but underscores instead
of dashes.  Flags win over the config file, which wins over defaults.
"""

from __future__ import annotations

import argparse
import logging
import sys
from datetime import datetime
from pathlib import Path

from . import bundled
from .classifier import (
    ClassifierError,
    ModelAnalyser,
    distant_label,
    evaluate,
    load_labeled,
    load_model,
    save_model,
    train,
)
from .estimator import (
    NORM_SCOPES,
    AggregationSpec,
    EstimatorError,
    aggregate_many,
    correlate,
    series_from_rows,
)
from .gencorpus import GenerateError, generate, parse_mix
from .georesolve import GeoError, load_regions
from .ingest import collect, parse_corpus
from .lexicon import DictionaryAnalyser, LexiconError, load_lexicon
from .store import (
    StoreError,
    parse_instant,
    read_scores,
    write_scores,
)
from .visualize import VisualizeError, emit_kml, emit_linegraph, emit_tilemap

log = logging.getLogger(__name__)

_DATA_ERRORS = (
    StoreError,
    GeoError,
    LexiconError,
    ClassifierError,
    EstimatorError,
    VisualizeError,
    GenerateError,
    OSError,
)

_APPROACH_ALIASES = {
    "dict": "Dictionary",
    "dictionary": "Dictionary",
    "ml": "MachineLearning",
    "machinelearning": "MachineLearning",
    "machine-learning": "MachineLearning",
}

_LEVEL_ALIASES = {"country": "Country", "county": "County"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems raise instead of exiting with 2."""

    def error(self, message):
        raise UsageError(message)


def _instant_arg(text: str) -> datetime:
    try:
        return parse_instant(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _approach_arg(text: str) -> str:
    try:
        return _APPROACH_ALIASES[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown approach {text!r}; use dictionary or ml"
        ) from None


def _level_arg(text: str) -> str:
    try:
        return _LEVEL_ALIASES[text.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown level {text!r}; use country or county"
        ) from None


def _bool_arg(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file; # starts a comment line."""
    settings: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        settings[key.strip()] = value.strip()
    return settings


def _opt(args, cfg: dict[str, str], name: str, convert, default=None, required=False):
    """Resolve one option: flag value, else config value, else default."""
    value = getattr(args, name, None)
    if value is None and name in cfg:
        try:
            value = convert(cfg[name])
        except argparse.ArgumentTypeError as err:
            raise UsageError(f"config {name}: {err}") from None
        except ValueError as err:
            raise UsageError(f"config {name}: {err}") from None
    if value is None:
        if required:
            raise UsageError(f"missing --{name.replace('_', '-')} (or {name}= in config)")
        value = default
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_collect(args, cfg):
    raw = _opt(args, cfg, "raw", str, required=True)
    source = _opt(args, cfg, "input", str, default="-")
    if source == "-":
        stats, fragment = collect(sys.stdin.buffer, raw)
    else:
        with open(source, "rb") as stream:
            stats, fragment = collect(stream, raw)
    print(f"lines_read={stats.lines_read}")
    print(f"fragment_bytes={len(fragment)}")
    return 0


def _cmd_parse(args, cfg):
    raw = _opt(args, cfg, "raw", str, required=True)
    regions = _opt(args, cfg, "regions", str, required=True)
    parsed = _opt(args, cfg, "parsed", str, required=True)
    threads = _opt(args, cfg, "threads", _positive_int, default=1)
    index = load_regions(regions)
    log.info("parsing %s", raw)
    stats = parse_corpus(raw, index, parsed, threads=threads)
    print(f"lines_read={stats.lines_read}")
    print(f"accepted={stats.accepted}")
    print(f"rejected_no_geo={stats.rejected_no_geo}")
    print(f"rejected_malformed={stats.rejected_malformed}")
    print(f"rejected_unresolved={stats.rejected_unresolved}")
    return 0


def _cmd_train(args, cfg):
    model_out = _opt(args, cfg, "model", str, required=True)
    labeled = _opt(args, cfg, "labeled", str)
    distant = _opt(args, cfg, "distant", str)
    if (labeled is None) == (distant is None):
        raise UsageError("give exactly one of --labeled or --distant")
    if labeled is not None:
        corpus = load_labeled(labeled)
    else:
        texts = Path(distant).read_text(encoding="utf-8").splitlines()
        corpus = list(distant_label(texts))
        log.info("distant labelling kept %d of %d texts", len(corpus), len(texts))
    model = train(corpus)
    save_model(model, model_out)
    print(f"documents_positive={model.doc_counts['Positive']}")
    print(f"documents_negative={model.doc_counts['Negative']}")
    print(f"vocabulary={len(model.vocabulary)}")
    return 0


def _cmd_evaluate(args, cfg):
    model_path = _opt(args, cfg, "model", str, required=True)
    test_path = _opt(args, cfg, "test", str, required=True)
    report = evaluate(load_model(model_path), load_labeled(test_path))
    print(f"total={report.total}")
    print(f"accuracy={report.accuracy!r}")
    for (truth, guess), count in sorted(report.confusion.items()):
        print(f"confusion_{truth}_{guess}={count}")
    return 0


def _score_analyser(args, cfg, approach: str):
    if approach == "Dictionary":
        lexicon_file = _opt(args, cfg, "lexicon", str, default=str(bundled.lexicon_path()))
        hashtag = _opt(args, cfg, "hashtag_match", _bool_arg, default=True)
        return DictionaryAnalyser(load_lexicon(lexicon_file), hashtag_match=hashtag)
    model_file = _opt(args, cfg, "model", str, default=str(bundled.model_path()))
    return ModelAnalyser(load_model(model_file))


def _cmd_score(args, cfg):
    parsed = _opt(args, cfg, "parsed", str, required=True)
    scores = _opt(args, cfg, "scores", str, required=True)
    approach = _opt(args, cfg, "approach", _approach_arg, required=True)
    level = _opt(args, cfg, "level", _level_arg, required=True)
    start = _opt(args, cfg, "start", _instant_arg, required=True)
    end = _opt(args, cfg, "end", _instant_arg, required=True)
    bucket = _opt(args, cfg, "bucket", _positive_int, default=86_400)
    norm_scope = _opt(args, cfg, "norm_scope", str, default="level")
    if norm_scope not in NORM_SCOPES:
        raise UsageError(f"unknown norm scope {norm_scope!r}; use one of {NORM_SCOPES}")
    threads = _opt(args, cfg, "threads", _positive_int, default=1)
    append = _opt(args, cfg, "append", _bool_arg, default=False)

    spec = AggregationSpec(level=level, window=(start, end), bucket_seconds=bucket,
                           norm_scope=norm_scope)
    analyser = _score_analyser(args, cfg, approach)
    log.info("scoring %s at %s level", parsed, level)
    [rows] = aggregate_many([(spec, analyser)], parsed, threads=threads)
    write_scores(scores, rows, append=append)
    print(f"rows={len(rows)}")
    return 0


def _cmd_correlate(args, cfg):
    scores = _opt(args, cfg, "scores", str, required=True)
    region = _opt(args, cfg, "region", str, required=True)
    level = _opt(args, cfg, "level", _level_arg, required=True)
    bucket = _opt(args, cfg, "bucket", _positive_int)

    rows = read_scores(scores)
    chosen = [row for row in rows if row.region == region and row.level == level]
    if bucket is not None:
        chosen = [
            row for row in chosen
            if (row.bucket_end - row.bucket_start).total_seconds() == bucket
        ]
    first = series_from_rows(chosen, region, "Dictionary")
    second = series_from_rows(chosen, region, "MachineLearning")
    r = correlate(first, second)
    print(f"pearson={r!r}")
    return 0


def _rows_for_bucket(rows, args, cfg, what: str):
    """Filter score rows down to one bucket, defaulting to the earliest."""
    wanted = _opt(args, cfg, "bucket_start", _instant_arg)
    if wanted is None:
        if not rows:
            raise VisualizeError(f"{what}: no matching rows in the score table")
        wanted = min(row.bucket_start for row in rows)
    return [row for row in rows if row.bucket_start == wanted]


def _cmd_render(args, cfg):
    kind = _opt(args, cfg, "kind", str, required=True)
    scores = _opt(args, cfg, "scores", str, required=True)
    out = _opt(args, cfg, "out", str, required=True)
    rows = read_scores(scores)

    if kind == "kml":
        regions = _opt(args, cfg, "regions", str, required=True)
        approach = _opt(args, cfg, "approach", _approach_arg, default="Dictionary")
        level = _opt(args, cfg, "level", _level_arg, default="Country")
        chosen = [row for row in rows if row.approach == approach and row.level == level]
        emit_kml(_rows_for_bucket(chosen, args, cfg, "kml"), load_regions(regions), out)
        print(f"kml={out}")
    elif kind == "tilemap":
        approach = _opt(args, cfg, "approach", _approach_arg, default="Dictionary")
        chosen = [row for row in rows if row.approach == approach and row.level == "County"]
        emit_tilemap(_rows_for_bucket(chosen, args, cfg, "tilemap"), out)
        print(f"tilemap={out}")
    elif kind == "linegraph":
        region = _opt(args, cfg, "region", str, required=True)
        level = _opt(args, cfg, "level", _level_arg, default="Country")
        tz_offset = _opt(args, cfg, "tz_offset", int, default=0)
        chosen = [row for row in rows if row.region == region and row.level == level]
        svg_path, csv_path = emit_linegraph(chosen, out, display_tz_offset_minutes=tz_offset)
        print(f"linegraph_svg={svg_path}")
        print(f"linegraph_csv={csv_path}")
    else:
        raise UsageError(f"unknown render kind {kind!r}; use kml, tilemap, or linegraph")
    return 0


def _cmd_gen_corpus(args, cfg):
    regions = _opt(args, cfg, "regions", str, required=True)
    out = _opt(args, cfg, "out", str, required=True)
    seed = _opt(args, cfg, "seed", int, required=True)
    start = _opt(args, cfg, "start", _instant_arg, required=True)
    duration = _opt(args, cfg, "duration", _positive_int, default=86_400)
    mix_texts = getattr(args, "mix", None) or []
    if not mix_texts and "mix" in cfg:
        mix_texts = cfg["mix"].split()
    if not mix_texts:
        raise UsageError("give at least one --mix region:positives:negatives")
    try:
        mix = [parse_mix(text) for text in mix_texts]
    except GenerateError as err:
        raise UsageError(str(err)) from None
    index = load_regions(regions)
    count = generate(index, mix, seed, out, start, duration)
    print(f"records={count}")
    return 0


def _cmd_pipeline(args, cfg):
    raw = _opt(args, cfg, "raw", str, required=True)
    regions_file = _opt(args, cfg, "regions", str, required=True)
    parsed = _opt(args, cfg, "parsed", str, required=True)
    scores = _opt(args, cfg, "scores", str, required=True)
    start = _opt(args, cfg, "start", _instant_arg, required=True)
    end = _opt(args, cfg, "end", _instant_arg, required=True)
    bucket = _opt(args, cfg, "bucket", _positive_int, default=86_400)
    threads = _opt(args, cfg, "threads", _positive_int, default=1)
    norm_scope = _opt(args, cfg, "norm_scope", str, default="level")
    tz_offset = _opt(args, cfg, "tz_offset", int, default=0)
    approaches_text = _opt(args, cfg, "approaches", str, default="dictionary,ml")
    levels_text = _opt(args, cfg, "levels", str, default="country,county")
    kml_out = _opt(args, cfg, "kml_out", str)
    tilemap_out = _opt(args, cfg, "tilemap_out", str)
    line_out = _opt(args, cfg, "line_out", str)
    line_region = _opt(args, cfg, "line_region", str)
    line_level = _opt(args, cfg, "line_level", _level_arg, default="Country")
    line_bucket = _opt(args, cfg, "line_bucket", _positive_int, default=3_600)
    line_scores = _opt(args, cfg, "line_scores", str)
    render_approach = _opt(args, cfg, "render_approach", _approach_arg, default="Dictionary")

    try:
        approaches = [_approach_arg(a) for a in approaches_text.split(",") if a.strip()]
        levels = [_level_arg(level) for level in levels_text.split(",") if level.strip()]
    except argparse.ArgumentTypeError as err:
        raise UsageError(str(err)) from None
    if not approaches or not levels:
        raise UsageError("approaches and levels must not be empty")
    if line_out and not line_region:
        raise UsageError("line_out needs line_region")
    if line_out and not line_scores:
        line_scores = scores + ".hourly"

    index = load_regions(regions_file)
    log.info("pipeline: parsing %s", raw)
    stats = parse_corpus(raw, index, parsed, threads=threads)
    print(f"lines_read={stats.lines_read}")
    print(f"accepted={stats.accepted}")
    print(f"parsed={parsed}")

    analysers = {approach: _score_analyser(args, cfg, approach) for approach in approaches}
    jobs = [
        (AggregationSpec(level, (start, end), bucket, norm_scope), analysers[approach])
        for approach in approaches for level in levels
    ]
    if line_out:
        jobs += [
            (AggregationSpec(line_level, (start, end), line_bucket, norm_scope), analysers[approach])
            for approach in approaches
        ]
    log.info("pipeline: scoring %d jobs in one scan", len(jobs))
    results = aggregate_many(jobs, parsed, threads=threads)
    split = len(approaches) * len(levels)
    for k, rows in enumerate(results[:split]):
        write_scores(scores, rows, append=k > 0)
    print(f"scores={scores}")
    for k, rows in enumerate(results[split:]):
        write_scores(line_scores, rows, append=k > 0)
    if line_out:
        print(f"line_scores={line_scores}")

    table = [row for rows in results[:split] for row in rows]

    if kml_out:
        chosen = [
            row for row in table
            if row.approach == render_approach and row.level == "Country"
        ]
        emit_kml(_rows_for_bucket(chosen, args, cfg, "kml"), index, kml_out)
        print(f"kml={kml_out}")
    if tilemap_out:
        chosen = [
            row for row in table
            if row.approach == render_approach and row.level == "County"
        ]
        emit_tilemap(_rows_for_bucket(chosen, args, cfg, "tilemap"), tilemap_out)
        print(f"tilemap={tilemap_out}")
    if line_out:
        chosen = [
            row for rows in results[split:] for row in rows
            if row.region == line_region and row.level == line_level
        ]
        svg_path, csv_path = emit_linegraph(chosen, line_out, display_tz_offset_minutes=tz_offset)
        print(f"linegraph_svg={svg_path}")
        print(f"linegraph_csv={csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="geosent",
        description="Score geolocated tweets by region and draw the results.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value settings file")
    common.add_argument("-v", "--verbose", action="store_true", default=None,
                        help="debug logging on stderr")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("collect", parents=[common],
                       help="append a stream of raw JSON lines to the raw table")
    p.add_argument("--raw", help="raw table to append to")
    p.add_argument("--input", help="source file, or - for stdin (default)")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("parse", parents=[common],
                       help="turn the raw table into the parsed, region-tagged table")
    p.add_argument("--raw", help="raw table to read")
    p.add_argument("--regions", help="region polygon file")
    p.add_argument("--parsed", help="parsed table to write")
    p.add_argument("--threads", type=_positive_int, help="worker processes")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("train", parents=[common],
                       help="train the classifier from labelled or raw texts")
    p.add_argument("--model", help="model file to write")
    p.add_argument("--labeled", help="label<TAB>text training table")
    p.add_argument("--distant", help="file of raw texts, labelled by emoticons")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="measure classifier accuracy on a labelled table")
    p.add_argument("--model", help="model file to read")
    p.add_argument("--test", help="label<TAB>text test table")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("score", parents=[common],
                       help="aggregate the parsed table into sentiment rows")
    p.add_argument("--parsed", help="parsed table to read")
    p.add_argument("--scores", help="score table to write")
    p.add_argument("--approach", type=_approach_arg, help="dictionary or ml")
    p.add_argument("--level", type=_level_arg, help="country or county")
    p.add_argument("--start", type=_instant_arg, help="window start, ISO-8601 UTC")
    p.add_argument("--end", type=_instant_arg, help="window end, exclusive")
    p.add_argument("--bucket", type=_positive_int, help="bucket length in seconds")
    p.add_argument("--lexicon", help="opinion lexicon (dictionary approach)")
    p.add_argument("--model", help="model file (ml approach)")
    p.add_argument("--norm-scope", dest="norm_scope", choices=NORM_SCOPES,
                   help="relative-score group: level or siblings")
    p.add_argument("--no-hashtag-match", dest="hashtag_match", action="store_false",
                   default=None, help="do not match lexicon entries inside hashtags")
    p.add_argument("--threads", type=_positive_int, help="worker processes")
    p.add_argument("--append", action="store_true", default=None,
                   help="append to an existing score table")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("correlate", parents=[common],
                       help="Pearson correlation between the two approaches")
    p.add_argument("--scores", help="score table to read")
    p.add_argument("--region", help="region name")
    p.add_argument("--level", type=_level_arg, help="country or county")
    p.add_argument("--bucket", type=_positive_int,
                   help="only rows with this bucket length in seconds")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("render", parents=[common],
                       help="draw a score table as kml, tilemap, or linegraph")
    p.add_argument("--kind", choices=("kml", "tilemap", "linegraph"))
    p.add_argument("--scores", help="score table to read")
    p.add_argument("--out", help="output path (prefix for linegraph)")
    p.add_argument("--regions", help="region polygon file (kml)")
    p.add_argument("--approach", type=_approach_arg, help="dictionary or ml")
    p.add_argument("--level", type=_level_arg, help="country or county")
    p.add_argument("--region", help="region name (linegraph)")
    p.add_argument("--bucket-start", dest="bucket_start", type=_instant_arg,
                   help="bucket to draw; default is the earliest")
    p.add_argument("--tz-offset", dest="tz_offset", type=int,
                   help="display offset in minutes, labels only")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen-corpus", parents=[common],
                       help="write a seeded synthetic raw table")
    p.add_argument("--regions", help="region polygon file")
    p.add_argument("--out", help="raw table to write")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--mix", action="append", metavar="REGION:POS:NEG",
                   help="tweets to plant in a region; repeatable")
    p.add_argument("--start", type=_instant_arg, help="first timestamp")
    p.add_argument("--duration", type=_positive_int, help="corpus span in seconds")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("pipeline", parents=[common],
                       help="parse, score, and render in one deterministic run")
    p.add_argument("--raw", help="raw table to read")
    p.add_argument("--regions", help="region polygon file")
    p.add_argument("--parsed", help="parsed table to write")
    p.add_argument("--scores", help="score table to write")
    p.add_argument("--start", type=_instant_arg, help="window start")
    p.add_argument("--end", type=_instant_arg, help="window end, exclusive")
    p.add_argument("--bucket", type=_positive_int, help="bucket length in seconds")
    p.add_argument("--threads", type=_positive_int, help="worker processes")
    p.add_argument("--lexicon", help="opinion lexicon")
    p.add_argument("--model", help="model file")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        print("usage error: no command given; try --help", file=sys.stderr)
        return 1

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", None) else logging.INFO,
        format="%(levelname)s: %(message)s",
    )

    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = read_config(args.config)
        except UsageError as err:
            print(f"usage error: {err}", file=sys.stderr)
            return 1

    try:
        return args.func(args, cfg)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
