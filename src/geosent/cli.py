"""Command line front end.

Each option is declared once, in `_option_table`, with its converter and
default, and works both as a flag (`--norm-scope siblings`) and as a line
of the `--config FILE` (`norm_scope=siblings`; `#` starts a comment).  The
config file's values become the subcommand's defaults and pass through the
same converter, so flags win over the config file, which wins over the
declared defaults.  There a switch takes a boolean (`append=1`) and `mix`
a whitespace-separated list.  A key the subcommand lacks is a usage error.

Exit codes: 0 on success, 1 for usage problems (bad options, an unreadable
config file or a bad key in it, `pipeline` settings that cannot work, an
output that names a file the command reads or writes under another option),
2 for data problems (other unreadable files, malformed content, impossible
requests).  Progress and warnings go to stderr; stdout carries only
machine-readable key=value lines and paths.
"""

from __future__ import annotations

import argparse
import logging
import os
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
    aggregate,
    correlate,
    series_from_rows,
)
from .gencorpus import GenerateError, generate, parse_mix
from .georesolve import GeoError, load_regions
from .ingest import collect, parse_and_aggregate, parse_corpus
from .lexicon import DictionaryAnalyser, LexiconError, load_lexicon
from .store import (
    StoreError,
    _read_text,
    format_instant,
    parse_instant,
    read_scores,
    write_scores,
)
from .visualize import VisualizeError, emit_kml, emit_linegraph, emit_tilemap, linegraph_paths

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
    ValueError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems raise instead of exiting with 2."""

    def error(self, message):
        raise UsageError(message)


class _Switch(argparse.Action):
    """A flag without a value that stores const; a config file gives a boolean."""

    def __init__(self, option_strings, dest, const=True, default=False, help=None):
        super().__init__(option_strings, dest, nargs=0, const=const, default=default,
                         type=_bool_arg, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const)


class _Repeat(argparse.Action):
    """A repeatable option whose values are lists; flags replace a config list."""

    def __call__(self, parser, namespace, values, option_string=None):
        so_far = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (so_far if so_far is not self.default else []) + values)


def _instant_arg(text: str) -> datetime:
    try:
        return parse_instant(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _bool_arg(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _alias_arg(aliases: dict[str, str], hint: str):
    """Converter from any case of an alias to the name it stands for."""
    def convert(text: str) -> str:
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise argparse.ArgumentTypeError(f"unknown value {text!r}; use {hint}") from None
    return convert


_approach_arg = _alias_arg({
    "dict": "Dictionary",
    "dictionary": "Dictionary",
    "ml": "MachineLearning",
    "machinelearning": "MachineLearning",
    "machine-learning": "MachineLearning",
}, "dictionary or ml")
_level_arg = _alias_arg({"country": "Country", "county": "County"}, "country or county")


def _choice_arg(*choices: str):
    """Converter accepting exactly one of choices."""
    def convert(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(f"unknown value {text!r}; use one of {choices}")
        return text
    return convert


def _list_arg(convert):
    """Converter for a comma-separated list of distinct values."""
    def convert_list(text: str) -> list:
        values = [convert(item) for item in text.split(",") if item.strip()]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    return convert_list


def _mix_arg(text: str) -> list:
    try:
        return [parse_mix(item) for item in text.split()]
    except GenerateError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file; # starts a comment line."""
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path, "config", UsageError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        settings[key.strip()] = value.strip()
    return settings


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"missing --{name.replace('_', '-')} (or {name}= in config)")


def _named(args, keys: str) -> list[tuple[str, str]]:
    """(flag, path) for each of keys that names a file: set, and not - for stdin."""
    paths = ((key, getattr(args, key)) for key in keys.split())
    return [("--" + key.replace("_", "-"), path) for key, path in paths if path not in (None, "-")]


def _refuse_clashes(reads: list[tuple[str, str]], writes: list[tuple[str, str]]) -> None:
    """Refuse a file written that is also read, or written twice, before either is opened.

    Paths clash when they resolve to one path, or when both exist and
    os.path.samefile holds, as for a hard link.
    """
    seen = list(reads)
    for flag, path in writes:
        for other, known in seen:
            try:
                same = os.path.realpath(path) == os.path.realpath(known) or os.path.samefile(path, known)
            except OSError:  # one of them does not exist yet
                same = False
            if same:
                raise UsageError(f"{flag} names the same file as {other}: {path}")
        seen.append((flag, path))


def _analyser(approach: str, lexicon: str, model: str, hashtag_match: bool):
    if approach == "Dictionary":
        return DictionaryAnalyser(load_lexicon(lexicon), hashtag_match=hashtag_match)
    return ModelAnalyser(load_model(model))


def _draw(kind: str, rows, out: str, *, index=None, approach=None, level=None,
          region=None, bucket_start=None, tz_offset=None) -> None:
    """Pick the rows one renderer draws, draw them, and print the paths.

    Maps draw one bucket (the earliest unless bucket_start is given) of the
    approach's rows at level, County for tilemap; linegraph draws a region.
    """
    if kind == "linegraph":
        chosen = [row for row in rows if row.region == region and row.level == level]
        svg_path, csv_path = emit_linegraph(chosen, out, display_tz_offset_minutes=tz_offset)
        print(f"linegraph_svg={svg_path}")
        print(f"linegraph_csv={csv_path}")
        return
    if kind == "tilemap":
        level = "County"
    chosen = [row for row in rows if row.approach == approach and row.level == level]
    if bucket_start is None:
        if not chosen:
            raise VisualizeError(f"{kind}: no matching rows in the score table")
        bucket_start = min(row.bucket_start for row in chosen)
    chosen = [row for row in chosen if row.bucket_start == bucket_start]
    if kind == "kml":
        emit_kml(chosen, index, out)
    else:
        emit_tilemap(chosen, out)
    print(f"{kind}={out}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_collect(args):
    _require(args, "raw")
    _refuse_clashes(_named(args, "config input"), _named(args, "raw"))
    if args.input == "-":
        stats, fragment = collect(sys.stdin.buffer, args.raw)
    else:
        with open(args.input, "rb") as stream:
            stats, fragment = collect(stream, args.raw)
    if fragment:  # the command ends the stream, so the fragment is dropped
        log.warning("collect: %d trailing bytes without newline were not stored", len(fragment))
    print(f"lines_read={stats.lines_read}")
    print(f"fragment_bytes={len(fragment)}")
    return 0


def _cmd_parse(args):
    _require(args, "raw", "regions", "parsed")
    _refuse_clashes(_named(args, "config raw regions"), _named(args, "parsed"))
    index = load_regions(args.regions)
    log.info("parsing %s", args.raw)
    stats = parse_corpus(args.raw, index, args.parsed, threads=args.threads)
    for key in ("lines_read", "accepted", "rejected_no_geo", "rejected_malformed",
                "rejected_unresolved"):
        print(f"{key}={getattr(stats, key)}")
    return 0


def _cmd_train(args):
    _require(args, "model")
    if (args.labeled is None) == (args.distant is None):
        raise UsageError("give exactly one of --labeled or --distant")
    _refuse_clashes(_named(args, "config labeled distant"), _named(args, "model"))
    if args.labeled is not None:
        corpus = load_labeled(args.labeled)
    else:
        texts = _read_text(args.distant, "distant text", ClassifierError).split("\n")
        if not texts[-1]:  # the text after the last LF, empty unless that line lacks its LF
            texts.pop()
        corpus = list(distant_label(texts))
        log.info("distant labelling kept %d of %d texts", len(corpus), len(texts))
    model = train(corpus)
    save_model(model, args.model)
    print(f"documents_positive={model.doc_counts['Positive']}")
    print(f"documents_negative={model.doc_counts['Negative']}")
    print(f"vocabulary={len(model.vocabulary)}")
    return 0


def _cmd_evaluate(args):
    _require(args, "model", "test")
    report = evaluate(load_model(args.model), load_labeled(args.test))
    print(f"total={report.total}")
    print(f"accuracy={report.accuracy!r}")
    for (truth, guess), count in sorted(report.confusion.items()):
        print(f"confusion_{truth}_{guess}={count}")
    return 0


def _cmd_score(args):
    _require(args, "parsed", "scores", "approach", "level", "start", "end")
    _refuse_clashes(_named(args, "config parsed lexicon model"), _named(args, "scores"))
    spec = AggregationSpec(level=args.level, window=(args.start, args.end),
                           bucket_seconds=args.bucket, norm_scope=args.norm_scope)
    analyser = _analyser(args.approach, args.lexicon, args.model, args.hashtag_match)
    log.info("scoring %s at %s level", args.parsed, args.level)
    rows = aggregate(spec, args.parsed, analyser, threads=args.threads)
    write_scores(args.scores, rows, append=args.append)
    print(f"rows={len(rows)}")
    return 0


def _cmd_correlate(args):
    _require(args, "scores", "region", "level")
    rows = [row for row in read_scores(args.scores) if row.level == args.level]
    first = series_from_rows(rows, args.region, "Dictionary", bucket_seconds=args.bucket)
    second = series_from_rows(rows, args.region, "MachineLearning", bucket_seconds=args.bucket)
    r = correlate(first, second)
    print(f"pearson={r!r}")
    return 0


def _cmd_render(args):
    _require(args, "kind", "scores", "out")
    writes = _named(args, "out")
    if args.kind == "linegraph":
        writes = [("--out", str(path)) for path in linegraph_paths(args.out)]
    _refuse_clashes(_named(args, "config scores regions"), writes)
    index = None
    if args.kind == "kml":
        _require(args, "regions")
        index = load_regions(args.regions)
    elif args.kind == "linegraph":
        _require(args, "region")
    _draw(args.kind, read_scores(args.scores), args.out, index=index, approach=args.approach,
          level=args.level, region=args.region, bucket_start=args.bucket_start,
          tz_offset=args.tz_offset)
    return 0


def _cmd_gen_corpus(args):
    _require(args, "regions", "out", "seed", "start")
    _refuse_clashes(_named(args, "config regions"), _named(args, "out"))
    if not args.mix:
        raise UsageError("give at least one --mix region:positives:negatives")
    index = load_regions(args.regions)
    count = generate(index, args.mix, args.seed, args.out, args.start, args.duration)
    print(f"records={count}")
    return 0


def _cmd_pipeline(args):
    _require(args, "raw", "regions", "parsed", "scores", "start", "end")
    # Every setting is checked before the parsed table is replaced.
    if args.line_out and not args.line_region:
        raise UsageError("line_out needs line_region")
    line_scores = args.line_scores or args.scores + ".hourly"
    writes = _named(args, "parsed scores kml_out tilemap_out")
    if args.line_out:
        writes += [("--line-scores", line_scores)]
        writes += [("--line-out", str(path)) for path in linegraph_paths(args.line_out)]
    _refuse_clashes(_named(args, "config raw regions lexicon model"), writes)
    for out, level in ((args.kml_out, "Country"), (args.tilemap_out, "County")):
        if out and (level not in args.levels or args.render_approach not in args.approaches):
            raise UsageError(f"{out} draws {args.render_approach} {level} rows, "
                             "which approaches and levels leave out")
    window = (args.start, args.end)
    specs = [AggregationSpec(level, window, args.bucket, args.norm_scope) for level in args.levels]
    line_specs = []
    if args.line_out:
        line_specs = [AggregationSpec(args.line_level, window, args.line_bucket, args.norm_scope)]

    try:
        for spec in specs + line_specs:
            spec.validate()
    except _DATA_ERRORS as err:
        raise UsageError(f"bad pipeline setting: {err}") from None
    if args.bucket_start is not None and (
            not args.start <= args.bucket_start < args.end
            or (args.bucket_start - args.start).total_seconds() % args.bucket):
        raise UsageError(f"bucket_start {format_instant(args.bucket_start)} does not start "
                         f"a {args.bucket} s bucket of the window")
    index = load_regions(args.regions)
    # an unreadable lexicon or model is a data error (exit 2), as for score
    analysers = {approach: _analyser(approach, args.lexicon, args.model, args.hashtag_match)
                 for approach in args.approaches}

    jobs = [(spec, analysers[approach]) for approach in args.approaches for spec in specs]
    jobs += [(spec, analysers[approach]) for approach in args.approaches for spec in line_specs]
    log.info("pipeline: parsing %s and scoring %d jobs in one pass", args.raw, len(jobs))
    stats, results = parse_and_aggregate(args.raw, index, args.parsed, jobs, threads=args.threads)
    print(f"lines_read={stats.lines_read}")
    print(f"accepted={stats.accepted}")
    print(f"parsed={args.parsed}")

    split = len(args.approaches) * len(specs)
    table = [row for rows in results[:split] for row in rows]
    line_table = [row for rows in results[split:] for row in rows]
    write_scores(args.scores, table)
    print(f"scores={args.scores}")
    if args.line_out:
        write_scores(line_scores, line_table)
        print(f"line_scores={line_scores}")
    if args.kml_out:
        _draw("kml", table, args.kml_out, index=index, approach=args.render_approach,
              level="Country", bucket_start=args.bucket_start)
    if args.tilemap_out:
        _draw("tilemap", table, args.tilemap_out, approach=args.render_approach,
              bucket_start=args.bucket_start)
    if args.line_out:
        _draw("linegraph", line_table, args.line_out, region=args.line_region,
              level=args.line_level, tz_offset=args.tz_offset)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _option_table() -> dict[str, dict]:
    """add_argument's keywords for every option, by config key.

    The flag is --key, dashes for underscores, unless `flags` names it; a
    default that differs between subcommands is set in build_parser.
    """
    return {
        "config": dict(help="key=value settings file"),
        "verbose": dict(flags=("-v", "--verbose"), action=_Switch, help="debug logging on stderr"),
        "raw": dict(help="raw table"),
        "input": dict(default="-", help="source file, or - for stdin"),
        "regions": dict(help="region polygon file"),
        "parsed": dict(help="parsed table"),
        "scores": dict(help="score table"),
        "out": dict(help="output path (path prefix for linegraph)"),
        "threads": dict(type=_positive_int, default=1, help="worker processes"),
        "model": dict(help="naive Bayes model file"),
        "labeled": dict(help="label<TAB>text training table"),
        "distant": dict(help="file of raw texts, labelled by emoticons"),
        "test": dict(help="label<TAB>text test table"),
        "lexicon": dict(default=str(bundled.lexicon_path()), help="opinion lexicon"),
        "hashtag_match": dict(flags=("--no-hashtag-match",), action=_Switch, const=False,
                              default=True, help="do not match lexicon entries inside hashtags"),
        "approach": dict(type=_approach_arg, help="dictionary or ml"),
        "level": dict(type=_level_arg, help="country or county"),
        "region": dict(help="region name"),
        "start": dict(type=_instant_arg,
                      help="window start, or gen-corpus's first timestamp (ISO-8601 UTC)"),
        "end": dict(type=_instant_arg, help="window end, exclusive"),
        "bucket": dict(type=_positive_int, help="bucket length in seconds"),
        "norm_scope": dict(type=_choice_arg(*NORM_SCOPES), default="level",
                           help="relative-score group: level or siblings"),
        "append": dict(action=_Switch, help="append to an existing score table"),
        "kind": dict(type=_choice_arg("kml", "tilemap", "linegraph"),
                     help="kml, tilemap, or linegraph"),
        "bucket_start": dict(type=_instant_arg,
                             help="bucket a kml or tilemap draws; default is the earliest"),
        "tz_offset": dict(type=int, default=0,
                          help="line graph display offset in minutes, labels only"),
        "seed": dict(type=int, help="random seed"),
        "mix": dict(action=_Repeat, type=_mix_arg, metavar="REGION:POS:NEG",
                    help="tweets to plant in a region; repeatable"),
        "duration": dict(type=_positive_int, default=86_400, help="corpus span in seconds"),
        "approaches": dict(type=_list_arg(_approach_arg), default="dictionary,ml",
                           help="comma-separated approaches to score"),
        "levels": dict(type=_list_arg(_level_arg), default="country,county",
                       help="comma-separated levels to score"),
        "kml_out": dict(help="KML map of the Country rows to write"),
        "tilemap_out": dict(help="tile map of the County rows to write"),
        "render_approach": dict(type=_approach_arg, default="Dictionary",
                                help="approach the KML map and the tile map draw"),
        "line_out": dict(help="line graph path prefix; needs --line-region"),
        "line_region": dict(help="region of the line graph"),
        "line_level": dict(type=_level_arg, default="Country",
                           help="level of the line graph's region"),
        "line_bucket": dict(type=_positive_int, default=3_600,
                            help="bucket length of the line graph in seconds"),
        "line_scores": dict(help="score table of the line graph; default: scores + .hourly"),
    }


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = _Parser(
        prog="geosent",
        description="Score geolocated tweets by region and draw the results.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    table = _option_table()

    def command(name, func, help, keys, **defaults):
        p = sub.add_parser(name, help=help)
        for key in ["config", "verbose", *keys.split()]:
            kwargs = dict(table[key])
            flags = kwargs.pop("flags", ["--" + key.replace("_", "-")])
            p.add_argument(*flags, dest=key, **kwargs)
        p.set_defaults(func=func, **defaults)

    scoring = "start end bucket lexicon model norm_scope hashtag_match threads"
    bundled_model = str(bundled.model_path())
    command("collect", _cmd_collect, "append a stream of raw JSON lines to the raw table",
            "raw input")
    command("parse", _cmd_parse, "turn the raw table into the parsed, region-tagged table",
            "raw regions parsed threads")
    command("train", _cmd_train, "train the classifier from labelled or raw texts",
            "model labeled distant")
    command("evaluate", _cmd_evaluate, "measure classifier accuracy on a labelled table",
            "model test")
    command("score", _cmd_score, "aggregate the parsed table into sentiment rows",
            f"parsed scores approach level append {scoring}",
            bucket=86_400, model=bundled_model)
    command("correlate", _cmd_correlate, "Pearson correlation between the two approaches",
            "scores region level bucket")
    command("render", _cmd_render, "draw a score table as kml, tilemap, or linegraph",
            "kind scores out regions approach level region bucket_start tz_offset",
            approach="Dictionary", level="Country")
    command("gen-corpus", _cmd_gen_corpus, "write a seeded synthetic raw table in place of --out",
            "regions out seed mix start duration")
    command("pipeline", _cmd_pipeline, "parse, score, and render in one deterministic run",
            f"raw regions parsed scores {scoring} approaches levels kml_out tilemap_out "
            "render_approach bucket_start line_out line_region line_level line_bucket "
            "line_scores tz_offset",
            bucket=86_400, model=bundled_model)
    return parser, sub.choices


def _parse_args(argv):
    """Parse argv; a --config file's settings become the subcommand's defaults."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        settings = read_config(args.config)
        for key in settings:
            if key in ("command", "func", "config") or not hasattr(args, key):
                raise UsageError(f"{args.config}: {args.command} has no option {key!r}")
        commands[args.command].set_defaults(**settings)
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s: %(message)s",
    )

    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
