import contextlib
import importlib.util
import inspect
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

import geosent
from geosent.cli import build_parser, main, read_config
from geosent.store import ScoreRow, format_instant, read_scores, write_scores

from conftest import grid_regions

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("collect", "parse", "train", "evaluate", "score", "correlate", "render",
            "gen-corpus", "pipeline")

WINDOW = ["--start", "2013-07-22T00:00:00Z", "--end", "2013-07-23T00:00:00Z"]
# one second past the longest bucket (timedelta.max in whole seconds), and far past it
TOO_LONG_BUCKETS = ["86400000000000", str(10**21)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def keyvals(out):
    pairs = [line.split("=", 1) for line in out.splitlines() if "=" in line]
    return dict(pairs)


@pytest.fixture(scope="module")
def parsed_table(tmp_path_factory, corpus_file, regions_file):
    path = tmp_path_factory.mktemp("cli") / "parsed.tsv"
    code = main(["parse", "--raw", str(corpus_file),
                 "--regions", str(regions_file), "--parsed", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def daily_scores(tmp_path_factory, parsed_table):
    path = tmp_path_factory.mktemp("cli") / "scores.tsv"
    first = True
    for approach in ("dictionary", "ml"):
        for level in ("country", "county"):
            flags = [] if first else ["--append"]
            first = False
            code = main(["score", "--parsed", str(parsed_table),
                         "--scores", str(path), "--approach", approach,
                         "--level", level, *WINDOW, *flags])
            assert code == 0
    return path


@pytest.fixture(scope="module")
def hourly_scores(tmp_path_factory, parsed_table):
    path = tmp_path_factory.mktemp("cli") / "hourly.tsv"
    for approach, flags in [("dictionary", []), ("ml", ["--append"])]:
        code = main(["score", "--parsed", str(parsed_table),
                     "--scores", str(path), "--approach", approach,
                     "--level", "country", "--bucket", "3600",
                     *WINDOW, *flags])
        assert code == 0
    return path


@pytest.fixture
def merged_scores(tmp_path, hourly_scores, daily_scores):
    """The hourly table followed by the daily rows: each day overlaps its hours."""
    merged = tmp_path / "merged.tsv"
    merged.write_text(hourly_scores.read_text()
                      + "".join(daily_scores.read_text().splitlines(True)[1:]))
    return merged


@pytest.fixture
def latin1_scores(tmp_path, hourly_scores):
    """The hourly score table with its region renamed caf\xe9, written as Latin-1."""
    path = tmp_path / "latin1.tsv"
    path.write_bytes(hourly_scores.read_text(encoding="utf-8").replace("mycountry", "caf\xe9")
                     .encode("latin-1"))
    return path


@pytest.fixture
def lone_cr_scores(tmp_path, hourly_scores):
    """The hourly score table with row 1 ended by a lone CR, not an LF, and a 0xff
    byte in its fourth LF-ended line, which csv reads as its fifth line."""
    lines = hourly_scores.read_bytes().split(b"\n")
    lines[1:3] = [lines[1] + b"\r" + lines[2]]
    assert b"mycountry" in lines[3]
    lines[3] = lines[3].replace(b"mycountry", b"my\xffcountry")
    path = tmp_path / "lone-cr.tsv"
    path.write_bytes(b"\n".join(lines))
    return path


def assert_names_line_2_of(path, code, out, err, prefix=""):
    assert code == 2
    assert err.startswith(f"error: {prefix}{path}: line 2: not UTF-8 text: ")
    assert out == ""


class TestExitCodes:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "parse", "--frobnicate")
        assert code == 1

    def test_bad_approach_value(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", "--approach", "vibes")
        assert code == 1

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "parse", "--raw", "x.jsonl")
        assert code == 1
        assert "--regions" in err

    def test_missing_input_file(self, capsys, tmp_path, regions_file):
        code, _, err = run(capsys, "parse", "--raw", str(tmp_path / "absent.jsonl"),
                      "--regions", str(regions_file),
                      "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2

    @pytest.mark.parametrize("content", [b'{"type": "FeatureCollection", "name": "caf\xe9"}',
                                         b'{"type": "FeatureCollection", "features": [' + b"9" * 5000 + b"]}"],
                             ids=["non-utf8", "overlong-integer"])
    def test_unreadable_region_file(self, capsys, tmp_path, corpus_file, content):
        regions = tmp_path / "regions.geojson"
        regions.write_bytes(content)
        code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                             "--regions", str(regions), "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2
        assert err.startswith(f"error: region file {regions} is not ")
        assert out == ""

    @pytest.mark.parametrize("approach, flag, content", [
        ("dictionary", "--lexicon", b"happy\t3\nsad\xff\t-2\n"),
        ("ml", "--model", b"geosent-nb v1\nprior Positive 1\nprior Negative 1\ntok Positive caf\xe9 1\n"),
    ], ids=["lexicon", "model"])
    def test_non_utf8_analyser_file(self, capsys, tmp_path, parsed_table, approach, flag, content):
        bad = tmp_path / "analyser-file"
        bad.write_bytes(content)
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(tmp_path / "s.tsv"), "--approach", approach,
                             flag, str(bad), "--level", "country", *WINDOW)
        assert code == 2
        assert re.match(f"error: (lexicon|model) file {re.escape(str(bad))} is not UTF-8 text", err)
        assert not (tmp_path / "s.tsv").exists()

    def test_bad_lexicon_line_names_the_file(self, capsys, tmp_path, corpus_file, regions_file):
        # pipeline reads regions, lexicon and model: the message must say which file is wrong
        bad = tmp_path / "bad-lexicon.tsv"
        bad.write_text("happy\t3\nno strength here\n", encoding="utf-8")
        code, out, err = run(capsys, "pipeline", "--raw", str(corpus_file), "--regions",
                             str(regions_file), "--parsed", str(tmp_path / "p.tsv"),
                             "--scores", str(tmp_path / "s.tsv"), "--lexicon", str(bad), *WINDOW)
        assert code == 2
        assert err == f"error: {bad}: line 2: expected pattern<TAB>strength\n"
        assert out == ""
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("content, problem", [
        ("not a model\n", "bad model header 'not a model'"),
        ("geosent-nb v1\nprior Positive 1\nprior Negative x\n", "line 3: invalid literal"),
        ("geosent-nb v1\nprior Positive 1\n", "missing prior for Negative"),
    ], ids=["header", "line", "prior"])
    def test_bad_model_names_the_file(self, capsys, tmp_path, parsed_table, content, problem):
        bad = tmp_path / "bad-model.nb"
        bad.write_text(content, encoding="utf-8")
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(tmp_path / "s.tsv"), "--approach", "ml",
                             "--model", str(bad), "--level", "country", *WINDOW)
        assert code == 2
        assert err.startswith(f"error: {bad}: {problem}")
        assert out == ""

    @pytest.mark.parametrize("kind, argv", [
        ("config", ["parse", "--config", "{input}"]),
        ("lexicon", ["score", "--parsed", "{parsed}", "--scores", "{out}", "--approach",
                     "dictionary", "--lexicon", "{input}", "--level", "country", *WINDOW]),
        ("model", ["score", "--parsed", "{parsed}", "--scores", "{out}", "--approach", "ml",
                   "--model", "{input}", "--level", "country", *WINDOW]),
        ("labelled corpus", ["train", "--model", "{out}", "--labeled", "{input}"]),
        ("labelled corpus", ["evaluate", "--model", "{model}", "--test", "{input}"]),
        ("distant text", ["train", "--model", "{out}", "--distant", "{input}"]),
        ("region", ["parse", "--raw", "{parsed}", "--regions", "{input}", "--parsed", "{out}"]),
    ], ids=["config", "lexicon", "model", "labeled", "test", "distant", "regions"])
    @pytest.mark.parametrize("fault", ["missing", "bad-byte"])
    def test_unreadable_input_file_is_named(self, capsys, tmp_path, parsed_table, kind, argv, fault):
        path = tmp_path / "input"
        if fault == "bad-byte":
            path.write_bytes(b"first line\nsecond \xff line\n")
        paths = dict(input=path, parsed=parsed_table, out=tmp_path / "out",
                     model=geosent.bundled.model_path())
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        # a config file is a usage problem (exit 1), every other file a data problem (exit 2)
        prefix = "usage error: " if kind == "config" else "error: "
        assert code == (1 if kind == "config" else 2)
        if fault == "missing":
            assert err.startswith(f"{prefix}cannot read {kind} file {path}: ")
        else:
            assert err == f"{prefix}{kind} file {path} is not UTF-8 text: line 2: invalid start byte\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_huge_integer_region_coordinate(self, capsys, tmp_path, corpus_file):
        ring = [[0, 0], [1, 0], [10**400, 1], [0, 1], [0, 0]]
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps({"type": "FeatureCollection", "features": [{
            "type": "Feature",
            "properties": {"region_id": "a", "name": "land", "level": "Country", "parent": ""},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        }]}))
        code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                             "--regions", str(regions), "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2
        assert err.startswith(f"error: region file {regions}: feature 0 (land) part 0 ring 0: bad position")
        assert out == ""

    @pytest.mark.parametrize("features", [
        json.dumps([{
            "type": "Feature",
            "properties": {"region_id": "a", "name": "land", "level": "Country", "parent": ""},
            "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [True, 1], [0, 1]]]},
        }]),
        "[" * 100_000 + "]" * 100_000,
    ], ids=["true-position", "past-the-recursion-limit"])
    def test_region_file_past_the_json_rules(self, capsys, tmp_path, corpus_file, features):
        regions = tmp_path / "regions.geojson"
        regions.write_text('{"type": "FeatureCollection", "features": ' + features + "}")
        code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                             "--regions", str(regions), "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2
        assert err.startswith(f"error: region file {regions}")
        assert out == ""
        assert not (tmp_path / "out.tsv").exists()

    def test_lone_surrogate_region_name(self, capsys, tmp_path, corpus_file):
        grid = grid_regions(2)
        grid["features"][0]["properties"]["name"] = "county-\ud83d"
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps(grid), encoding="ascii")
        code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                             "--regions", str(regions), "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2
        assert err.startswith(f"error: region file {regions}: feature 0: region name ")
        assert out == ""
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("name", [None, 5], ids=["null", "int"])
    def test_region_name_that_is_not_a_string(self, capsys, tmp_path, corpus_file, name):
        grid = grid_regions(2)
        grid["features"][1]["properties"]["name"] = name
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps(grid))
        code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                             "--regions", str(regions), "--parsed", str(tmp_path / "out.tsv"))
        assert code == 2
        assert err.startswith(f"error: region file {regions}: feature 1: region name {name!r} ")
        assert out == ""
        assert not (tmp_path / "out.tsv").exists()

    def test_region_id_and_country_parent_are_not_needed(self, capsys, tmp_path, corpus_file,
                                                         regions_file):
        doc = json.loads(regions_file.read_text(encoding="utf-8"))
        for props in (f["properties"] for f in doc["features"]):
            del props["region_id"]
            if props["level"] == "Country":
                del props["parent"]
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps(doc))
        for name, path in (("bare", regions), ("bundled", regions_file)):
            code, out, err = run(capsys, "parse", "--raw", str(corpus_file),
                                 "--regions", str(path), "--parsed", str(tmp_path / f"{name}.tsv"))
            assert code == 0, err
        assert (tmp_path / "bare.tsv").read_bytes() == (tmp_path / "bundled.tsv").read_bytes()
        assert keyvals(out)["accepted"] == "9"

    def test_missing_bundled_file_is_a_data_error(self, capsys, monkeypatch, tmp_path):
        # the parser reads the bundled defaults, so this fails before any command runs
        missing = tmp_path / "model.nb"

        def model_path():
            raise FileNotFoundError(f"bundled file missing: {missing}")
        monkeypatch.setattr(geosent.bundled, "model_path", model_path)
        code, out, err = run(capsys, "collect", "--raw", str(tmp_path / "raw.jsonl"),
                             "--input", str(tmp_path / "in.jsonl"))
        assert code == 2
        assert err == f"error: bundled file missing: {missing}\n"
        assert out == ""
        assert not (tmp_path / "raw.jsonl").exists()

    def test_garbage_score_table(self, capsys, tmp_path):
        bad = tmp_path / "scores.tsv"
        bad.write_text("not a score table\n")
        code, _, err = run(capsys, "correlate", "--scores", str(bad),
                      "--region", "x", "--level", "country")
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["correlate", "--region", "x", "--level", "country"],
        ["render", "--kind", "tilemap", "--out", "{tmp}/tiles.svg"],
    ], ids=["correlate", "render"])
    def test_bad_score_row_names_its_line(self, capsys, tmp_path, daily_scores, command):
        header, first, *rest = daily_scores.read_text().splitlines(keepends=True)
        bad = tmp_path / "scores.tsv"
        bad.write_text(header + first.rsplit(",", 2)[0] + ",nan,NA\n" + "".join(rest))
        code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in command), "--scores", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: line 2: pss nan")
        assert not (tmp_path / "tiles.svg").exists()

    def test_score_field_over_the_csv_limit_names_its_line(self, capsys, tmp_path):
        bad = tmp_path / "scores.tsv"
        write_scores(bad, [ScoreRow("Dictionary", "County", "x" * 200_000, "england",
                                    datetime(2013, 7, 22, tzinfo=timezone.utc),
                                    datetime(2013, 7, 23, tzinfo=timezone.utc), 1, 0, 1, 1.0, 1.0)])
        code, out, err = run(capsys, "render", "--kind", "tilemap", "--scores", str(bad),
                             "--out", str(tmp_path / "tiles.svg"))
        assert code == 2
        assert err.startswith(f"error: {bad}: line 2: field larger than field limit")
        assert out == ""
        assert not (tmp_path / "tiles.svg").exists()

    @pytest.mark.parametrize("drop", [1, 2, 10, -1], ids=["newline", "last-digit", "mid-row", "first-byte"])
    def test_score_table_cut_mid_row(self, capsys, tmp_path, daily_scores, drop):
        lines = daily_scores.read_bytes().splitlines(keepends=True)
        last = lines[-1]
        bad = tmp_path / "scores.tsv"
        bad.write_bytes(b"".join(lines[:-1]) + (last[:1] if drop == -1 else last[:-drop]))
        code, out, err = run(capsys, "render", "--kind", "tilemap", "--scores", str(bad),
                             "--out", str(tmp_path / "tiles.svg"))
        assert code == 2
        assert err.startswith(f"error: {bad}: line {len(lines)}: ")
        assert out == ""
        assert not (tmp_path / "tiles.svg").exists()


class TestPathClashes:
    """An output that names an input, or another output, is refused before anything is written."""

    @pytest.fixture
    def files(self, tmp_path, corpus_file, regions_file, training_file, parsed_table, hourly_scores):
        for name, source in [("t1.jsonl", corpus_file), ("regions.geojson", regions_file),
                             ("train.tsv", training_file), ("t2.tsv", parsed_table),
                             ("t3.csv", hourly_scores)]:
            shutil.copyfile(source, tmp_path / name)
        (tmp_path / "run.cfg").write_text(f"raw = {tmp_path / 't1.jsonl'}\n"
                                          f"regions = {tmp_path / 'regions.geojson'}\n")
        return tmp_path

    @pytest.mark.parametrize("argv, written, read", [
        (["collect", "--input", "{d}/t1.jsonl", "--raw", "{d}/t1.jsonl"], "--raw", "--input"),
        (["parse", "--raw", "{d}/t1.jsonl", "--regions", "{d}/regions.geojson",
          "--parsed", "{d}/t1.jsonl"], "--parsed", "--raw"),
        (["parse", "--config", "{d}/run.cfg", "--parsed", "{d}/run.cfg"], "--parsed", "--config"),
        (["train", "--labeled", "{d}/train.tsv", "--model", "{d}/train.tsv"], "--model", "--labeled"),
        (["score", "--parsed", "{d}/t2.tsv", "--scores", "{d}/t2.tsv", "--approach", "dictionary",
          "--level", "country", *WINDOW], "--scores", "--parsed"),
        (["render", "--kind", "kml", "--scores", "{d}/t3.csv", "--regions", "{d}/regions.geojson",
          "--out", "{d}/t3.csv"], "--out", "--scores"),
        (["render", "--kind", "linegraph", "--scores", "{d}/t3.csv", "--region", "mycountry",
          "--out", "{d}/t3"], "--out", "--scores"),  # writes t3.svg and t3.csv
        (["gen-corpus", "--regions", "{d}/regions.geojson", "--out", "{d}/regions.geojson",
          "--seed", "5", "--start", "2013-07-22T00:00:00Z", "--mix", "happycounty:3:1"],
         "--out", "--regions"),
        (["pipeline", "--raw", "{d}/t1.jsonl", "--regions", "{d}/regions.geojson",
          "--parsed", "{d}/t1.jsonl", "--scores", "{d}/t3.csv", *WINDOW], "--parsed", "--raw"),
        (["pipeline", "--raw", "{d}/t1.jsonl", "--regions", "{d}/regions.geojson",
          "--parsed", "{d}/t2.tsv", "--scores", "{d}/t2.tsv", *WINDOW], "--scores", "--parsed"),
        (["pipeline", "--raw", "{d}/t1.jsonl", "--regions", "{d}/regions.geojson",
          "--parsed", "{d}/t2.tsv", "--scores", "{d}/t3.csv", "--line-out", "{d}/line",
          "--line-region", "mycountry", "--line-scores", "{d}/line.csv", *WINDOW],
         "--line-out", "--line-scores"),
    ], ids=["collect", "parse", "parse-config", "train", "score", "render", "render-linegraph",
            "gen-corpus", "pipeline-input", "pipeline-outputs", "pipeline-line-graph"])
    def test_clash_is_a_usage_error(self, capsys, files, argv, written, read):
        before = {p.name: p.read_bytes() for p in files.iterdir()}
        code, out, err = run(capsys, *[arg.format(d=files) for arg in argv])
        assert code == 1
        assert err.startswith(f"usage error: {written} names the same file as {read}: ")
        assert out == ""
        assert {p.name: p.read_bytes() for p in files.iterdir()} == before

    @pytest.mark.parametrize("link", ["hard", "symbolic", "relative"])
    def test_another_name_of_the_file_clashes(self, capsys, files, monkeypatch, link):
        raw = files / "t1.jsonl"
        if link == "hard":
            os.link(raw, files / "other.jsonl")
        elif link == "symbolic":
            os.symlink(raw, files / "other.jsonl")
        parsed = str(files / "other.jsonl")
        if link == "relative":
            monkeypatch.chdir(files)
            parsed = "./t1.jsonl"
        before = raw.read_bytes()
        code, _, err = run(capsys, "parse", "--raw", str(raw), "--regions",
                           str(files / "regions.geojson"), "--parsed", parsed)
        assert code == 1
        assert err == f"usage error: --parsed names the same file as --raw: {parsed}\n"
        assert raw.read_bytes() == before

    def test_dash_is_a_file_outside_collect_input(self, capsys, files, monkeypatch):
        monkeypatch.chdir(files)
        shutil.copyfile(files / "t1.jsonl", files / "-")
        before = (files / "-").read_bytes()
        code, out, err = run(capsys, "parse", "--raw", "-", "--regions", "regions.geojson",
                             "--parsed", "-")
        assert code == 1
        assert err == "usage error: --parsed names the same file as --raw: -\n"
        assert out == ""
        assert (files / "-").read_bytes() == before


class TestCollect:
    def test_from_file(self, capsys, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_bytes(b"one\ntwo\nfrag")
        code, out, _ = run(capsys, "collect", "--raw", str(tmp_path / "raw.jsonl"),
                        "--input", str(src))
        assert code == 0
        assert keyvals(out) == {"lines_read": "2", "fragment_bytes": "4"}

    def test_from_stdin(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", SimpleNamespace(buffer=io.BytesIO(b"a\nb\n")))
        code, out, _ = run(capsys, "collect", "--raw", str(tmp_path / "raw.jsonl"))
        assert code == 0
        assert keyvals(out)["lines_read"] == "2"

    @pytest.mark.parametrize("stream, err", [
        (b"one\ntwo\nfrag", b"WARNING: collect: 4 trailing bytes without newline were not stored\n"),
        (b"one\ntwo\n", b""),
    ], ids=["fragment", "ends-with-lf"])
    def test_warns_once_when_a_fragment_is_dropped(self, tmp_path, stream, err):
        env = dict(os.environ, PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "geosent.cli", "collect", "--raw", str(tmp_path / "raw.jsonl")],
            input=stream, capture_output=True, env=env)
        assert result.returncode == 0
        assert result.stdout == b"lines_read=2\nfragment_bytes=%d\n" % (len(stream) - 8)
        assert result.stderr == err


class TestParse:
    def test_stats_contract(self, capsys, corpus_file, regions_file, tmp_path):
        code, out, _ = run(capsys, "parse", "--raw", str(corpus_file),
                        "--regions", str(regions_file),
                        "--parsed", str(tmp_path / "parsed.tsv"))
        assert code == 0
        got = keyvals(out)
        assert got["lines_read"] == "9"
        assert got["accepted"] == "9"
        assert got["rejected_no_geo"] == "0"
        assert got["rejected_malformed"] == "0"
        assert got["rejected_unresolved"] == "0"


def test_each_main_call_logs_to_its_own_stderr(corpus_file, regions_file, tmp_path):
    # with no handler but main's own, each call logs to the stderr it runs
    # under, at its own level; the probe shows the level each call left set
    root = logging.getLogger()
    saved = root.handlers[:], root.level
    root.handlers = []
    captured = []
    try:
        for k, flags in enumerate([[], ["-v"], []]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                parsed = tmp_path / f"parsed{k}.tsv"
                assert main(["parse", "--raw", str(corpus_file), "--regions", str(regions_file),
                             "--parsed", str(parsed), *flags]) == 0
                logging.getLogger("geosent.cli").debug("probe %d", k)
            captured.append(err.getvalue())
    finally:
        root.handlers, level = saved
        root.setLevel(level)
    assert [text.splitlines() for text in captured] == [
        [f"INFO: parsing {corpus_file}"],
        [f"INFO: parsing {corpus_file}", "DEBUG: probe 1"],
        [f"INFO: parsing {corpus_file}"],
    ]


class TestTrain:
    def test_labeled(self, capsys, training_file, tmp_path):
        out_path = tmp_path / "model.nb"
        code, out, _ = run(capsys, "train", "--model", str(out_path),
                        "--labeled", str(training_file))
        assert code == 0
        got = keyvals(out)
        assert got["documents_positive"] == "6"
        assert got["documents_negative"] == "6"
        assert got["vocabulary"] == "38"
        assert out_path.exists()

    def test_distant(self, capsys, tmp_path):
        texts = tmp_path / "texts.txt"
        texts.write_text(
            "lovely morning :)\n"
            "what a mess :(\n"
            "no emoticon here\n"
            "both at once :) :(\n"
        )
        code, out, _ = run(capsys, "train", "--model", str(tmp_path / "m.nb"),
                        "--distant", str(texts))
        assert code == 0
        got = keyvals(out)
        assert got["documents_positive"] == "1"
        assert got["documents_negative"] == "1"

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_distant_lines_break_at_lf_only(self, capsys, caplog, tmp_path, end):
        texts = tmp_path / "texts.txt"
        texts.write_text("lovely\u2028morning :)\nwhat a mess :(" + end, encoding="utf-8")
        with caplog.at_level(logging.INFO):
            code, out, _ = run(capsys, "train", "--model", str(tmp_path / "m.nb"),
                               "--distant", str(texts))
        assert code == 0
        assert "distant labelling kept 2 of 2 texts" in caplog.messages
        assert keyvals(out)["documents_positive"] == "1"

    def test_both_sources_rejected(self, capsys, training_file, tmp_path):
        code, _, err = run(capsys, "train", "--model", str(tmp_path / "m.nb"),
                      "--labeled", str(training_file),
                      "--distant", str(training_file))
        assert code == 1

    def test_neither_source_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--model", str(tmp_path / "m.nb"))
        assert code == 1


class TestEvaluate:
    def test_confusion_contract(self, capsys, model_file, training_file):
        code, out, _ = run(capsys, "evaluate", "--model", str(model_file),
                        "--test", str(training_file))
        assert code == 0
        assert out.splitlines() == [
            "total=12",
            "accuracy=1.0",
            "confusion_Negative_Negative=6",
            "confusion_Negative_Positive=0",
            "confusion_Positive_Negative=0",
            "confusion_Positive_Positive=6",
        ]


class TestScore:
    def test_row_counts_by_level(self, capsys, parsed_table, tmp_path):
        code, out, _ = run(capsys, "score", "--parsed", str(parsed_table),
                        "--scores", str(tmp_path / "s.tsv"),
                        "--approach", "dictionary", "--level", "country",
                        *WINDOW)
        assert code == 0
        assert keyvals(out)["rows"] == "1"
        code, out, _ = run(capsys, "score", "--parsed", str(parsed_table),
                        "--scores", str(tmp_path / "s2.tsv"),
                        "--approach", "dictionary", "--level", "county",
                        *WINDOW)
        assert keyvals(out)["rows"] == "2"

    def test_window_before_the_year_1000_is_a_data_error(self, capsys, parsed_table, tmp_path):
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(tmp_path / "s.tsv"), "--approach", "dictionary",
                             "--level", "country", "--start", "0999-01-01T00:00:00Z",
                             "--end", "2014-01-01T00:00:00Z", "--bucket", "40000000000")
        assert code == 2
        assert err.startswith("error: window start must not be before 1000-01-01")
        assert out == ""
        assert not (tmp_path / "s.tsv").exists()

    def test_end_with_no_utc_instant_is_a_usage_error(self, capsys, parsed_table, tmp_path):
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(tmp_path / "s.tsv"), "--approach", "dictionary",
                             "--level", "country", "--start", "2013-07-22T00:00:00Z",
                             "--end", "9999-12-31T23:30:00-01:00")
        assert code == 1
        assert "no UTC instant" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "s.tsv").exists()

    def test_append_refuses_a_table_that_is_not_utf8(self, capsys, parsed_table, latin1_scores):
        before = latin1_scores.read_bytes()
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(latin1_scores), "--approach", "dictionary",
                             "--level", "country", *WINDOW, "--append")
        assert_names_line_2_of(latin1_scores, code, out, err, prefix="cannot append to ")
        assert latin1_scores.read_bytes() == before
        assert [p.name for p in latin1_scores.parent.iterdir()] == [latin1_scores.name]

    def test_append_and_correlate_name_a_bad_byte_on_its_csv_line(self, capsys, parsed_table,
                                                                     lone_cr_scores):
        before = lone_cr_scores.read_bytes()
        for command in (["score", "--parsed", str(parsed_table), "--approach", "dictionary",
                         *WINDOW, "--append"], ["correlate", "--region", "mycountry"]):
            code, out, err = run(capsys, *command, "--scores", str(lone_cr_scores), "--level", "country")
            prefix = "cannot append to " if command[0] == "score" else ""
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {prefix}{lone_cr_scores}: line 5: not UTF-8 text: ")
        assert lone_cr_scores.read_bytes() == before
        assert [p.name for p in lone_cr_scores.parent.iterdir()] == [lone_cr_scores.name]

    @pytest.mark.parametrize("bucket", TOO_LONG_BUCKETS)
    def test_bucket_no_timedelta_holds_is_a_data_error(self, capsys, parsed_table, tmp_path, bucket):
        code, out, err = run(capsys, "score", "--parsed", str(parsed_table),
                             "--scores", str(tmp_path / "s.tsv"), "--approach", "dictionary",
                             "--level", "country", *WINDOW, "--bucket", bucket)
        assert code == 2
        assert err == f"error: bucket_seconds must be in 1..86399999999999, got {bucket}\n"
        assert out == ""
        assert not (tmp_path / "s.tsv").exists()

    def test_longest_bucket_scores_a_day_as_one_bucket(self, capsys, parsed_table, tmp_path):
        tables = []
        for bucket in ("86400", "86399999999999"):
            path = tmp_path / f"{bucket}.tsv"
            code, _, err = run(capsys, "score", "--parsed", str(parsed_table), "--scores", str(path),
                               "--approach", "dictionary", "--level", "country", *WINDOW,
                               "--bucket", bucket)
            assert code == 0, err
            tables.append(path.read_bytes())
        assert tables[0] == tables[1]

    def test_append_grows_table(self, daily_scores):
        rows = read_scores(daily_scores)
        assert len(rows) == 6
        assert {(r.approach, r.level) for r in rows} == {
            ("Dictionary", "Country"), ("Dictionary", "County"),
            ("MachineLearning", "Country"), ("MachineLearning", "County"),
        }

    def test_fixture_numbers(self, daily_scores):
        rows = {(r.approach, r.level, r.region): r for r in read_scores(daily_scores)}
        country = rows[("Dictionary", "Country", "mycountry")]
        assert (country.pos_count, country.neg_count) == (12, 5)
        assert country.pss == 2.4
        assert country.npss == 1.0
        ml = rows[("MachineLearning", "Country", "mycountry")]
        assert (ml.pos_count, ml.neg_count) == (5, 4)
        assert ml.pss == 1.25


class TestConfigFile:
    def test_config_supplies_options(self, capsys, parsed_table, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scoring settings\n"
            f"parsed = {parsed_table}\n"
            f"scores = {tmp_path / 's.tsv'}\n"
            "approach = dictionary\n"
            "level = country\n"
            "start = 2013-07-22T00:00:00Z\n"
            "end = 2013-07-23T00:00:00Z\n"
        )
        code, out, _ = run(capsys, "score", "--config", str(cfg))
        assert code == 0
        assert keyvals(out)["rows"] == "1"

    def test_flag_beats_config(self, capsys, parsed_table, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"parsed = {parsed_table}\n"
            f"scores = {tmp_path / 's.tsv'}\n"
            "approach = dictionary\n"
            "level = country\n"
            "start = 2013-07-22T00:00:00Z\n"
            "end = 2013-07-23T00:00:00Z\n"
        )
        code, out, _ = run(capsys, "score", "--config", str(cfg),
                        "--level", "county")
        assert code == 0
        assert keyvals(out)["rows"] == "2"

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, err = run(capsys, "score", "--config", str(cfg))
        assert code == 1
        assert err == f"usage error: {cfg}: line 1: expected key=value, got 'just some words'\n"

    def test_config_lines_break_at_lf_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("raw = /data/a\u0085b\u2028c\x1cd\nregions = r\n", encoding="utf-8")
        assert read_config(cfg) == {"raw": "/data/a\u0085b\u2028c\x1cd", "regions": "r"}

    def test_read_config_shape(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nkey = value\nspaced   =   x y z\n")
        assert read_config(cfg) == {"key": "value", "spaced": "x y z"}

    @pytest.mark.parametrize("key", ["kml_outt", "config", "func"])
    def test_unknown_key_is_a_usage_error(self, capsys, corpus_file, regions_file,
                                          tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"raw = {corpus_file}\nregions = {regions_file}\n"
                       f"parsed = {tmp_path / 'p.tsv'}\n{key} = x\n")
        code, _, err = run(capsys, "parse", "--config", str(cfg))
        assert code == 1
        assert repr(key) in err and str(cfg) in err
        assert not (tmp_path / "p.tsv").exists()

    def test_switch_that_is_not_a_boolean_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("append = maybe\n")
        code, out, err = run(capsys, "score", "--config", str(cfg))
        assert code == 1
        assert err == "usage error: argument --append: expected a boolean, got 'maybe'\n"
        assert out == ""

    def test_bad_value_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bucket = 0\n")
        code, _, err = run(capsys, "score", "--config", str(cfg))
        assert code == 1
        assert "--bucket" in err

    @pytest.mark.parametrize("setting, level", [("verbose = 1\n", logging.DEBUG),
                                                ("verbose = no\n", logging.INFO),
                                                ("", logging.INFO)])
    def test_verbose_from_config(self, capsys, monkeypatch, tmp_path, setting, level):
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"raw = {tmp_path / 'raw.jsonl'}\n{setting}")
        src = tmp_path / "in.jsonl"
        src.write_bytes(b"a\n")
        code, _, _ = run(capsys, "collect", "--config", str(cfg), "--input", str(src))
        assert code == 0
        assert levels == [level]

    def test_switch_from_config(self, capsys, parsed_table, tmp_path):
        scores = tmp_path / "s.tsv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"parsed = {parsed_table}\nscores = {scores}\napproach = dict\n"
                       "level = country\nstart = 2013-07-22T00:00:00Z\n"
                       "end = 2013-07-23T00:00:00Z\nappend = yes\n")
        for _ in range(2):
            code, _, _ = run(capsys, "score", "--config", str(cfg))
            assert code == 0
        assert len(read_scores(scores)) == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_option_the_handler_reads(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    _, commands = build_parser()
    assert set(commands) == set(COMMANDS)
    handler = commands[command].get_default("func")
    read = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(handler)))
    assert read
    for key in read | {"config", "verbose"}:
        assert re.search(rf"--(no-)?{key.replace('_', '-')}\b", text), key


class TestCorrelate:
    def test_pearson_line(self, capsys, hourly_scores):
        code, out, _ = run(capsys, "correlate", "--scores", str(hourly_scores),
                        "--region", "mycountry", "--level", "country")
        assert code == 0
        value = float(keyvals(out)["pearson"])
        assert -1.0 <= value <= 1.0

    def test_bucket_filter_excludes_other_lengths(self, capsys, hourly_scores, merged_scores):
        code, out, _ = run(capsys, "correlate", "--scores", str(merged_scores),
                        "--region", "mycountry", "--level", "country",
                        "--bucket", "3600")
        assert code == 0
        reference = main(["correlate", "--scores", str(hourly_scores),
                          "--region", "mycountry", "--level", "country"])
        ref_out = capsys.readouterr().out
        assert reference == 0
        assert keyvals(out)["pearson"] == keyvals(ref_out)["pearson"]

    def test_overlapping_buckets_are_refused(self, capsys, merged_scores):
        # the 00:00 day holds the 14:00, 15:00 and 16:00 hours
        code, out, err = run(capsys, "correlate", "--scores", str(merged_scores),
                             "--region", "mycountry", "--level", "country")
        assert code == 2
        assert out == ""
        assert err.startswith("error: series for mycountry: overlapping buckets") and "--bucket" in err

    @pytest.fixture
    def truncated_scores(self, tmp_path, parsed_table):
        # the window ends at 16:30, so its last hourly bucket is 16:00 to 16:30
        scores = tmp_path / "scores.tsv"
        for approach, flags in [("dictionary", []), ("ml", ["--append"])]:
            assert main(["score", "--parsed", str(parsed_table), "--scores", str(scores),
                         "--approach", approach, "--level", "country", "--bucket", "3600",
                         "--start", "2013-07-22T00:00:00Z", "--end", "2013-07-22T16:30:00Z",
                         *flags]) == 0
        assert "2013-07-22T16:30:00Z" in scores.read_text()
        return scores

    def test_truncated_last_bucket_is_no_overlap(self, capsys, tmp_path, truncated_scores):
        scores = truncated_scores
        code, out, err = run(capsys, "correlate", "--scores", str(scores),
                             "--region", "mycountry", "--level", "country")
        assert code == 0, err
        assert "pearson=" in out
        code, _, err = run(capsys, "render", "--kind", "linegraph", "--scores", str(scores),
                           "--region", "mycountry", "--out", str(tmp_path / "line"))
        assert code == 0, err
        assert "2013-07-22T16:00:00Z" in (tmp_path / "line.csv").read_text()

    def test_bucket_keeps_the_truncated_last_bucket(self, capsys, truncated_scores):
        # --bucket 3600 keeps 16:00 to 16:30, the bucket that starts where the last hour ends
        results = []
        for flags in ([], ["--bucket", "3600"]):
            code, out, err = run(capsys, "correlate", "--scores", str(truncated_scores),
                                 "--region", "mycountry", "--level", "country", *flags)
            assert code == 0, err
            results.append(keyvals(out)["pearson"])
        assert results[0] == results[1]
        assert results[0] != "1.0"  # three hours, not the two full ones alone

    def test_cell_scored_twice_is_one_bucket(self, capsys, parsed_table, truncated_scores):
        # half-hourly rows appended to the hourly ones: the hourly window's last bucket,
        # 16:00 to 16:30, is the last half hour's cell, scored twice with equal counts
        for approach in ("dictionary", "ml"):
            code, _, err = run(capsys, "score", "--parsed", str(parsed_table),
                               "--scores", str(truncated_scores), "--approach", approach,
                               "--level", "country", "--bucket", "1800", "--append",
                               "--start", "2013-07-22T00:00:00Z", "--end", "2013-07-22T16:30:00Z")
            assert code == 0, err
        # the values of the hourly-only and the half-hourly-only tables
        for bucket, pearson in (("3600", "0.9936531473553264"), ("1800", "0.8624393618641035")):
            code, out, err = run(capsys, "correlate", "--scores", str(truncated_scores),
                                 "--region", "mycountry", "--level", "country", "--bucket", bucket)
            assert (code, out, err) == (0, f"pearson={pearson}\n", "")
        code, out, err = run(capsys, "correlate", "--scores", str(truncated_scores),
                             "--region", "mycountry", "--level", "country")
        assert code == 2
        assert out == ""
        assert err.startswith("error: series for mycountry: duplicate buckets at 2013-07-22T14:00:00Z")

    @pytest.mark.parametrize("bucket", TOO_LONG_BUCKETS)
    def test_bucket_no_timedelta_holds_is_a_data_error(self, capsys, hourly_scores, bucket):
        code, out, err = run(capsys, "correlate", "--scores", str(hourly_scores),
                             "--region", "mycountry", "--level", "country", "--bucket", bucket)
        assert code == 2
        assert err == f"error: bucket_seconds must be in 1..86399999999999, got {bucket}\n"
        assert out == ""

    def test_runs_with_numpy_blocked(self, hourly_scores):
        code = ("import sys; sys.modules['numpy'] = None\n"
                "import geosent, geosent.cli\n"
                "sys.exit(geosent.cli.main(['correlate', '--scores', sys.argv[1],"
                " '--region', 'mycountry', '--level', 'country']))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code, str(hourly_scores)],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert "pearson=" in result.stdout

    def test_table_that_is_not_utf8(self, capsys, latin1_scores):
        code, out, err = run(capsys, "correlate", "--scores", str(latin1_scores),
                             "--region", "caf\xe9", "--level", "country")
        assert_names_line_2_of(latin1_scores, code, out, err)

    def test_too_few_points(self, capsys, daily_scores):
        code, _, err = run(capsys, "correlate", "--scores", str(daily_scores),
                      "--region", "mycountry", "--level", "country")
        assert code == 2


class TestRender:
    def test_kml(self, capsys, daily_scores, regions_file, tmp_path):
        out_path = tmp_path / "map.kml"
        code, out, _ = run(capsys, "render", "--kind", "kml",
                        "--scores", str(daily_scores),
                        "--regions", str(regions_file),
                        "--out", str(out_path))
        assert code == 0
        assert keyvals(out)["kml"] == str(out_path)
        assert out_path.read_bytes().startswith(b"<?xml")

    def test_tilemap(self, capsys, daily_scores, tmp_path):
        out_path = tmp_path / "tiles.svg"
        code, out, _ = run(capsys, "render", "--kind", "tilemap",
                        "--scores", str(daily_scores),
                        "--out", str(out_path))
        assert code == 0
        assert keyvals(out)["tilemap"] == str(out_path)
        assert b"<svg" in out_path.read_bytes()

    def test_linegraph(self, capsys, hourly_scores, tmp_path):
        code, out, _ = run(capsys, "render", "--kind", "linegraph",
                        "--scores", str(hourly_scores),
                        "--region", "mycountry", "--out", str(tmp_path / "line"))
        assert code == 0
        got = keyvals(out)
        assert got["linegraph_svg"].endswith("line.svg")
        assert got["linegraph_csv"].endswith("line.csv")
        assert (tmp_path / "line.csv").exists()

    def test_table_that_is_not_utf8(self, capsys, latin1_scores, tmp_path):
        code, out, err = run(capsys, "render", "--kind", "linegraph", "--scores", str(latin1_scores),
                             "--region", "caf\xe9", "--out", str(tmp_path / "line"))
        assert_names_line_2_of(latin1_scores, code, out, err)
        assert not (tmp_path / "line.svg").exists()

    def test_overlapping_buckets_draw_nothing(self, capsys, merged_scores, tmp_path):
        code, out, err = run(capsys, "render", "--kind", "linegraph", "--scores", str(merged_scores),
                             "--region", "mycountry", "--out", str(tmp_path / "line"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: linegraph: overlapping bucket")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["merged.tsv"]

    @pytest.mark.parametrize("kind, flags", [
        ("kml", ["--bucket-start", "2013-07-23T00:00:00Z"]),
        ("tilemap", ["--approach", "ml", "--bucket-start", "2013-07-22T05:00:00Z"]),
        ("linegraph", ["--region", "nosuchplace"]),
    ])
    def test_empty_pick_draws_nothing(self, capsys, daily_scores, regions_file, tmp_path,
                                      kind, flags):
        code, out, err = run(capsys, "render", "--kind", kind, "--scores", str(daily_scores),
                             "--regions", str(regions_file), "--out", str(tmp_path / "out"),
                             *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {kind}: no rows to render\n"
        assert list(tmp_path.iterdir()) == []

    def test_wrong_header_names_the_file(self, capsys, tmp_path):
        table = tmp_path / "scores.tsv"
        table.write_text("who,what\n1,2\n")
        code, out, err = run(capsys, "render", "--kind", "tilemap", "--scores", str(table),
                             "--out", str(tmp_path / "tiles.svg"))
        assert code == 2
        assert err.startswith(f"error: {table}: line 1: unexpected scores header ['who', 'what']")

    def test_linegraph_offset_past_the_year_9999(self, capsys, tmp_path):
        # the shifted labels fall in the year 10000, which datetime cannot hold
        table = tmp_path / "scores.tsv"
        starts = [datetime(9999, 12, 31, hour, tzinfo=timezone.utc) for hour in (22, 23)]
        write_scores(table, [ScoreRow("Dictionary", "Country", "mycountry", "", start,
                                      start + timedelta(minutes=59, seconds=59), 2, 1, 3, 2.0, 1.0)
                             for start in starts])
        code, _, err = run(capsys, "render", "--kind", "linegraph", "--scores", str(table),
                           "--region", "mycountry", "--tz-offset", "120",
                           "--out", str(tmp_path / "line"))
        assert code == 0, err
        svg = (tmp_path / "line.svg").read_text(encoding="utf-8")
        assert ">01-01 00:00<" in svg and ">01-01 01:00<" in svg
        csv_lines = (tmp_path / "line.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in csv_lines[1:]] == [format_instant(s) for s in starts]

    def test_kind_required(self, capsys, daily_scores, tmp_path):
        code, _, err = run(capsys, "render", "--scores", str(daily_scores),
                      "--out", str(tmp_path / "x"))
        assert code == 1


class TestGenCorpus:
    def test_mix_flags(self, capsys, regions_file, tmp_path):
        out_path = tmp_path / "raw.jsonl"
        code, out, _ = run(capsys, "gen-corpus", "--regions", str(regions_file),
                        "--out", str(out_path), "--seed", "5",
                        "--start", "2013-07-22T00:00:00Z",
                        "--mix", "happycounty:3:1", "--mix", "sadcounty:1:3")
        assert code == 0
        assert keyvals(out)["records"] == "8"
        assert len(out_path.read_text().splitlines()) == 8

    def test_mix_from_config(self, capsys, regions_file, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            f"regions = {regions_file}\n"
            f"out = {tmp_path / 'raw.jsonl'}\n"
            "seed = 5\n"
            "start = 2013-07-22T00:00:00Z\n"
            "mix = happycounty:2:1 sadcounty:1:2\n"
        )
        code, out, _ = run(capsys, "gen-corpus", "--config", str(cfg))
        assert code == 0
        assert keyvals(out)["records"] == "6"

    def test_mix_flags_replace_config_mix(self, capsys, regions_file, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("mix = happycounty:2:1 sadcounty:1:2\n")
        code, out, _ = run(capsys, "gen-corpus", "--config", str(cfg),
                           "--regions", str(regions_file), "--out", str(tmp_path / "raw.jsonl"),
                           "--seed", "5", "--start", "2013-07-22T00:00:00Z",
                           "--mix", "happycounty:1:0", "--mix", "sadcounty:0:1")
        assert code == 0
        assert keyvals(out)["records"] == "2"

    def test_mix_required(self, capsys, regions_file, tmp_path):
        code, _, err = run(capsys, "gen-corpus", "--regions", str(regions_file),
                      "--out", str(tmp_path / "raw.jsonl"), "--seed", "5",
                      "--start", "2013-07-22T00:00:00Z")
        assert code == 1

    @pytest.mark.parametrize("span", [
        ["--start", "9999-12-31T23:00:00Z"],
        ["--start", "2013-07-22T00:00:00Z", "--duration", str(10**20)],
    ], ids=["late-start", "long-duration"])
    def test_span_past_year_9999_is_refused_before_writing(self, capsys, regions_file, tmp_path,
                                                           span):
        out_path = tmp_path / "raw.jsonl"
        out_path.write_bytes(b"earlier table\n")
        code, _, err = run(capsys, "gen-corpus", "--regions", str(regions_file),
                           "--out", str(out_path), "--seed", "5",
                           "--mix", "happycounty:30:1", *span)
        assert code == 2
        assert err.startswith("error: ") and "9999" in err
        assert out_path.read_bytes() == b"earlier table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["raw.jsonl"]

    @pytest.mark.parametrize("start", ["0999-07-22T00:00:00Z", "1000-01-01T00:30:00+01:00"],
                             ids=["year-999", "year-999-in-utc"])
    def test_start_before_the_year_1000_is_refused_before_writing(self, capsys, regions_file,
                                                                   tmp_path, start):
        out_path = tmp_path / "raw.jsonl"
        out_path.write_bytes(b"earlier table\n")
        code, _, err = run(capsys, "gen-corpus", "--regions", str(regions_file),
                           "--out", str(out_path), "--seed", "5",
                           "--mix", "happycounty:3:1", "--start", start)
        assert code == 2
        assert err.startswith("error: ") and "before the year 1000" in err
        assert out_path.read_bytes() == b"earlier table\n"
        assert [p.name for p in tmp_path.iterdir()] == ["raw.jsonl"]


class TestPipeline:
    def test_matches_individual_commands(self, capsys, corpus_file,
                                         regions_file, tmp_path):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(
            f"raw = {corpus_file}\n"
            f"regions = {regions_file}\n"
            f"parsed = {tmp_path / 'p.tsv'}\n"
            f"scores = {tmp_path / 's.tsv'}\n"
            "start = 2013-07-22T00:00:00Z\n"
            "end = 2013-07-23T00:00:00Z\n"
            f"kml_out = {tmp_path / 'map.kml'}\n"
            f"tilemap_out = {tmp_path / 'tiles.svg'}\n"
            f"line_out = {tmp_path / 'line'}\n"
            "line_region = mycountry\n"
        )
        code, out, _ = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0
        got = keyvals(out)
        assert got["accepted"] == "9"
        for key in ("parsed", "scores", "kml", "tilemap",
                    "linegraph_svg", "linegraph_csv", "line_scores"):
            assert key in got

        # the one-shot run must write the same bytes the step-by-step
        # commands do
        solo_parsed = tmp_path / "solo_p.tsv"
        assert main(["parse", "--raw", str(corpus_file),
                     "--regions", str(regions_file),
                     "--parsed", str(solo_parsed)]) == 0
        capsys.readouterr()
        assert solo_parsed.read_bytes() == (tmp_path / "p.tsv").read_bytes()

        solo_kml = tmp_path / "solo.kml"
        assert main(["render", "--kind", "kml", "--scores", str(tmp_path / "s.tsv"),
                     "--regions", str(regions_file), "--out", str(solo_kml)]) == 0
        capsys.readouterr()
        assert solo_kml.read_bytes() == (tmp_path / "map.kml").read_bytes()


    def test_county_unassigned_is_a_line_region(self, capsys, corpus_file, regions_file, tmp_path):
        # without sadcounty its tweets fall to mycountry's county 'unassigned'
        doc = json.loads(regions_file.read_text(encoding="utf-8"))
        doc["features"] = [f for f in doc["features"] if f["properties"]["name"] != "sadcounty"]
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps(doc))
        code, out, err = run(capsys, "pipeline", "--raw", str(corpus_file), "--regions", str(regions),
                             "--parsed", str(tmp_path / "p.tsv"), "--scores", str(tmp_path / "s.csv"),
                             "--line-out", str(tmp_path / "line"), "--line-level", "county",
                             "--line-region", "unassigned", *WINDOW)
        assert code == 0, err
        assert "\tunassigned\t" in (tmp_path / "p.tsv").read_text(encoding="utf-8")
        assert keyvals(out)["linegraph_csv"] == str(tmp_path / "line.csv")

    def test_readme_key_table_lists_every_option(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("`pipeline` takes these keys.", 1)[1].split("\n\n")[1]
        keys = set()
        for line in table.splitlines()[2:]:
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        _, commands = build_parser()
        dests = {action.dest for action in commands["pipeline"]._actions}
        assert keys == dests - {"help", "config", "verbose"}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_lone_surrogate_costs_only_its_record(self, capsys, corpus_file, regions_file,
                                                  tmp_path, threads):
        lines = corpus_file.read_bytes().splitlines(keepends=True)
        broken = json.loads(lines[0])
        broken["text"] = "broken \ud83d emoji"  # a truncated emoji
        with_bad = tmp_path / "t1.jsonl"
        with_bad.write_bytes(b"".join(lines[:2]) + json.dumps(broken).encode() + b"\n"
                             + b"".join(lines[2:]))

        def pipeline(raw, name):
            return run(capsys, "pipeline", "--raw", str(raw), "--regions", str(regions_file),
                       "--parsed", str(tmp_path / f"{name}.tsv"),
                       "--scores", str(tmp_path / f"{name}.csv"), "--threads", threads, *WINDOW)

        code, out, err = pipeline(with_bad, "bad")
        assert code == 0, err
        assert pipeline(corpus_file, "good")[0] == 0
        assert keyvals(out)["lines_read"] == str(len(lines) + 1)
        assert keyvals(out)["accepted"] == "9"
        for suffix in ("tsv", "csv"):
            assert (tmp_path / f"bad.{suffix}").read_bytes() == (tmp_path / f"good.{suffix}").read_bytes()

    def test_tab_and_line_breaks_separate_words(self, capsys, corpus_file, regions_file, tmp_path):
        # a TAB, LF or CR is stored as a space, so no two words are read as one
        first = json.loads(corpus_file.read_bytes().splitlines()[0])
        raw = tmp_path / "t1.jsonl"
        raw.write_text("".join(json.dumps({**first, "text": text}) + "\n" for text in [
            "so happy today", "so happy\ntoday", "so sad\nhappy today", "sad\thappy"]))
        scopes = ["--approaches", "dictionary", "--levels", "country"]
        tables = []
        for threads in ("1", "2"):
            scores = tmp_path / f"pipeline{threads}.csv"
            code, _, err = run(capsys, "pipeline", "--raw", str(raw), "--regions", str(regions_file),
                               "--parsed", str(tmp_path / f"t2-{threads}.tsv"), "--scores",
                               str(scores), "--threads", threads, *scopes, *WINDOW)
            assert code == 0, err
            tables.append(scores)
        parsed, scores = tmp_path / "t2.tsv", tmp_path / "score.csv"
        assert run(capsys, "parse", "--raw", str(raw), "--regions", str(regions_file),
                   "--parsed", str(parsed))[0] == 0
        assert run(capsys, "score", "--parsed", str(parsed), "--scores", str(scores),
                   "--approach", "dictionary", "--level", "country", *WINDOW)[0] == 0
        tables.append(scores)
        [row] = read_scores(scores)
        assert (row.approach, row.pos_count, row.neg_count, row.tweet_count) == ("Dictionary", 4, 2, 4)
        assert {table.read_bytes() for table in tables} == {scores.read_bytes()}

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_line_past_a_json_limit_costs_only_itself(self, capsys, caplog, corpus_file,
                                                      regions_file, tmp_path, threads):
        # an int of 5,000 digits (int reads at most 4,300), a coordinate that no float
        # holds, and nesting past the recursion limit, each between good records
        lines = corpus_file.read_bytes().splitlines(keepends=True)
        long_int = lines[0].replace(b'"100001"', b"9" * 5000)
        huge_point = lines[0].replace(b"[2.1, 2.3]", b"[1" + b"0" * 400 + b", 2.3]")
        deep = b"[" * 100_000 + b"\n"
        with_bad = tmp_path / "t1.jsonl"
        with_bad.write_bytes(b"".join([*lines[:2], long_int, *lines[2:5], huge_point, *lines[5:8],
                                       deep, *lines[8:]]))

        def parse(raw, name):
            return run(capsys, "parse", "--raw", str(raw), "--regions", str(regions_file),
                       "--parsed", str(tmp_path / f"{name}.parse.tsv"), "--threads", threads)

        def pipeline(raw, name):
            return run(capsys, "pipeline", "--raw", str(raw), "--regions", str(regions_file),
                       "--parsed", str(tmp_path / f"{name}.tsv"),
                       "--scores", str(tmp_path / f"{name}.csv"), "--threads", threads, *WINDOW)

        code, out, err = parse(with_bad, "bad")
        assert code == 0, err
        assert parse(corpus_file, "good")[0] == 0
        assert keyvals(out)["lines_read"] == str(len(lines) + 3)
        assert (keyvals(out)["accepted"], keyvals(out)["rejected_malformed"]) == ("9", "3")
        caplog.clear()
        code, out, err = pipeline(with_bad, "bad")
        assert code == 0, err
        assert "parse: 3 malformed records dropped" in caplog.messages
        assert pipeline(corpus_file, "good")[0] == 0
        assert keyvals(out)["lines_read"] == str(len(lines) + 3)
        for suffix in ("parse.tsv", "tsv", "csv"):
            assert (tmp_path / f"bad.{suffix}").read_bytes() == (tmp_path / f"good.{suffix}").read_bytes()

    @pytest.mark.parametrize("setting", [
        "norm_scope = bogus",
        "levels = county\nkml_out = {tmp}/map.kml",
        "levels = country\ntilemap_out = {tmp}/tiles.svg",
        "approaches = ml\nkml_out = {tmp}/map.kml",
        "line_out = {tmp}/line",
        "end = 2013-07-22T00:00:00Z",
        "approaches = dictionary,dict",
        "levels = county,County",
        "approaches = ,",
        "bucket_start = 2013-07-23T00:00:00Z",
        "bucket_start = 2013-07-22T06:00:00Z",
        "start = 0999-01-01T00:00:00Z",
        "kml_out = {tmp}/m.kml\nline_out = {tmp}/line\nline_region = nosuchplace",
    ])
    def test_bad_setting_fails_before_the_parsed_table_is_touched(
            self, capsys, corpus_file, regions_file, tmp_path, setting):
        code, out, err = self.run_untouched(capsys, corpus_file, regions_file, tmp_path, setting)
        assert code == 1
        assert "usage error" in err
        assert out == ""

    @pytest.mark.parametrize("setting", [
        "end = 2013-07-22T00:00:00Z",
        "bucket_start = 2013-07-22T06:00:00Z",
    ])
    def test_bad_setting_is_a_usage_error_before_the_region_file_is_read(
            self, capsys, corpus_file, tmp_path, setting):
        # the same setting gives exit 1 whether or not the region file can be read
        missing = tmp_path / "missing.geojson"
        code, out, err = self.run_untouched(capsys, corpus_file, missing, tmp_path, setting)
        assert code == 1
        assert err.startswith("usage error: ")
        assert out == ""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("kind, setting", [
        # a valid region that has no tweets in the window
        ("linegraph", "line_out = {tmp}/line\nline_level = county\nline_region = unassigned"),
        # an hour of the window without tweets
        ("kml", "bucket = 3600\nbucket_start = 2013-07-22T05:00:00Z\nkml_out = {tmp}/m.kml"),
        ("tilemap", "bucket = 3600\nbucket_start = 2013-07-22T05:00:00Z\n"
                    "tilemap_out = {tmp}/t.svg"),
    ], ids=["linegraph-unassigned", "kml-empty-hour", "tilemap-empty-hour"])
    def test_render_without_rows_replaces_nothing(self, capsys, corpus_file, regions_file,
                                                  tmp_path, kind, setting, threads):
        code, out, err = self.run_untouched(capsys, corpus_file, regions_file, tmp_path,
                                            f"{setting}\nthreads = {threads}")
        assert code == 2
        assert err.endswith(f"error: {kind}: no rows to render\n")
        assert out == ""

    @pytest.mark.parametrize("setting", ["model = /nonexistent", "lexicon = /nonexistent"])
    def test_unreadable_analyser_file_is_a_data_error(
            self, capsys, corpus_file, regions_file, tmp_path, setting):
        # exit 2, as score gives for the same file, and still before parsing
        code, out, err = self.run_untouched(capsys, corpus_file, regions_file, tmp_path, setting)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("key", ["bucket", "line_bucket"])
    @pytest.mark.parametrize("bucket", TOO_LONG_BUCKETS)
    def test_bucket_no_timedelta_holds_is_a_usage_error(self, capsys, corpus_file, tmp_path,
                                                         key, bucket):
        # refused before the region file, which does not exist, is read
        setting = f"{key} = {bucket}\nline_out = {{tmp}}/line\nline_region = mycountry"
        code, out, err = self.run_untouched(capsys, corpus_file, tmp_path / "missing.geojson",
                                            tmp_path, setting)
        assert code == 1
        assert err == ("usage error: bad pipeline setting: "
                       f"bucket_seconds must be in 1..86399999999999, got {bucket}\n")
        assert out == ""

    @staticmethod
    def run_untouched(capsys, corpus_file, regions_file, tmp_path, setting):
        """Run pipeline with one extra config line; no table may change or appear."""
        parsed = tmp_path / "p.tsv"
        parsed.write_bytes(b"an earlier parsed table\n")
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(
            f"raw = {corpus_file}\n"
            f"regions = {regions_file}\n"
            f"parsed = {parsed}\n"
            f"scores = {tmp_path / 's.tsv'}\n"
            "start = 2013-07-22T00:00:00Z\n"
            "end = 2013-07-23T00:00:00Z\n"
            + setting.format(tmp=tmp_path) + "\n"
        )
        result = run(capsys, "pipeline", "--config", str(cfg))
        assert parsed.read_bytes() == b"an earlier parsed table\n"
        # no score table, render or staged *.tmp sibling is left
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.tsv", "pipe.cfg"]
        return result

    @pytest.mark.parametrize("flags", [["--approaches", "ml,machine-learning"],
                                       ["--levels", "country,country"]])
    def test_repeated_list_entry_is_a_usage_error(self, capsys, corpus_file,
                                                  regions_file, tmp_path, flags):
        code, _, err = run(capsys, "pipeline", "--raw", str(corpus_file),
                           "--regions", str(regions_file), "--parsed", str(tmp_path / "p.tsv"),
                           "--scores", str(tmp_path / "s.tsv"), *WINDOW, *flags)
        assert code == 1
        assert "repeated value" in err
        assert not (tmp_path / "p.tsv").exists()

    def test_flags_and_config_give_the_same_run(self, capsys, tmp_path):
        # The demo's config plus every pipeline key away from its default,
        # once as a config file and once as flags.
        spec = importlib.util.spec_from_file_location("full_pipeline",
                                                      ROOT / "demos" / "full_pipeline.py")
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        extra = {
            "norm_scope": "siblings",
            "tz_offset": "60",
            "approaches": "ml,dictionary",
            "levels": "county,country",
            "line_level": "County",
            "line_region": "happycounty",
            "line_bucket": "7200",
            "render_approach": "ml",
            "hashtag_match": "0",
            "bucket_start": "2013-07-22T00:00:00Z",
            "threads": "2",
        }
        runs = {}
        for how in ("config", "flags"):
            out_dir = tmp_path / how
            out_dir.mkdir()
            cfg = tmp_path / f"{how}.cfg"
            cfg.write_text(demo.pipeline_config(out_dir))
            settings = read_config(cfg)
            settings.update(extra, line_scores=str(out_dir / "line.tsv"))
            if how == "config":
                cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
                argv = ["--config", str(cfg)]
            else:
                argv = []
                for key, value in settings.items():
                    if key == "hashtag_match":
                        argv.append("--no-hashtag-match")
                    else:
                        argv += [f"--{key.replace('_', '-')}", value]
            code, out, _ = run(capsys, "pipeline", *argv)
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            runs[how] = (out.replace(str(out_dir), "OUT"), files)
        assert runs["config"] == runs["flags"]
        out, files = runs["config"]
        assert set(keyvals(out)) == {"lines_read", "accepted", "parsed", "scores",
                                     "line_scores", "kml", "tilemap",
                                     "linegraph_svg", "linegraph_csv"}
        assert "line.tsv" in files
        assert files["pipe.t3.tsv"].splitlines()[1].startswith(b"MachineLearning,County,")

    def test_readme_demo_config_runs(self, capsys, monkeypatch, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("with `demo.cfg` containing:", 1)[1].split("```")[1]
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(block.replace("=out/", f"={tmp_path}/"))
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0
        assert {"kml", "tilemap", "linegraph_svg"} <= set(keyvals(out))


def test_console_script_installed():
    result = subprocess.run([sys.executable, "-m", "geosent.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "COMMAND" in result.stdout


def test_console_script_entry_point(tmp_path):
    # Run the declared entry point through the launcher pip would write, so
    # the check needs no installed package.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["geosent"]
    module, attr = entry.split(":")
    launcher = tmp_path / "geosent"
    launcher.write_text(f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\n"
                        f"sys.exit({attr}())\n", encoding="utf-8")
    launcher.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
               PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
    result = subprocess.run(["geosent"], capture_output=True, text=True, env=env)
    assert result.returncode == 1
    assert "usage error" in result.stderr
