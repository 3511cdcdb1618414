import io
import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geosent import estimator, store
from geosent.georesolve import load_regions
from geosent.ingest import (
    MALFORMED,
    NO_GEO,
    collect,
    parse_corpus,
    parse_record,
    sanitize_text,
)
from geosent.store import ParsedTweet

from conftest import fail_on_call, utc


# byte streams with embedded LF and CRLF line ends, and lone CRs
STREAMS = st.lists(st.sampled_from([b"a", b'{"b":1}', b"\xff", b"\n", b"\r\n", b"\r"]),
                   max_size=40).map(b"".join)


_scan_block = estimator._scan_block


def _dies_on_the_marked_block(*args):
    """estimator's block function, except that the worker given the line with id "die" exits."""
    if any(b'"die"' in line for line in args[-1]):
        os._exit(9)  # as an OOM kill would end it, with no exception to send back
    return _scan_block(*args)


class Trickle:
    """A byte stream whose reads return the given pieces in turn, then b""."""

    def __init__(self, pieces):
        self.pieces = list(pieces)

    def read(self, size=-1):
        return self.pieces.pop(0) if self.pieces else b""


def record(**overrides):
    base = {
        "id_str": "42",
        "created_at": "Mon Jul 22 16:24:00 +0000 2013",
        "coordinates": {"type": "Point", "coordinates": [2.5, 3.0]},
        "text": "hello",
    }
    base.update(overrides)
    return json.dumps(base)


class TestCollect:
    def test_lines_and_fragment(self, tmp_path):
        stream = io.BytesIO(b'{"a":1}\n{"b":2}\ntail-without-newline')
        stats, fragment = collect(stream, tmp_path / "t1.jsonl")
        assert stats.lines_read == 2
        assert fragment == b"tail-without-newline"
        assert (tmp_path / "t1.jsonl").read_bytes() == b'{"a":1}\n{"b":2}\n'

    def test_bytes_kept_verbatim(self, tmp_path):
        # not valid UTF-8, and not valid JSON either; collection country does
        # not care, that is the parser's problem
        blob = b'\xff\xfe broken \xff\n'
        stats, fragment = collect(io.BytesIO(blob), tmp_path / "t1.jsonl")
        assert stats.lines_read == 1
        assert fragment == b""
        assert (tmp_path / "t1.jsonl").read_bytes() == blob

    def test_appends_across_calls(self, tmp_path):
        path = tmp_path / "t1.jsonl"
        collect(io.BytesIO(b"one\n"), path)
        collect(io.BytesIO(b"two\n"), path)
        assert path.read_bytes() == b"one\ntwo\n"

    def test_crlf_preserved(self, tmp_path):
        path = tmp_path / "t1.jsonl"
        stats, _ = collect(io.BytesIO(b"a\r\nb\n"), path)
        assert stats.lines_read == 2
        assert path.read_bytes() == b"a\r\nb\n"

    @settings(max_examples=200, deadline=None)
    @given(stream=STREAMS, data=st.data())
    def test_any_split_of_the_stream(self, stream, data):
        pieces, at = [], 0
        while at < len(stream):
            size = data.draw(st.integers(1, 7))
            pieces.append(stream[at:at + size])
            at += size
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t1.jsonl"
            stats, fragment = collect(Trickle(pieces), path)
            stored = path.read_bytes()
        cut = stream.rfind(b"\n") + 1
        assert stored == stream[:cut]
        assert fragment == stream[cut:]
        assert stats.lines_read == stream.count(b"\n")

    def test_line_of_many_chunks_is_stored_whole(self, tmp_path):
        line = bytes(range(32, 127)) * (5 * 2**20 // 95)  # over 5 MiB, no LF
        chunks = [line[at:at + 65536] for at in range(0, len(line), 65536)]
        path = tmp_path / "t1.jsonl"
        stats, fragment = collect(Trickle([*chunks, b"\n"]), path)
        assert (stats.lines_read, fragment) == (1, b"")
        assert path.read_bytes() == line + b"\n"

    def test_resumed_stream_logs_nothing(self, tmp_path, caplog):
        path = tmp_path / "t1.jsonl"
        fragment = b""
        with caplog.at_level("DEBUG"):
            for piece in (b'{"a":1}\n{"b"', b':2}\n{"c"', b":3}\n"):
                _, fragment = collect(io.BytesIO(fragment + piece), path)
        assert caplog.records == []
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n{"c":3}\n'


class TestParseRecord:
    def test_valid_classic_timestamp(self):
        got = parse_record(record())
        assert isinstance(got, ParsedTweet)
        assert got.tweet_id == "42"
        assert got.timestamp == utc(2013, 7, 22, 16, 24, 0)
        assert (got.lat, got.lon) == (3.0, 2.5)
        # not resolved yet: validate() refuses the row until its region is set
        assert (got.country, got.county) == ("", "")
        with pytest.raises(ValueError, match="empty country"):
            got.validate()

    def test_offset_timestamp_normalised(self):
        got = parse_record(record(created_at="Mon Jul 22 12:00:00 +0100 2013"))
        assert got.timestamp == utc(2013, 7, 22, 11, 0, 0)

    def test_iso_timestamp_accepted(self):
        got = parse_record(record(created_at="2013-07-22T16:24:00Z"))
        assert got.timestamp == utc(2013, 7, 22, 16, 24, 0)

    def test_numeric_id_fallback(self):
        raw = json.loads(record())
        del raw["id_str"]
        raw["id"] = 987654321
        got = parse_record(json.dumps(raw))
        assert got.tweet_id == "987654321"

    def test_bare_coordinate_list(self):
        got = parse_record(record(coordinates=[2.5, 3.0]))
        assert (got.lat, got.lon) == (3.0, 2.5)

    @pytest.mark.parametrize("mangle", [
        lambda r: r.pop("id_str"),
        lambda r: r.pop("created_at"),
        lambda r: r.pop("text"),
        lambda r: r.update(created_at="yesterday-ish"),
        lambda r: r.update(created_at="Mon Xxx 22 16:24:00 +0000 2013"),
        lambda r: r.update(coordinates={"type": "Point", "coordinates": ["a", "b"]}),
        lambda r: r.update(coordinates={"type": "Point", "coordinates": [2.5]}),
        lambda r: r.update(coordinates=[200.0, 3.0]),
        lambda r: r.update(coordinates=[2.5, 95.0]),
        lambda r: r.update(coordinates=[True, False]),
        lambda r: r.update(text=7),
    ])
    def test_malformed(self, mangle):
        raw = json.loads(record())
        mangle(raw)
        assert parse_record(json.dumps(raw)) == MALFORMED

    @pytest.mark.parametrize("overrides", [
        {"text": "broken \ud83d emoji"},                         # a truncated emoji
        {"text": "\udc00 low half first"},
        {"id_str": "4\ud83d2"},
        {"id_str": "tab\tid"},                                   # no T2 field holds these
        {"id_str": "nl\nid"},
        {"id_str": "cr\rid"},
        {"created_at": "0999-07-22T16:24:00Z"},                   # T2 could not read it back
        {"created_at": "Mon Jul 22 16:24:00 +0000 0999"},
        {"created_at": "0001-01-01T00:30:00+01:00"},              # before year 1 in UTC
        {"created_at": "Fri Dec 31 23:59:59 -0100 9999"},         # after year 9999 in UTC
    ], ids=["text-surrogate", "text-low-surrogate", "id-surrogate", "id-tab", "id-lf", "id-cr",
            "iso-year-999", "classic-year-999", "iso-overflow", "classic-overflow"])
    def test_record_that_t2_cannot_hold_is_malformed(self, overrides):
        assert parse_record(record(**overrides)) == MALFORMED
        assert parse_record(record(**overrides).encode("ascii")) == MALFORMED

    def test_non_ascii_text_kept(self):
        assert parse_record(record(text="caf\xe9 \U0001f600")).text == "caf\xe9 \U0001f600"
        assert parse_record(record(created_at="1000-01-01T00:00:00Z")).timestamp == utc(1000, 1, 1)

    def test_not_json(self):
        assert parse_record(b"{nope") == MALFORMED
        assert parse_record(b"\xff\xfe") == MALFORMED
        assert parse_record(b'"just a string"') == MALFORMED

    def test_missing_geo(self):
        raw = json.loads(record())
        del raw["coordinates"]
        assert parse_record(json.dumps(raw)) == NO_GEO
        raw["coordinates"] = None
        assert parse_record(json.dumps(raw)) == NO_GEO

    def test_text_sanitised(self):
        got = parse_record(record(text="line one\nline\ttwo\r\nthree"))
        assert got.text == "line one\\nline\\ttwo\\nthree"

    def test_lon_lat_order(self):
        # the raw field is (lon, lat); make sure nothing flips it
        got = parse_record(record(coordinates=[-0.1, 51.5]))
        assert got.lat == 51.5
        assert got.lon == -0.1


def test_sanitize_text_literals():
    assert sanitize_text("a\tb") == "a\\tb"
    assert sanitize_text("a\r\nb\rc\nd") == "a\\nb\\nc\\nd"


class TestParseCorpus:
    def write_raw(self, tmp_path, lines):
        path = tmp_path / "t1.jsonl"
        path.write_bytes(b"".join(line.encode() + b"\n" for line in lines))
        return path

    def test_stats_add_up(self, tmp_path, regions_file):
        raw = self.write_raw(tmp_path, [
            record(coordinates=[2.0, 2.0]),                   # happycounty
            record(coordinates=[7.0, 2.0]),                   # sadcounty
            record(coordinates=[5.0, 5.0]),                   # country only
            record(coordinates=[50.0, 50.0]),                 # off the map
            json.dumps({"id_str": "x", "created_at": "Mon Jul 22 10:00:00 +0000 2013", "text": "t"}),
            "{broken",
        ])
        index = load_regions(regions_file)
        stats = parse_corpus(raw, index, tmp_path / "t2.tsv")
        assert stats.lines_read == 6
        assert stats.accepted == 3
        assert stats.rejected_unresolved == 1
        assert stats.rejected_no_geo == 1
        assert stats.rejected_malformed == 1
        assert stats.lines_read == (stats.accepted + stats.rejected_no_geo
                                    + stats.rejected_malformed + stats.rejected_unresolved)

    def test_region_assignment(self, tmp_path, regions_file):
        raw = self.write_raw(tmp_path, [
            record(coordinates=[2.0, 2.0]),
            record(coordinates=[5.0, 5.0]),
        ])
        index = load_regions(regions_file)
        parse_corpus(raw, index, tmp_path / "t2.tsv")
        lines = (tmp_path / "t2.tsv").read_text().splitlines()
        assert "\tmycountry\thappycounty\t" in lines[0]
        assert "\tmycountry\tunassigned\t" in lines[1]

    def test_crlf_raw_input_parses_as_lf(self, tmp_path, corpus_file, regions_file):
        lf = corpus_file.read_bytes()
        assert b"\r" not in lf
        index = load_regions(regions_file)
        results = []
        for name, data in (("lf", lf), ("crlf", lf.replace(b"\n", b"\r\n"))):
            raw = tmp_path / f"{name}.jsonl"
            collect(io.BytesIO(data), raw)
            assert raw.read_bytes() == data
            stats = parse_corpus(raw, index, tmp_path / f"{name}.tsv")
            results.append((stats, (tmp_path / f"{name}.tsv").read_bytes()))
        assert results[0] == results[1]
        assert results[0][0].accepted == results[0][0].lines_read > 0

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_raw_table_cut_mid_line_is_one_malformed_record(self, corpus_file, regions_file, data):
        # a cut after the closing brace would leave a whole record, which is kept
        lines = corpus_file.read_bytes().splitlines(keepends=True)
        n = data.draw(st.integers(0, len(lines) - 1), label="whole lines kept")
        cut = data.draw(st.integers(1, len(lines[n].rstrip(b"\n")) - 1), label="bytes kept of the next line")
        index = load_regions(regions_file)
        with tempfile.TemporaryDirectory() as tmp:
            whole, torn = Path(tmp) / "whole.jsonl", Path(tmp) / "torn.jsonl"
            whole.write_bytes(b"".join(lines[:n]))
            torn.write_bytes(b"".join(lines[:n]) + lines[n][:cut])
            want = parse_corpus(whole, index, Path(tmp) / "whole.tsv")
            got = parse_corpus(torn, index, Path(tmp) / "torn.tsv")
            assert (Path(tmp) / "torn.tsv").read_bytes() == (Path(tmp) / "whole.tsv").read_bytes()
        want.lines_read += 1
        want.rejected_malformed += 1
        assert got == want

    def test_threads_byte_identical(self, tmp_path, regions_file):
        raw = self.write_raw(tmp_path, [
            record(coordinates=[2.0 + (i % 7) * 0.9, 1.2 + (i % 5) * 0.6])
            for i in range(300)
        ])
        index = load_regions(regions_file)
        one = tmp_path / "one.tsv"
        two = tmp_path / "two.tsv"
        stats_one = parse_corpus(raw, index, one, threads=1)
        stats_two = parse_corpus(raw, index, two, threads=2)
        assert one.read_bytes() == two.read_bytes()
        assert stats_one == stats_two

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_pool_start_methods_match_one_worker(self, tmp_path, regions_file, method):
        raw = self.write_raw(tmp_path, [
            record(id_str=str(i), coordinates=[2.0 + (i % 7) * 0.9, 1.2 + (i % 5) * 0.6])
            if i % 6 else "{broken"
            for i in range(60)
        ])
        index = load_regions(regions_file)
        one = tmp_path / "one.tsv"
        two = tmp_path / "two.tsv"
        # small blocks, so many tasks each carry the bound region index
        with mock.patch.object(store, "BLOCK_BYTES", 700):
            stats_one = parse_corpus(raw, index, one, threads=1)
            with mock.patch.object(multiprocessing, "get_context",
                                   return_value=multiprocessing.get_context(method)):
                stats_two = parse_corpus(raw, index, two, threads=2)
        assert one.read_bytes() == two.read_bytes()
        assert stats_one == stats_two
        assert stats_one.rejected_malformed == 10

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_pool_start_methods_match_one_worker_on_a_large_grid(
            self, tmp_path, grid_regions_file, method):
        # points on grid lines, on vertices, inside cells and off the map
        raw = self.write_raw(tmp_path, [
            record(id_str=str(i), coordinates=[i * 7 % 59 - 1 + i % 3 / 4,
                                               i * i % 59 - 1 + (i % 4 == 1) / 2])
            for i in range(240)
        ])
        index = load_regions(grid_regions_file(56))
        one = tmp_path / "one.tsv"
        two = tmp_path / "two.tsv"
        with mock.patch.object(store, "BLOCK_BYTES", 4000):
            stats_one = parse_corpus(raw, index, one, threads=1)
            with mock.patch.object(multiprocessing, "get_context",
                                   return_value=multiprocessing.get_context(method)):
                stats_two = parse_corpus(raw, index, two, threads=2)
        assert one.read_bytes() == two.read_bytes()
        assert stats_one == stats_two
        assert stats_one.accepted > 150 and stats_one.rejected_unresolved > 10

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lone_surrogate_costs_only_its_record(self, tmp_path, regions_file, threads):
        raw = self.write_raw(tmp_path, [
            record(id_str="before", coordinates=[2.0, 2.0]),
            record(id_str="broken", text="broken \ud83d emoji", coordinates=[2.0, 2.0]),
            record(id_str="after", coordinates=[2.0, 2.0]),
        ])
        parsed = tmp_path / "t2.tsv"
        stats = parse_corpus(raw, load_regions(regions_file), parsed, threads=threads)
        assert (stats.lines_read, stats.accepted, stats.rejected_malformed) == (3, 2, 1)
        assert [line.split(b"\t")[0] for line in parsed.read_bytes().splitlines()] == [b"before", b"after"]

    def test_progress_logged_each_time_more_lines_are_read(self, tmp_path, regions_file, caplog):
        raw = self.write_raw(tmp_path, [record(id_str=str(i), coordinates=[2.0, 2.0])
                                        for i in range(23)])
        # blocks of 7 lines never end on a multiple of 5: a block that passes one logs once;
        # the ids differ in length by a byte, so the seventh line of each passes this cap
        cap = 7 * min(map(len, raw.read_bytes().splitlines(keepends=True))) - 1
        with mock.patch.object(store, "BLOCK_BYTES", cap), \
                mock.patch.object(estimator, "PROGRESS_LINES", 5), caplog.at_level("INFO"):
            parse_corpus(raw, load_regions(regions_file), tmp_path / "t2.tsv")
        assert [r.getMessage() for r in caplog.records] == [
            "parse: 7 lines in", "parse: 14 lines in", "parse: 21 lines in"]

    def test_tab_or_newline_in_tweet_id_is_malformed(self, tmp_path, regions_file):
        raw = self.write_raw(tmp_path, [
            record(id_str="tab\tid", coordinates=[2.0, 2.0]),
            record(id_str="nl\nid", coordinates=[2.0, 2.0]),
            record(id_str="cr\rid", coordinates=[2.0, 2.0]),
            record(id_str="good", coordinates=[2.0, 2.0]),
        ])
        parsed = tmp_path / "t2.tsv"
        stats = parse_corpus(raw, load_regions(regions_file), parsed)
        assert (stats.accepted, stats.rejected_malformed) == (1, 3)
        assert parsed.read_bytes().count(b"\n") == 1
        assert parsed.read_bytes().startswith(b"good\t")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.jsonl", "t2.tsv"]

    def test_failed_run_keeps_the_old_table(self, tmp_path, regions_file):
        parsed = tmp_path / "t2.tsv"
        parsed.write_bytes(b"earlier\ttable\n")
        with pytest.raises(FileNotFoundError):
            parse_corpus(tmp_path / "missing.jsonl", load_regions(regions_file), parsed)
        assert parsed.read_bytes() == b"earlier\ttable\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t2.tsv"]

    def test_failed_write_keeps_the_old_table(self, tmp_path, regions_file, monkeypatch):
        raw = self.write_raw(tmp_path, [record(id_str=str(i), coordinates=[2.0, 2.0])
                                        for i in range(3)])
        parsed = tmp_path / "t2.tsv"
        parsed.write_bytes(b"earlier\ttable\n")
        # one line per block, so the first block is written before the second fails
        monkeypatch.setattr(store, "BLOCK_BYTES", 1)
        monkeypatch.setattr(estimator, "_scan_block", fail_on_call(estimator._scan_block, 2))
        with pytest.raises(OSError):
            parse_corpus(raw, load_regions(regions_file), parsed)
        assert parsed.read_bytes() == b"earlier\ttable\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.jsonl", "t2.tsv"]

    def test_dead_worker_fails_the_run_and_keeps_the_old_table(self, tmp_path, regions_file):
        raw = self.write_raw(tmp_path, [record(id_str=i, coordinates=[2.0, 2.0])
                                        for i in ("1", "2", "die", "4", "5", "6")])
        parsed = tmp_path / "t2.tsv"
        parsed.write_bytes(b"earlier\ttable\n")
        started = time.monotonic()
        # a line a block, so a worker exits on the third of six
        with mock.patch.object(store, "BLOCK_BYTES", 1), \
                mock.patch.object(store, "POOL_BLOCK_MIN_BYTES", 1), \
                mock.patch.object(estimator, "_scan_block", _dies_on_the_marked_block), \
                mock.patch.object(multiprocessing, "get_context",
                                  return_value=multiprocessing.get_context("fork")):
            with pytest.raises(store.StoreError, match="worker process died"):
                parse_corpus(raw, load_regions(regions_file), parsed, threads=2)
        assert time.monotonic() - started < 10
        assert parsed.read_bytes() == b"earlier\ttable\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.jsonl", "t2.tsv"]

    def test_bad_thread_count(self, tmp_path, regions_file):
        with pytest.raises(ValueError):
            parse_corpus(tmp_path / "t1.jsonl", load_regions(regions_file),
                         tmp_path / "t2.tsv", threads=0)
