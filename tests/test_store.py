import dataclasses
import io
import math
import multiprocessing
import os
import re
import stat
import time
from datetime import datetime, timedelta, timezone, tzinfo
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from geosent import store
from geosent.ingest import collect
from geosent.store import (
    CollectorStats,
    ParsedTweet,
    ScoreRow,
    ScoreRowError,
    StoreError,
    _parse_parsed_line,
    format_instant,
    map_blocks,
    parse_instant,
    read_scores,
    write_scores,
)

import oracles
from conftest import RawOs, fail_on_call, utc, write_parsed
from oracles import format_instant_strftime

# fixed offsets strictly inside a day, down to the microsecond
OFFSETS = st.timedeltas(min_value=timedelta(hours=-24) + timedelta(microseconds=1),
                        max_value=timedelta(hours=24) - timedelta(microseconds=1)).map(timezone)


class _FoldZone(tzinfo):
    """UTC+1 until the clocks go back, then UTC: a wall time repeats, told apart by fold."""

    def utcoffset(self, dt):
        return timedelta(hours=0 if dt.fold else 1)

    def dst(self, dt):
        return None


def tweet(**overrides):
    base = dict(
        tweet_id="1",
        timestamp=utc(2013, 7, 22, 12, 0, 0),
        lat=51.5,
        lon=-0.1,
        country="england",
        county="london",
        text="hello world",
    )
    base.update(overrides)
    return ParsedTweet(**base)


def score_row(**overrides):
    base = dict(
        approach="Dictionary",
        level="County",
        region="london",
        parent="england",
        bucket_start=utc(2013, 7, 22),
        bucket_end=utc(2013, 7, 23),
        pos_count=6,
        neg_count=3,
        tweet_count=4,
        pss=2.0,
        npss=0.5,
    )
    base.update(overrides)
    return ScoreRow(**base)


class TestInstants:
    def test_round_trip(self):
        stamp = utc(2013, 7, 22, 16, 24, 5)
        assert parse_instant(format_instant(stamp)) == stamp

    def test_format_is_utc_z(self):
        assert format_instant(utc(2013, 7, 22, 16, 24, 5)) == "2013-07-22T16:24:05Z"

    def test_non_utc_input_is_converted(self):
        from datetime import timedelta, timezone as tz
        plus_two = datetime(2013, 7, 22, 18, 0, 0, tzinfo=tz(timedelta(hours=2)))
        assert format_instant(plus_two) == "2013-07-22T16:00:00Z"

    def test_parse_accepts_offset_form(self):
        assert parse_instant("2013-07-22T18:00:00+02:00") == utc(2013, 7, 22, 16)

    def test_parse_reads_a_naive_value_as_utc(self):
        stamp = parse_instant("2013-07-22T18:00:00")
        assert stamp == utc(2013, 7, 22, 18)
        assert stamp.tzinfo is timezone.utc

    @settings(max_examples=400, deadline=None)
    @given(ts=st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999),
                           timezones=st.one_of(st.just(timezone.utc), OFFSETS)))
    @example(ts=utc(999, 12, 31, 23, 59, 59, 999999))
    @example(ts=utc(1, 1, 1))
    @example(ts=utc(1000, 1, 1))
    @example(ts=datetime(1000, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))))
    @example(ts=datetime(9999, 12, 31, 23, 0, tzinfo=timezone(timedelta(hours=-2))))
    def test_format_matches_strftime(self, ts):
        # years before 1000 included: strftime writes them without leading zeros
        try:
            want = format_instant_strftime(ts)
        except OverflowError:  # no such instant in UTC
            with pytest.raises(OverflowError):
                format_instant(ts)
            return
        assert format_instant(ts) == want


class TestOpenRaw:
    def test_bytes_stored_verbatim(self, tmp_path):
        path = tmp_path / "t1.jsonl"
        blob = '{"text":"café ❤"}\n'.encode("utf-8")
        collect(io.BytesIO(blob), path)
        assert path.read_bytes() == blob

    def test_append_only(self, tmp_path, monkeypatch):
        path = tmp_path / "t1.jsonl"

        def write_at_the_start(fd, data):
            os.lseek(fd, 0, os.SEEK_SET)  # an append descriptor writes at the end wherever it stands
            return os.write(fd, data)

        monkeypatch.setattr(store, "os", RawOs(path, write_at_the_start))
        for payload in (b"one\n", b"two\n"):
            collect(io.BytesIO(payload), path)
        assert path.read_bytes() == b"one\ntwo\n"

    def test_torn_tail_is_terminated_before_appending(self, tmp_path):
        path = tmp_path / "t1.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2')
        collect(io.BytesIO(b'{"c":3}\n'), path)
        assert path.read_bytes() == b'{"a":1}\n{"b":2\n{"c":3}\n'

    def test_collect_never_counts_the_table(self, tmp_path):
        path = tmp_path / "t1.jsonl"
        path.write_bytes(b"old\n" * 1000)
        stats, fragment = collect(io.BytesIO(b"new\ntorn"), path)
        assert (stats.lines_read, fragment) == (1, b"torn")
        assert path.read_bytes() == b"old\n" * 1000 + b"new\n"

    def test_short_writes_store_every_byte_in_order(self, tmp_path, monkeypatch):
        path = tmp_path / "t1.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2')
        rationed = RawOs(path, lambda fd, data: os.write(fd, data[:3]))  # T1's writes alone
        monkeypatch.setattr(store, "os", rationed)
        lines = b"".join(b'{"c":%d}\r\n' % n for n in range(40)) + b"\xff\n"
        stats, fragment = collect(io.BytesIO(lines + b"tail"), path)
        assert (stats.lines_read, fragment) == (41, b"tail")
        assert path.read_bytes() == b'{"a":1}\n{"b":2\n' + lines
        # one T1 opened; the torn tail's LF in one write, then the lines 3 bytes at a time
        assert (rationed.count("open"), rationed.count("write")) == (1, 1 + -(-len(lines) // 3))

    @pytest.mark.parametrize("returned", [0])
    def test_write_that_takes_nothing_raises(self, tmp_path, monkeypatch, returned):
        path = tmp_path / "t1.jsonl"

        def takes_nothing(fd, data):
            if starved.count("write") > 1000:
                raise AssertionError("the writer keeps retrying a write that takes nothing")
            return returned

        starved = RawOs(path, takes_nothing)
        monkeypatch.setattr(store, "os", starved)
        with pytest.raises(OSError, match=f"^{re.escape(str(path))}: write returned {returned} "
                                          "with 4 bytes left$"):
            collect(io.BytesIO(b"one\n"), path)
        assert (starved.count("write"), starved.count("close")) == (1, 1)
        assert path.read_bytes() == b""


class TestParsedTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t2.tsv"
        rows = [tweet(), tweet(tweet_id="2", text="second")]
        write_parsed(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [_parse_parsed_line(line) for line in lines] == rows

    def test_naive_timestamp_rejected(self):
        bad = tweet(timestamp=datetime(2013, 7, 22, 12, 0, 0))
        with pytest.raises(ValueError):
            bad.validate()

    def test_tab_in_text_rejected(self):
        with pytest.raises(ValueError):
            tweet(text="a\tb").validate()

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            tweet(lat=90.5).validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(tweet_id=""), "empty tweet_id"),
        (dict(timestamp=utc(2013, 7, 22, 12, 0, 0, 500)), "tweet 1: sub-second timestamp"),
        (dict(lon=-180.5), "tweet 1: longitude -180.5 out of range"),
        (dict(county=""), "tweet 1: empty county"),
    ], ids=["empty-id", "sub-second", "longitude", "empty-county"])
    def test_bad_field_named(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tweet(**overrides).validate()


def _len_unless_marked(block):
    if b"die\n" in block:
        os._exit(9)  # as an OOM kill would end the worker, with no exception to send back
    return len(block)


class TestMapBlocks:
    BYTES = b"one\ntwo\r\n\nfour\rstill four\n\xff bad\nlast, unterminated"
    # every line keeps its LF, so the line cut short is the one without
    LINES = [b"one\n", b"two\r\n", b"\n", b"four\rstill four\n", b"\xff bad\n", b"last, unterminated"]

    def test_lines_split_on_lf_only_in_file_order(self, tmp_path):
        path = tmp_path / "table"
        path.write_bytes(self.BYTES)
        # the fourth line takes the first block from 10 bytes past 20
        with mock.patch.object(store, "BLOCK_BYTES", 20):
            blocks = list(map_blocks(list, path, threads=1))
        assert blocks == [self.LINES[:4], self.LINES[4:]]

    @pytest.mark.parametrize("size", [1, 5, 100])
    def test_pool_gives_the_same_blocks(self, tmp_path, size):
        path = tmp_path / "table"
        path.write_bytes(self.BYTES)
        with mock.patch.object(store, "BLOCK_BYTES", size):
            one = list(map_blocks(list, path, threads=1))
            two = list(map_blocks(list, path, threads=2))
        assert one == two
        assert [line for block in two for line in block] == self.LINES

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pool_blocks_are_sized_from_the_table(self, tmp_path, threads):
        path = tmp_path / "table"
        path.write_bytes(b"".join(b"%09d\n" % i for i in range(1200)))
        with mock.patch.object(store, "POOL_BLOCK_MIN_BYTES", 1):
            sizes = list(map_blocks(len, path, threads=threads))
            # 10-byte lines: the 70th takes a block past 699 bytes
            with mock.patch.object(store, "BLOCK_BYTES", 699):
                capped = list(map_blocks(len, path, threads=threads))
        # about POOL_BLOCKS_PER_WORKER blocks per worker, and never over the byte cap
        assert sum(sizes) == sum(capped) == 1200
        assert len(sizes) == threads * store.POOL_BLOCKS_PER_WORKER
        assert max(capped) == 70

    def test_empty_table_yields_nothing(self, tmp_path):
        path = tmp_path / "table"
        path.write_bytes(b"")
        assert list(map_blocks(list, path, threads=1)) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_block_closes_at_the_line_that_passes_the_cap(self, tmp_path, threads):
        path = tmp_path / "table"

        # CR, CRLF, empty lines, no final LF, and lines longer than any cap drawn
        @settings(max_examples=150 if threads == 1 else 25, deadline=None)
        @given(data=st.lists(st.sampled_from([b"a", b"\n", b"\r", b"\r\n", b"x" * 150, b"\xff"]),
                             max_size=40).map(b"".join),
               cap=st.integers(1, 300))
        def check(data, cap):
            path.write_bytes(data)
            with mock.patch.object(store, "BLOCK_BYTES", cap), \
                    mock.patch.object(store, "POOL_BLOCK_MIN_BYTES", 1):
                blocks = list(map_blocks(list, path, threads=threads))
            *whole, last = data.split(b"\n")
            assert [line for block in blocks for line in block] == \
                [line + b"\n" for line in whole] + ([last] if last else [])
            if threads > 1:
                cap = min(cap, len(data) // (threads * store.POOL_BLOCKS_PER_WORKER) + 1)
            sizes = [[len(line) for line in block] for block in blocks]
            assert all(sum(block[:-1]) <= cap for block in sizes)
            assert all(sum(block) > cap for block in sizes[:-1])

        check()

    def test_one_worker_blocks_are_capped_by_bytes(self, tmp_path):
        path = tmp_path / "table"
        line = b"x" * 2047 + b"\n"
        path.write_bytes(line * 3000)
        sizes = list(map_blocks(lambda block: sum(map(len, block)), path, threads=1))
        assert sum(sizes) == 3000 * len(line)
        assert len(sizes) == 2 and max(sizes) <= store.BLOCK_BYTES + len(line)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_keep_newlines_shows_the_line_cut_short(self, tmp_path, threads):
        path = tmp_path / "table"
        path.write_bytes(self.BYTES)
        with mock.patch.object(store, "BLOCK_BYTES", 20):
            blocks = list(map_blocks(list, path, threads=threads))
        assert [line for block in blocks for line in block] == self.LINES

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_dead_worker_raises_naming_the_table(self, tmp_path, method):
        path = tmp_path / "table"
        path.write_bytes(b"one\ntwo\ndie\nfour\n")
        started = time.monotonic()
        with mock.patch.object(store, "BLOCK_BYTES", 1), \
                mock.patch.object(multiprocessing, "get_context",
                                  return_value=multiprocessing.get_context(method)):
            assert list(map_blocks(len, path, threads=2)) == [1, 1, 1, 1]
            with pytest.raises(StoreError, match=re.escape(f"{path}: a worker process died")):
                list(map_blocks(_len_unless_marked, path, threads=2))
        assert time.monotonic() - started < 20


class TestScoreTable:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "t3.csv"
        rows = [
            score_row(),
            score_row(region="kent", pos_count=1, neg_count=3, tweet_count=2,
                      pss=1 / 3, npss=(1 / 3) / 2.0),
        ]
        write_scores(path, rows)
        back = read_scores(path)
        assert back == rows
        # full precision survives the text form
        assert back[1].pss == 1 / 3

    def test_na_markers(self, tmp_path):
        path = tmp_path / "t3.csv"
        rows = [score_row(pos_count=0, neg_count=0, tweet_count=1, pss=None, npss=None)]
        write_scores(path, rows)
        text = path.read_text()
        assert ",NA,NA" in text
        assert read_scores(path)[0].pss is None

    def test_header_written_once(self, tmp_path):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        write_scores(path, [score_row(region="kent")], append=True)
        text = path.read_text()
        assert text.count("approach,level,region") == 1
        assert len(read_scores(path)) == 2

    @pytest.mark.parametrize("existing", [None, b""], ids=["missing", "empty"])
    def test_append_to_a_missing_or_empty_table_writes_the_header(self, tmp_path, existing):
        path = tmp_path / "t3.csv"
        if existing is not None:
            path.write_bytes(existing)
        write_scores(path, [score_row()], append=True)
        assert path.read_text().startswith("approach,level,region")
        assert [row.region for row in read_scores(path)] == [score_row().region]

    def test_append_is_the_old_bytes_then_the_new_rows(self, tmp_path):
        path, fresh = tmp_path / "t3.csv", tmp_path / "fresh.csv"
        write_scores(path, [score_row(), score_row(region="kent")])
        old = path.read_bytes()
        new = [score_row(region="fife"), score_row(region="mull", pos_count=0, neg_count=0,
                                                   tweet_count=3, pss=None, npss=None)]
        assert write_scores(path, new, append=True) == 2
        write_scores(fresh, new)
        _, rows = fresh.read_bytes().split(b"\n", 1)
        assert path.read_bytes() == old + rows
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "t3.csv"]

    def test_append_keeps_the_tables_permission_bits(self, tmp_path):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        path.chmod(0o640)
        write_scores(path, [score_row(region="kent")], append=True)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_failed_append_keeps_the_old_table(self, tmp_path, monkeypatch):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        old = path.read_bytes()
        # the second new row's pss fails after the first new row is out
        monkeypatch.setattr(store, "_format_score", fail_on_call(store._format_score, 3))
        with pytest.raises(OSError):
            write_scores(path, [score_row(region="kent"), score_row(region="fife")], append=True)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t3.csv"]

    @pytest.mark.parametrize("existing", [b"who,what\n1,2\n", b"\n", b"approach,level\n"])
    def test_append_to_a_table_without_the_header_writes_nothing(self, tmp_path, monkeypatch,
                                                                  existing):
        path = tmp_path / "t3.csv"
        path.write_bytes(existing)
        monkeypatch.setattr(store, "staged", fail_on_call(store.staged, 1))  # refused before staging
        with pytest.raises(StoreError, match=f"^cannot append to {re.escape(str(path))}: .* header"):
            write_scores(path, [score_row()], append=True)
        assert path.read_bytes() == existing
        assert [p.name for p in tmp_path.iterdir()] == ["t3.csv"]

    @pytest.mark.parametrize("cut", [1, 20])
    def test_append_to_a_torn_table_writes_nothing(self, tmp_path, cut):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row(), score_row(region="kent")])
        torn = path.read_bytes()[:-cut]
        path.write_bytes(torn)
        with pytest.raises(StoreError, match="last row was cut short"):
            write_scores(path, [score_row(region="fife")], append=True)
        assert path.read_bytes() == torn

    def test_each_distinct_instant_formatted_once(self, tmp_path):
        # equal instants in distinct objects, as rows of separate jobs carry them
        rows = [score_row(region=f"r{i}", bucket_start=utc(2013, 7, 22 + i % 2),
                          bucket_end=utc(2013, 7, 23 + i % 2)) for i in range(50)]
        path = tmp_path / "scores.csv"
        with mock.patch.object(store, "format_instant", wraps=format_instant) as fmt:
            write_scores(path, rows)
        assert fmt.call_count == 3
        assert [r.bucket_start for r in read_scores(path)] == [r.bucket_start for r in rows]

    def test_equal_wall_times_that_differ_in_fold_keep_their_instants(self, tmp_path):
        first = datetime(2013, 10, 27, 1, 30, tzinfo=_FoldZone())
        again = first.replace(fold=1)
        assert first == again  # one tzinfo: compared by wall time
        rows = [score_row(bucket_start=first, bucket_end=first + timedelta(hours=1)),
                score_row(bucket_start=again, bucket_end=again + timedelta(hours=2))]
        path = tmp_path / "scores.csv"
        write_scores(path, rows)
        assert [format_instant(r.bucket_start) for r in read_scores(path)] == [
            "2013-10-27T00:30:00Z", "2013-10-27T01:30:00Z"]

    def test_batch_validation_writes_nothing(self, tmp_path):
        path = tmp_path / "t3.csv"
        rows = [score_row(), score_row(region="kent", pss=9.9)]  # pss lies
        with pytest.raises(ScoreRowError) as err:
            write_scores(path, rows)
        assert err.value.indices == [1]
        assert not path.exists()

    def test_failed_write_keeps_the_old_table(self, tmp_path, monkeypatch):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        old = path.read_bytes()
        # the second row's pss fails after the header and first row are out
        monkeypatch.setattr(store, "_format_score", fail_on_call(store._format_score, 3))
        with pytest.raises(OSError):
            write_scores(path, [score_row(region="kent"), score_row(region="fife")])
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t3.csv"]

    @pytest.mark.parametrize("start", [utc(999, 12, 31, 22),
                                       datetime(1000, 1, 1, tzinfo=timezone(timedelta(hours=2)))],
                             ids=["utc", "local-year-1000"])
    def test_bucket_before_the_year_1000_writes_nothing(self, tmp_path, start):
        # format_instant would write 999-12-31T22:00:00Z, which read_scores cannot take back
        path = tmp_path / "t3.csv"
        with pytest.raises(ScoreRowError, match="row 1: bucket_start before 1000-01-01T00:00:00Z") as err:
            write_scores(path, [score_row(), score_row(bucket_start=start,
                                                       bucket_end=start + timedelta(hours=1))])
        assert err.value.indices == [1]
        assert not path.exists()
        write_scores(path, [score_row(bucket_start=utc(1000, 1, 1), bucket_end=utc(1000, 1, 2))])
        assert read_scores(path)[0].bucket_start == utc(1000, 1, 1)

    @pytest.mark.parametrize("field", ["region", "parent"])
    def test_lone_cr_writes_nothing(self, tmp_path, field):
        # the csv writer leaves a lone CR unquoted, and the reader splits the row there
        path = tmp_path / "t3.csv"
        with pytest.raises(ScoreRowError, match="row 1: raw CR in region or parent") as err:
            write_scores(path, [score_row(), score_row(**{field: "a\rb"})])
        assert err.value.indices == [1]
        assert not path.exists()

    @pytest.mark.parametrize("field", ["region", "parent"])
    def test_lone_surrogate_writes_nothing(self, tmp_path, field):
        # the library API can pass a region name that no UTF-8 table can hold
        path = tmp_path / "t3.csv"
        path.write_bytes(b"old")
        with pytest.raises(ScoreRowError, match="row 1: region or parent is not valid UTF-8") as err:
            write_scores(path, [score_row(), score_row(**{field: "bad\ud83d"})])
        assert err.value.indices == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t3.csv"]
        assert path.read_bytes() == b"old"

    def test_read_names_a_header_field_over_the_csv_limit(self, tmp_path):
        # a row's over-long field is checked through the CLI, in tests/test_cli.py
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        path.write_bytes(b"x" * 200_000 + path.read_bytes())
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: line 1: field larger"):
            read_scores(path)

    @pytest.mark.parametrize("overrides, message", [
        (dict(approach="Lexicon"), "unknown approach 'Lexicon'"),
        (dict(level="Parish"), "unknown level 'Parish'"),
        (dict(region=""), "empty region"),
        (dict(bucket_end=utc(2013, 7, 22)), "bucket_start must precede bucket_end"),
        (dict(tweet_count=-1), "negative count"),
        (dict(pss=None), "npss defined while pss is undefined"),
    ], ids=["approach", "level", "empty-region", "empty-bucket", "negative-count", "npss-alone"])
    def test_bad_row_writes_nothing(self, tmp_path, overrides, message):
        path = tmp_path / "t3.csv"
        path.write_bytes(b"old")
        with pytest.raises(ScoreRowError,
                           match=f"^rejected score rows: row 1: {re.escape(message)}$") as err:
            write_scores(path, [score_row(), score_row(**overrides)])
        assert err.value.indices == [1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t3.csv"]
        assert path.read_bytes() == b"old"

    def test_inconsistent_pss_detected(self):
        row = score_row(pss=2.5)
        assert row.problem() is not None

    def test_npss_range_checked(self):
        assert score_row(npss=1.5).problem() is not None

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "t3.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(StoreError):
            read_scores(path)

    @pytest.mark.parametrize("old, new, message", [
        (",6,3,4,", ",x1,3,4,", "invalid literal for int"),
        ("2013-07-22T00:00:00Z", "2013-13-22T00:00:00Z", "month must be in 1..12"),
        (",2.0,0.5", ",2.0", "scores row has 10 fields"),
        (",2.0,0.5", ",nan,0.5", "pss nan does not equal"),
        (",2.0,0.5", ",2.0,1.5", "npss 1.5 outside"),
        ("2013-07-22T00:00:00Z", "9999-12-31T23:30:00-01:00", "'9999-12-31T23:30:00-01:00' has no UTC"),
    ], ids=["bad-int", "bad-instant", "short-row", "nan-pss", "npss-above-1", "past-utc-range"])
    def test_read_names_the_bad_line(self, tmp_path, old, new, message):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row(), score_row(region="kent"), score_row(region="fife")])
        header, first, second, third = path.read_text().splitlines(keepends=True)
        path.write_text(header + first + second.replace(old, new, 1) + third)
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: line 3: {message}"):
            read_scores(path)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_read_names_a_row_cut_short(self, tmp_path, row):
        # every cut, including those that leave a readable row ("0.25" -> "0.2")
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row(npss=0.25), score_row(region="kent"), score_row(region="fife")])
        lines = path.read_bytes().splitlines(keepends=True)
        kept, cut_row = b"".join(lines[:row + 1]), lines[row + 1]
        for cut in range(1, len(cut_row)):
            path.write_bytes(kept + cut_row[:cut])
            with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: line {row + 2}: "):
                read_scores(path)


# CR (which write_scores refuses), quoted LF, the line breaks that str.splitlines
# adds, and the csv quote and separator
_REGION_CHARS = ["a", "\u00e9", " ", ",", '"', "\r", "\n", "\r\n", "\u2028", "\u0085", "\x1c"]
_REGIONS = st.lists(st.sampled_from(_REGION_CHARS), min_size=1, max_size=5).map("".join)


@st.composite
def _score_rows(draw):
    pos, neg = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pss = draw(st.sampled_from([None, pos / max(neg, 1)]))
    start = utc(2013, 7, 22) + timedelta(hours=draw(st.integers(0, 3)))
    return score_row(region=draw(_REGIONS), parent=draw(_REGIONS | st.just("")),
                     bucket_start=start, bucket_end=start + timedelta(hours=1),
                     pos_count=pos, neg_count=neg, tweet_count=pos + neg,
                     pss=pss, npss=None if pss is None else draw(st.sampled_from([0.0, 0.5, 1.0])))


def _line_named(error, path):
    """The line a score-table error names; a header error names line 1 or none."""
    message = str(error).replace(str(path), "")
    found = re.search(r"\bline (\d+): ", message)
    if found:
        return int(found.group(1))
    assert "unexpected scores header" in message, message
    return 1


class TestScoreReader:
    """read_scores against the three-pass reader it replaced, with blocks that split rows."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader") / "t3.csv"

    @staticmethod
    def table(path, rows) -> bytes:
        write_scores(path, rows)
        return path.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_score_rows(), min_size=1, max_size=6),
           fault=st.sampled_from([None, "utf8", "torn", "header", "empty-header", "empty", "row"]),
           where=st.integers(0, 10**6), block=st.integers(1, 64), data=st.data())
    def test_matches_the_three_pass_reader(self, path, rows, fault, where, block, data):
        if any("\r" in row.region + row.parent for row in rows):
            path.write_bytes(b"old")
            with pytest.raises(ScoreRowError):
                write_scores(path, rows)
            assert path.read_bytes() == b"old"
            return
        whole = self.table(path, rows)
        before = self.table(path, rows[:-1])  # the header and every row but the last
        header, last = whole[:whole.index(b"\n") + 1], whole[len(before):].decode("utf-8")
        if fault == "utf8":  # any byte but the final LF
            at = where % (len(whole) - 1)
            whole = whole[:at] + b"\xff" + whole[at:]
        elif fault == "torn":  # the last row cut at a character, never at its end
            whole = before + last[:1 + where % (len(last) - 1)].encode("utf-8")
        elif fault in ("header", "empty-header"):
            wrong = data.draw(st.sampled_from(["who,what\n", "approach,level\n", "approach\n"]))
            whole = (wrong if fault == "header" else "\n").encode() + whole[len(header):]
        elif fault == "empty":
            whole = b""
        elif fault == "row":  # the last row keeps its LF; nan fails the row check, x the float
            tail = data.draw(st.sampled_from([",nan,NA\n", ",x,NA\n", "\n"]))
            whole = before + (last.rsplit(",", 2)[0] + tail).encode("utf-8")
        path.write_bytes(whole)
        with mock.patch.object(store, "BLOCK_BYTES", block):
            if fault is None:
                assert read_scores(path) == oracles.read_scores_three_pass(path) == rows
                return
            with pytest.raises(StoreError) as got:
                read_scores(path)
        with pytest.raises(StoreError) as want:
            oracles.read_scores_three_pass(path)
        assert str(got.value).startswith(f"{path}: line ")
        assert _line_named(got.value, path) == _line_named(want.value, path)

    def test_read_opens_the_table_once(self, tmp_path):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row(), score_row(region="kent")])
        with mock.patch("builtins.open", wraps=open) as opened:
            assert len(read_scores(path)) == 2
        assert [call.args[0] for call in opened.call_args_list] == [path]

    def test_append_opens_the_old_table_once(self, tmp_path):
        path = tmp_path / "t3.csv"
        write_scores(path, [score_row()])
        with mock.patch("builtins.open", wraps=open) as opened:
            write_scores(path, [score_row(region="kent")], append=True)
        assert [call.args[0] for call in opened.call_args_list].count(path) == 1
        assert len(read_scores(path)) == 2


def test_collector_stats_merge_adds_every_field():
    # a distinct value per field, so a field dropped or crossed shows
    n = len(dataclasses.fields(CollectorStats))
    stats = CollectorStats(*range(1, n + 1))
    stats.merge(CollectorStats(*range(10, 10 * n + 1, 10)))
    assert dataclasses.astuple(stats) == tuple(range(11, 11 * n + 1, 11))


def test_score_row_pss_tolerance_is_relative():
    # the stored value differs in the last ulp, which must still be accepted
    row = score_row(pos_count=1, neg_count=3, tweet_count=1,
                    pss=float.fromhex("0x1.5555555555555p-2"), npss=None)
    assert math.isclose(row.pss, 1 / 3)
    assert row.problem() is None


# every line end that open() translates or keeps: LF, CR, CRLF, and what str.splitlines adds;
# and the byte-order mark, which utf-8-sig drops only at the start
_TEXTS = st.lists(st.sampled_from(["a", "\u00e9", "\t", "\n", "\r", "\r\n", "\u2028", "\u0085", "\x1c",
                                  "\ufeff"]),
                  max_size=30).map("".join)


class TestReadText:
    """store._read_text against a text-mode read of the same file."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("text") / "input.txt"

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXTS)
    def test_matches_a_text_mode_read(self, path, text):
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            assert store._read_text(path, "sample", StoreError) == fh.read()

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXTS, bad=st.sampled_from([b"\x80", b"\xbf", b"\xc0", b"\xff"]), data=st.data())
    def test_names_the_line_of_a_bad_byte(self, path, text, bad, data):
        cut = data.draw(st.integers(0, len(text)))
        head, tail = text[:cut].encode("utf-8"), text[cut:].encode("utf-8")
        path.write_bytes(head)
        with open(path, encoding="utf-8") as fh:
            line = fh.read().count("\n") + 1  # 1 plus the line ends before the bad byte
        path.write_bytes(head + bad + tail)
        with pytest.raises(StoreError, match=f"^sample file {re.escape(str(path))} is not UTF-8 "
                                             f"text: line {line}: "):
            store._read_text(path, "sample", StoreError)

    def test_names_a_file_it_cannot_read(self, tmp_path):
        path = tmp_path / "missing.txt"
        with pytest.raises(StoreError, match=f"^cannot read sample file {re.escape(str(path))}: "):
            store._read_text(path, "sample", StoreError)
