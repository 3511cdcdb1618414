import json
import logging
import math
import multiprocessing
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geosent import bundled, estimator, ingest, store
from geosent.classifier import LabeledTweet, ModelAnalyser, train
from geosent.estimator import (
    NORM_SCOPES,
    AggregationSpec,
    CorrelationError,
    EstimatorError,
    ScoreSeries,
    aggregate,
    aggregate_many,
    compute_pss,
    correlate,
    series_from_rows,
)
from geosent.georesolve import load_regions
from geosent.ingest import parse_and_aggregate, parse_corpus, parse_record
from geosent.lexicon import DictionaryAnalyser, Lexicon
from geosent.store import LEVELS, format_parsed_line, ParsedTweet

from conftest import fail_on_call, utc, write_parsed
from oracles import aggregate_per_pass, bucket_of, normalize, parse_raw_table, pearson_decimal

LEX = Lexicon(
    exact={"good": 2, "fine": 1, "bad": -2, "grim": -1},
    wildcards=[],
)


def analyser():
    return DictionaryAnalyser(LEX)


def parsed(tmp_path, rows):
    path = tmp_path / "t2.tsv"
    write_parsed(path, [
        ParsedTweet(
            tweet_id=str(i),
            timestamp=ts,
            lat=1.0,
            lon=1.0,
            country=country,
            county=county,
            text=text,
        )
        for i, (ts, country, county, text) in enumerate(rows)
    ])
    return path


WINDOW = (utc(2013, 7, 22), utc(2013, 7, 23))


def spec(level="County", bucket=3600, scope="level"):
    return AggregationSpec(
        level=level, window=WINDOW, bucket_seconds=bucket, norm_scope=scope,
    )


class TestPss:
    def test_ratio(self):
        assert compute_pss(6, 3) == 2.0

    def test_zero_negative_floor(self):
        assert compute_pss(5, 0) == 5.0

    def test_zero_positive(self):
        assert compute_pss(0, 4) == 0.0

    def test_no_signal_undefined(self):
        assert compute_pss(0, 0) is None


class TestNormalize:
    def test_scales_by_max(self):
        got = normalize([("a", 2.0), ("b", 8.0), ("c", 4.0)])
        assert got == [("a", 0.25), ("b", 1.0), ("c", 0.5)]

    def test_empty_group_rejected(self):
        with pytest.raises(EstimatorError):
            normalize([])

    def test_undefined_member_rejected(self):
        with pytest.raises(EstimatorError):
            normalize([("a", 1.0), ("b", None)])

    def test_all_zero_rejected(self):
        with pytest.raises(EstimatorError):
            normalize([("a", 0.0), ("b", 0.0)])


class TestSpecValidation:
    def test_bad_level(self):
        with pytest.raises(EstimatorError):
            AggregationSpec("Province", WINDOW, 3600).validate()

    def test_backwards_window(self):
        with pytest.raises(EstimatorError):
            AggregationSpec("County", (WINDOW[1], WINDOW[0]), 3600).validate()

    def test_bad_bucket(self):
        with pytest.raises(EstimatorError):
            AggregationSpec("County", WINDOW, 0).validate()

    def test_bad_scope(self):
        with pytest.raises(EstimatorError):
            AggregationSpec("County", WINDOW, 3600, norm_scope="global").validate()

    @pytest.mark.parametrize("naive_end", [False, True])
    def test_naive_window_rejected_before_the_scan(self, tmp_path, naive_end):
        start, end = WINDOW
        if naive_end:
            end = end.replace(tzinfo=None)
        else:
            start = start.replace(tzinfo=None)
        missing = tmp_path / "never-opened.tsv"
        with pytest.raises(EstimatorError, match="timezone-aware"):
            aggregate(AggregationSpec("County", (start, end), 3600), missing, analyser())

    @pytest.mark.parametrize("start", [utc(999, 12, 31, 23, 59, 59), utc(1, 1, 1),
                                       datetime(1000, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1)))])
    def test_window_before_the_year_1000_rejected_before_the_scan(self, tmp_path, start):
        # the score table would write the year without its leading zero, and no reader takes it back
        missing = tmp_path / "never-opened.tsv"
        with pytest.raises(EstimatorError, match="before 1000-01-01"):
            aggregate(AggregationSpec("County", (start, WINDOW[1]), 3600), missing, analyser())
        AggregationSpec("County", (utc(1000, 1, 1), WINDOW[1]), 3600).validate()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_thread_count_rejected_before_the_scan(self, tmp_path, threads):
        with pytest.raises(EstimatorError):
            aggregate(spec(), tmp_path / "never-opened.tsv", analyser(), threads=threads)


class TestAggregate:
    def test_buckets_and_normalisation(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10, 5), "volcania", "ashmoor", "good good fine"),
            (utc(2013, 7, 22, 10, 55), "volcania", "ashmoor", "bad"),
            (utc(2013, 7, 22, 10, 30), "volcania", "basalt", "fine bad"),
            (utc(2013, 7, 22, 11, 10), "volcania", "basalt", "good"),
        ])
        rows = aggregate(spec(), path, analyser())
        assert [(r.region, r.bucket_start.hour) for r in rows] == [
            ("ashmoor", 10), ("basalt", 10), ("basalt", 11),
        ]
        ten_ash, ten_bas, eleven_bas = rows
        assert (ten_ash.pos_count, ten_ash.neg_count, ten_ash.tweet_count) == (3, 1, 2)
        assert ten_ash.pss == 3.0
        assert ten_ash.npss == 1.0
        assert ten_bas.pss == 1.0
        assert ten_bas.npss == pytest.approx(1 / 3)
        # eleven o'clock group has only one defined cell
        assert eleven_bas.npss == 1.0

    def test_window_is_half_open(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 21, 23, 59, 59), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 22, 0, 0, 0), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 23, 0, 0, 0), "volcania", "ashmoor", "good"),
        ])
        rows = aggregate(spec(bucket=86400), path, analyser())
        assert len(rows) == 1
        assert rows[0].tweet_count == 1

    def test_final_bucket_truncated(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 23, 30), "volcania", "ashmoor", "good"),
        ])
        odd = AggregationSpec("County", WINDOW, 7 * 3600)
        rows = aggregate(odd, path, analyser())
        assert rows[0].bucket_start == utc(2013, 7, 22, 21)
        assert rows[0].bucket_end == utc(2013, 7, 23)

    def test_final_bucket_at_the_end_of_datetimes_range(self, tmp_path):
        # the bucket's start plus its length is past year 9999: the bucket ends at the window's end
        path = parsed(tmp_path, [
            (utc(9999, 12, 30, 12), "volcania", "ashmoor", "good"),
        ])
        late = AggregationSpec("County", (utc(9999, 12, 30), utc(9999, 12, 31)), 1_000_000)
        rows = aggregate(late, path, analyser())
        assert [(r.bucket_start, r.bucket_end, r.pos_count) for r in rows] == [
            (utc(9999, 12, 30), utc(9999, 12, 31), 1)]

    def test_country_level_rolls_up(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 22, 10), "volcania", "basalt", "bad bad"),
            (utc(2013, 7, 22, 10), "dustland", "crater", "fine"),
        ])
        rows = aggregate(spec(level="Country", bucket=86400), path, analyser())
        assert [(r.region, r.pos_count, r.neg_count) for r in rows] == [
            ("dustland", 1, 0), ("volcania", 1, 2),
        ]
        assert rows[0].parent == ""

    def test_undefined_cell_stays_out_of_group(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 22, 10), "volcania", "basalt", "nothing to see"),
        ])
        rows = aggregate(spec(bucket=86400), path, analyser())
        by_region = {r.region: r for r in rows}
        assert by_region["basalt"].pss is None
        assert by_region["basalt"].npss is None
        assert by_region["basalt"].tweet_count == 1
        assert by_region["ashmoor"].npss == 1.0

    def test_all_zero_group_gets_na(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "bad"),
            (utc(2013, 7, 22, 10), "volcania", "basalt", "grim grim"),
        ])
        rows = aggregate(spec(bucket=86400), path, analyser())
        for row in rows:
            assert row.pss == 0.0
            assert row.npss is None

    def test_sibling_scope_narrows_the_group(self, tmp_path):
        rows_in = [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good good good good"),
            (utc(2013, 7, 22, 10), "volcania", "basalt", "good"),
            (utc(2013, 7, 22, 10), "dustland", "crater", "good good"),
        ]
        level_rows = aggregate(spec(bucket=86400), parsed(tmp_path, rows_in), analyser())
        by_region = {r.region: r for r in level_rows}
        assert by_region["crater"].npss == 0.5

        (tmp_path / "t2.tsv").unlink()
        sib_rows = aggregate(
            spec(bucket=86400, scope="siblings"), parsed(tmp_path, rows_in), analyser(),
        )
        by_region = {r.region: r for r in sib_rows}
        assert by_region["crater"].npss == 1.0  # alone under its parent
        assert by_region["basalt"].npss == 0.25

    def test_rows_sorted_and_validated(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 11), "volcania", "zeolite", "good"),
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 22, 10), "volcania", "basalt", "fine"),
        ])
        rows = aggregate(spec(), path, analyser())
        keys = [(r.bucket_start, r.region) for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.problem() is None

    def test_threads_do_not_change_results(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, h, m), "volcania", ("ashmoor", "basalt")[m % 2],
             ("good", "bad", "fine fine", "grim good")[h % 4])
            for h in range(24) for m in (0, 20, 40)
        ])
        one = aggregate(spec(), path, analyser(), threads=1)
        two = aggregate(spec(), path, analyser(), threads=2)
        assert one == two

    def test_malformed_parsed_line_skipped(self, tmp_path, caplog):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good"),
        ])
        with path.open("a") as handle:
            handle.write("garbage line\n")
        rows = aggregate(spec(bucket=86400), path, analyser())
        assert len(rows) == 1
        assert any("skipped" in r.message for r in caplog.records)

    def test_line_that_is_not_utf8_skipped(self, tmp_path, caplog):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good"),
            (utc(2013, 7, 22, 11), "volcania", "ashmoor", "caf\xe9"),
            (utc(2013, 7, 22, 12), "volcania", "ashmoor", "bad"),
        ])
        good, bad, good_again = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(good + bad.replace("caf\xe9".encode("utf-8"), b"caf\xe9") + good_again)
        [row] = aggregate(spec(bucket=86400), path, analyser())
        assert (row.pos_count, row.neg_count, row.tweet_count) == (1, 1, 2)
        assert any("skipped 1 " in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# the fused scan against the one-scan-per-spec oracle

ANALYSERS = (
    DictionaryAnalyser(LEX),
    # overlapping prefixes, so the pool workers get a prefix table through pickling
    DictionaryAnalyser(Lexicon(exact={"good": 1}, wildcards=[("bat", 2), ("ba", -3)]), hashtag_match=False),
    ModelAnalyser(train([
        LabeledTweet("good fine day", "Positive"),
        LabeledTweet("fine #sun good", "Positive"),
        LabeledTweet("bad grim day", "Negative"),
        LabeledTweet("grim rain", "Negative"),
    ])),
)

_VALID_ROWS = st.builds(
    lambda seconds, country, county, words: format_parsed_line(ParsedTweet(
        tweet_id="t", timestamp=WINDOW[0] + timedelta(seconds=seconds), lat=1.0, lon=2.0,
        country=country, county=county, text=" ".join(words),
    )),
    st.one_of(st.integers(-3 * 3600, 27 * 3600),
              st.sampled_from([-1, 0, 6 * 3600, 12 * 3600 - 1, 12 * 3600, 24 * 3600])),
    st.sampled_from(["volcania", "dustland"]),
    # county names repeat across countries, so sort ties depend on fold order
    st.sampled_from(["ashmoor", "basalt", "crater"]),
    st.lists(st.sampled_from(["good", "fine", "bad", "grim", "bath", "batch", "Bat", "#good", "#bad",
                              "@bad", "http://x.co/good", "day", "sun!", "don't"]),
             max_size=6),
)
_MALFORMED_ROWS = st.sampled_from([
    "",
    "garbage line",
    "1\tnot-a-time\t1.0\t2.0\tvolcania\tashmoor\tgood",
    "1\t2013-07-22T10:00:00Z\t99.0\t2.0\tvolcania\tashmoor\tgood",
    "1\t2013-07-22T10:00:00Z\t1.0\t2.0\tvolcania\tashmoor",
])
TABLES = st.lists(st.one_of(_VALID_ROWS, _VALID_ROWS, _MALFORMED_ROWS), max_size=40)
JOBS = st.lists(
    st.tuples(
        st.sampled_from(LEVELS),
        st.sampled_from([0, 6 * 3600]),
        st.sampled_from([12 * 3600, 24 * 3600]),
        st.sampled_from([600, 3600, 7 * 3600, 86400]),
        st.sampled_from(NORM_SCOPES),
        st.sampled_from(range(len(ANALYSERS))),
    ),
    min_size=1, max_size=6,
)


def _jobs(job_args):
    return [
        (AggregationSpec(level, (WINDOW[0] + timedelta(seconds=lo), WINDOW[0] + timedelta(seconds=hi)),
                         bucket, scope), ANALYSERS[k])
        for level, lo, hi, bucket, scope, k in job_args
    ]


def _check_against_oracle(lines, job_args, threads):
    jobs = _jobs(job_args)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t2.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        expected = [aggregate_per_pass(spec, path, analyser) for spec, analyser in jobs]
        # small blocks, so the fold merges many partial cell maps
        with mock.patch.object(store, "BLOCK_BYTES", 512):
            assert aggregate_many(jobs, path, threads=threads) == expected


class TestFusedScan:
    @settings(max_examples=150, deadline=None)
    @given(lines=TABLES, job_args=JOBS)
    def test_one_worker_matches_per_pass_oracle(self, lines, job_args):
        _check_against_oracle(lines, job_args, threads=1)

    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_two_workers_match_per_pass_oracle(self, method):
        @settings(max_examples=10, deadline=None)
        @given(lines=TABLES, job_args=JOBS)
        def check(lines, job_args):
            _check_against_oracle(lines, job_args, threads=2)

        with mock.patch.object(multiprocessing, "get_context",
                               return_value=multiprocessing.get_context(method)):
            check()

    def test_shared_analyser_scores_each_tweet_once(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good bad"),
            (utc(2013, 7, 22, 11), "volcania", "basalt", "fine"),
        ])
        shared = analyser()
        with mock.patch.object(shared, "counts", wraps=shared.counts) as counts, \
                mock.patch.object(estimator, "_scan_features", wraps=estimator._scan_features) as scan:
            aggregate_many([(spec(level, bucket), shared)
                            for level in LEVELS for bucket in (3600, 86400)], path)
        assert counts.call_count == 2
        assert scan.call_count == 2

    @settings(max_examples=80, deadline=None)
    @given(lines=st.lists(_VALID_ROWS, min_size=1, max_size=12), job_args=JOBS, data=st.data())
    def test_row_cut_short_is_one_skipped_row(self, lines, job_args, data):
        # a cut inside the text field leaves a row that parses: it must still not count
        n = data.draw(st.integers(0, len(lines) - 1), label="whole rows kept")
        row = lines[n].encode("utf-8")
        cut = data.draw(st.integers(1, len(row)), label="bytes kept of the next row")
        jobs = _jobs(job_args)
        with tempfile.TemporaryDirectory() as tmp:
            whole, torn = Path(tmp) / "whole.tsv", Path(tmp) / "torn.tsv"
            whole.write_bytes(b"".join(line.encode("utf-8") + b"\n" for line in lines[:n]))
            torn.write_bytes(whole.read_bytes() + row[:cut])
            want = aggregate_many(jobs, whole)
            with mock.patch.object(estimator.log, "warning") as warning:
                got = aggregate_many(jobs, torn)
        assert got == want
        warning.assert_called_once_with("aggregate: skipped %d malformed parsed rows", 1)


# ---------------------------------------------------------------------------
# the one pass over T1 against parsing it, then scoring the parsed table

REGIONS = load_regions(bundled.regions_path())
# (lon, lat): happycounty, sadcounty, the country outside both, off the map
_POINTS = st.sampled_from([[2.0, 2.0], [7.0, 2.0], [5.0, 5.0], [50.0, 50.0]])
_TEXTS = st.lists(st.sampled_from(["good", "fine", "bad", "grim", "bath", "Bat", "#good", "@bad",
                                   "http://x.co/good", "don't", "sun!", "caf\xe9", "tab\tgood",
                                   "new\nline", "cr\r\nbad"]), max_size=6).map(" ".join)
_INSTANTS = st.one_of(st.integers(-3 * 3600, 27 * 3600),
                      st.sampled_from([-1, 0, 6 * 3600, 6 * 3600 + 1, 12 * 3600 - 1, 12 * 3600, 24 * 3600])
                      ).map(lambda seconds: WINDOW[0] + timedelta(seconds=seconds))


def _classic(ts, hours):
    """Twitter's created_at for an instant, on a clock hours ahead of UTC."""
    wall = ts + timedelta(hours=hours)
    return f"{wall:%a %b %d %H:%M:%S} {'-' if hours < 0 else '+'}{abs(hours):02d}00 {wall.year}"


_CREATED = st.one_of(
    st.builds(_classic, _INSTANTS, st.integers(-12, 12)),
    # ISO with a fraction: the row keeps the whole second
    _INSTANTS.map(lambda ts: (ts + timedelta(microseconds=999_999)).isoformat()),
)
_RECORDS = st.builds(
    lambda n, created, point, text: json.dumps({
        "id_str": str(n), "created_at": created,
        "coordinates": {"type": "Point", "coordinates": point}, "text": text}).encode(),
    st.integers(0, 99), _CREATED, _POINTS, _TEXTS,
)


def _raw(**fields):
    record = {"id_str": "7", "created_at": "Mon Jul 22 10:00:00 +0000 2013",
              "coordinates": [2.0, 2.0], "text": "good"}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if v is not ...}).encode()


# every reject path: no geo, malformed, unresolved; a tab id is malformed
# wherever its point lands, as parse_record refuses it before resolving
REJECT_LINES = [
    _raw(coordinates=...), _raw(coordinates=None),
    b"{broken", b"", b"\xff\xfe", b'"just a string"', _raw(id_str=...), _raw(created_at="yesterday"),
    _raw(created_at="Mon Jul 22 10:00:00 +0000 0999"), _raw(created_at="0001-01-01T00:30:00+01:00"),
    _raw(coordinates=[True, False]), _raw(coordinates=[2.0, 95.0]), _raw(text=7),
    _raw(text="broken \ud83d emoji"), _raw(id_str="4\udc002"),
    _raw(id_str="tab\tid"), _raw(id_str="cr\rid"), _raw(id_str="tab\tid", coordinates=[50.0, 50.0]),
    _raw(coordinates=[50.0, 50.0]),
    _raw() + b"\r",  # a CRLF line end
]
_REJECTS = st.sampled_from(REJECT_LINES)
RAW_TABLES = st.tuples(st.lists(st.one_of(_RECORDS, _RECORDS, _REJECTS), max_size=30), st.booleans()).map(
    lambda t: b"".join(line + b"\n" for line in t[0])[:-1 if t[1] and t[0] else None])
ONE_PASS_JOBS = st.lists(
    st.tuples(
        st.sampled_from(LEVELS),
        st.sampled_from([0, 6 * 3600, 6 * 3600 + 0.5]),             # a start in mid-second
        st.sampled_from([12 * 3600, 12 * 3600 + 0.000_001, 24 * 3600]),
        st.sampled_from([600, 3600, 7 * 3600, 86400]),
        st.sampled_from(NORM_SCOPES),
        st.sampled_from(range(len(ANALYSERS))),
    ),
    min_size=1, max_size=6,
)


def _check_one_pass(data, job_args, threads):
    jobs = _jobs(job_args)
    want_t2, want_stats = parse_raw_table(data, REGIONS)
    with tempfile.TemporaryDirectory() as tmp:
        raw, want, one, zero = (Path(tmp) / name for name in ("t1.jsonl", "want.tsv", "one.tsv", "zero.tsv"))
        raw.write_bytes(data)
        want.write_bytes(want_t2)
        # small blocks, so cells and counts merge across many blocks
        with mock.patch.object(store, "BLOCK_BYTES", 512):
            want_rows = aggregate_many(jobs, want, threads=threads)
            got_stats, got_rows = parse_and_aggregate(raw, REGIONS, one, jobs, threads=threads)
            parse_stats = parse_corpus(raw, REGIONS, zero, threads=threads)
        assert one.read_bytes() == zero.read_bytes() == want_t2
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["one.tsv", "t1.jsonl", "want.tsv", "zero.tsv"]
    assert got_stats == parse_stats == want_stats
    assert got_rows == want_rows


class TestOnePass:
    @settings(max_examples=150, deadline=None)
    @given(data=RAW_TABLES, job_args=ONE_PASS_JOBS)
    def test_one_worker_matches_parse_then_score(self, data, job_args):
        _check_one_pass(data, job_args, threads=1)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("method", ["fork", "forkserver"])
    def test_pool_matches_parse_then_score(self, method, threads):
        @settings(max_examples=8, deadline=None)
        @given(data=RAW_TABLES, job_args=ONE_PASS_JOBS)
        def check(data, job_args):
            _check_one_pass(data, job_args, threads=threads)

        with mock.patch.object(multiprocessing, "get_context",
                               return_value=multiprocessing.get_context(method)):
            check()

    @settings(max_examples=300, deadline=None)
    @given(line=st.one_of(_RECORDS, _REJECTS, _RECORDS.map(lambda line: line + b"\r")))
    def test_a_line_may_keep_its_lf(self, line):
        assert parse_record(line + b"\n") == parse_record(line)

    def test_every_reject_path_is_taken(self):
        stats = ingest.CollectorStats()
        rows = list(ingest._parsed_rows(REGIONS, REJECT_LINES, stats))
        assert (stats.rejected_no_geo, stats.rejected_unresolved, len(rows)) == (2, 1, 1)
        assert stats.rejected_malformed == stats.lines_read - 4

    def test_bad_settings_rejected_before_the_parsed_table_is_touched(self, tmp_path):
        parsed = tmp_path / "t2.tsv"
        parsed.write_bytes(b"earlier\ttable\n")
        missing = tmp_path / "never-opened.jsonl"
        for jobs, threads in [([(spec(bucket=0), analyser())], 1), ([(spec(), analyser())], 0)]:
            with pytest.raises(EstimatorError):
                parse_and_aggregate(missing, REGIONS, parsed, jobs, threads=threads)
        assert parsed.read_bytes() == b"earlier\ttable\n"

    def test_failed_pass_keeps_the_old_table(self, tmp_path, monkeypatch):
        raw = tmp_path / "t1.jsonl"
        raw.write_bytes(b"".join(_raw(id_str=str(i)) + b"\n" for i in range(3)))
        parsed = tmp_path / "t2.tsv"
        parsed.write_bytes(b"earlier\ttable\n")
        # one line per block, so the first block is written before the second fails
        monkeypatch.setattr(store, "BLOCK_BYTES", 1)
        monkeypatch.setattr(estimator, "_scan_block", fail_on_call(estimator._scan_block, 2))
        with pytest.raises(OSError):
            parse_and_aggregate(raw, REGIONS, parsed, [(spec(), analyser())])
        assert parsed.read_bytes() == b"earlier\ttable\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.jsonl", "t2.tsv"]

    def test_progress_logged_as_parse_logs_it(self, tmp_path, caplog):
        raw = tmp_path / "t1.jsonl"
        raw.write_bytes(b"".join(_raw(id_str=str(i)) + b"\n" for i in range(12)))
        # the ids differ in length by a byte, so the seventh line of a block passes this cap
        cap = 7 * min(map(len, raw.read_bytes().splitlines(keepends=True))) - 1
        with mock.patch.object(store, "BLOCK_BYTES", cap), \
                mock.patch.object(estimator, "PROGRESS_LINES", 5), caplog.at_level(logging.INFO):
            stats, _ = parse_and_aggregate(raw, REGIONS, tmp_path / "t2.tsv", [(spec(), analyser())])
        assert stats.accepted == 12
        assert [r.getMessage() for r in caplog.records] == ["parse: 7 lines in", "parse: 12 lines in"]

    def test_scoring_logs_progress_as_parse_does(self, tmp_path, caplog):
        path = parsed(tmp_path, [(utc(2013, 7, 22, 10), "volcania", "ashmoor", "good")] * 12)
        # the ids differ in length by a byte, so the seventh line of a block passes this cap
        cap = 7 * min(map(len, path.read_bytes().splitlines(keepends=True))) - 1
        with mock.patch.object(store, "BLOCK_BYTES", cap), \
                mock.patch.object(estimator, "PROGRESS_LINES", 5), caplog.at_level(logging.INFO):
            [rows] = aggregate_many([(spec(), analyser())], path)
        assert rows[0].tweet_count == 12
        assert [r.getMessage() for r in caplog.records] == ["aggregate: 7 lines in",
                                                            "aggregate: 12 lines in"]

    def test_rows_reach_the_fold_in_batches_not_blocks(self, tmp_path):
        raw = tmp_path / "t1.jsonl"
        raw.write_bytes(b"".join(_raw(id_str=str(i)) + b"\n" for i in range(10)))
        produced = folded = 0
        ahead = []

        def producer(*args):
            nonlocal produced
            for row in real_producer(*args):
                produced += 1
                yield row

        def fold(analysers, plan, rows, cells, memos):
            nonlocal folded
            for row in rows:
                folded += 1
                ahead.append(produced - folded)
            real_fold(analysers, plan, rows, cells, memos)

        real_producer, real_fold = ingest._parsed_rows, estimator._fold_rows
        with mock.patch.object(ingest, "_parsed_rows", producer), \
                mock.patch.object(estimator, "_fold_rows", fold), \
                mock.patch.object(estimator, "ROWS_PER_BATCH", 3):
            stats, _ = parse_and_aggregate(raw, REGIONS, tmp_path / "t2.tsv", [(spec(), analyser())])
        # the block is one of 10 lines: rows are parsed at most 3 ahead of the fold
        assert folded == stats.accepted == 10
        assert max(ahead) == 2


# ---------------------------------------------------------------------------
# instants as integers: the fold's window test and bucket against the timedelta rule

_ZONES = st.one_of(st.just(timezone.utc), st.timedeltas(
    min_value=timedelta(hours=-23, minutes=-59), max_value=timedelta(hours=23, minutes=59)
).map(timezone))
_ANY_INSTANT = st.datetimes(min_value=datetime(1, 1, 1),
                            max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999), timezones=_ZONES)
# validate() refuses a window that starts before the year 1000
_WINDOW_END = st.datetimes(min_value=datetime(1000, 1, 2),
                           max_value=datetime(9999, 12, 31, 23, 59, 59, 999_999), timezones=_ZONES)


class TestInstantArithmetic:
    @settings(max_examples=500, deadline=None)
    @given(ts=_ANY_INSTANT, ends=st.tuples(_WINDOW_END, _WINDOW_END),
           bucket_seconds=st.one_of(st.integers(1, 86_400), st.integers(1, 10**12)))
    # past 2^33 s a microsecond below a whole second rounds up in total_seconds(): so must the fold
    @example(ts=utc(9999, 1, 1), ends=(utc(1000, 1, 1, 0, 0, 0, 1), utc(9999, 12, 31)), bucket_seconds=1)
    @example(ts=utc(2013, 7, 22, 6), ends=(utc(2013, 7, 22, 6, 0, 0, 1), utc(2013, 7, 23)), bucket_seconds=1)
    def test_fold_matches_the_timedelta_rule(self, ts, ends, bucket_seconds):
        start, end = sorted(ends)
        assume(start < end)
        jobs = [(AggregationSpec("Country", (start, end), bucket_seconds), analyser())]
        analysers, plan = estimator._plan(jobs, threads=1)
        row = ParsedTweet("1", ts, 1.0, 1.0, "volcania", "ashmoor", "good")
        cells: dict = {}
        estimator._fold_rows(analysers, plan, [row], [cells], [{}])
        if start <= ts < end:
            assert cells == {(bucket_of(ts, start, bucket_seconds), "volcania", ""): [1, 0, 1]}
        else:
            assert cells == {}


class TestSeries:
    def rows(self, tmp_path):
        path = parsed(tmp_path, [
            (utc(2013, 7, 22, 10), "volcania", "ashmoor", "good good"),
            (utc(2013, 7, 22, 11), "volcania", "ashmoor", "good bad"),
            (utc(2013, 7, 22, 12), "volcania", "ashmoor", "bad"),
        ])
        return aggregate(spec(), path, analyser())

    def test_series_built_sorted(self, tmp_path):
        series = series_from_rows(self.rows(tmp_path), "ashmoor", "Dictionary")
        assert series.region == "ashmoor"
        assert [p[1] for p in series.points] == [2.0, 1.0, 0.0]

    def test_missing_region_gives_empty_series(self, tmp_path):
        series = series_from_rows(self.rows(tmp_path), "nowhere", "Dictionary")
        assert series.points == []

    def test_duplicate_bucket_rejected(self):
        series = ScoreSeries("x", "Dictionary", [(utc(2013, 7, 22), 1.0), (utc(2013, 7, 22), 2.0)])
        with pytest.raises(EstimatorError):
            series.validate()


class TestCorrelate:
    def series(self, values, region="r", approach="Dictionary"):
        start = utc(2013, 7, 22)
        points = [(start + timedelta(hours=h), float(v)) for h, v in enumerate(values)]
        return ScoreSeries(region, approach, points)

    def test_identical_is_one(self):
        a = self.series([1, 2, 3, 4])
        assert correlate(a, self.series([1, 2, 3, 4])) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_is_minus_one(self):
        a = self.series([1, 2, 3])
        b = self.series([3, 2, 1])
        assert correlate(a, b) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value_against_oracle(self):
        a = self.series([1, 2, 3])
        b = self.series([1, 2, 4])
        got = correlate(a, b)
        assert got == pytest.approx(0.9820, abs=1e-4)
        assert got == pytest.approx(float(pearson_decimal([1, 2, 3], [1, 2, 4])), abs=1e-14)

    def test_symmetry(self):
        a = self.series([0.5, 2.25, 1.0, 9.0, 4.5])
        b = self.series([3.0, 1.5, 8.25, 2.0, 7.75])
        assert abs(correlate(a, b) - correlate(b, a)) < 1e-12

    def test_join_on_shared_buckets_only(self):
        a = ScoreSeries("r", "Dictionary", [
            (utc(2013, 7, 22, 1), 1.0),
            (utc(2013, 7, 22, 2), 2.0),
            (utc(2013, 7, 22, 3), 3.0),
        ])
        b = ScoreSeries("r", "MachineLearning", [
            (utc(2013, 7, 22, 2), 5.0),
            (utc(2013, 7, 22, 3), 6.0),
            (utc(2013, 7, 22, 9), 7.0),
        ])
        # two joined points, perfectly linear
        assert correlate(a, b) == pytest.approx(1.0)

    def test_too_few_points_rejected(self):
        a = self.series([1.0])
        with pytest.raises(CorrelationError):
            correlate(a, self.series([2.0]))

    def test_constant_side_rejected(self):
        a = self.series([1, 1, 1])
        with pytest.raises(CorrelationError):
            correlate(a, self.series([1, 2, 3]))

    def test_variance_underflow_rejected(self):
        # not constant, but the spread squares to 0.0
        a = self.series([0.0, 5e-324, 0.0])
        with pytest.raises(CorrelationError):
            correlate(a, self.series([1, 2, 3]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
                    min_size=3, max_size=30))
    def test_matches_exact_oracle(self, pairs):
        xs = [x / 100 for x, _ in pairs]
        ys = [y / 100 for _, y in pairs]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        got = correlate(self.series(xs), self.series(ys))
        assert abs(got - float(pearson_decimal(xs, ys))) <= 1e-12

    @given(st.lists(
        st.tuples(
            st.floats(0, 50, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
        ),
        min_size=2, max_size=30,
    ))
    def test_result_always_in_range(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        a = self.series(xs)
        b = self.series(ys)
        try:
            r = correlate(a, b)
        except CorrelationError:
            return
        assert -1.0 <= r <= 1.0
        assert math.isfinite(r)
