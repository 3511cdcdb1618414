import math
import multiprocessing
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from geosent import estimator, store
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
from geosent.lexicon import DictionaryAnalyser, Lexicon
from geosent.store import LEVELS, format_parsed_line, ParsedTweet

from conftest import utc, write_parsed
from oracles import aggregate_per_pass, normalize, pearson_decimal

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
        with mock.patch.object(store, "SERIAL_BLOCK_LINES", 7), \
                mock.patch.object(store, "POOL_BLOCK_LINES", 7):
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

        with mock.patch.object(store, "multiprocessing", multiprocessing.get_context(method)):
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
