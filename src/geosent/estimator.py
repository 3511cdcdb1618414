"""Sentiment scores over time buckets and regions.

The positive sentiment score of a cell is pos/max(neg, 1), undefined
when the cell saw no positive and no negative signal at all.  Normalised
scores divide each cell by the maximum score of its normalisation group:
all regions of the same level and bucket by default, or only siblings
under one parent with norm_scope="siblings".  Scores keep full float
precision here; rounding happens at render time.

One scan runner serves both tables.  _scan() checks the jobs, maps
_scan_block() over a table's blocks with store.map_blocks, merges the
results in file order, writes T2 to the file it is handed, if any, logs
progress every PROGRESS_LINES lines, and scores.  A pass
supplies only its rows: aggregate_many() decodes T2 with _t2_rows(),
which counts a line that is not valid UTF-8 or not a valid row as
malformed, and ingest.parse_and_aggregate() parses and resolves T1.
aggregate() is the single-job case.

The fold is shared.  Each row's instant becomes an integer count of
microseconds once, and its features (the tokenizer's lowercased words
and hashtag bodies) are scanned once; each distinct analyser (lexicon
counter or classifier) scores those features once, and the counts fold
into the cells of every job whose window holds the row.  Buckets count
from the window start (the final bucket may be truncated).  Window
endpoints are timezone-aware instants and may carry microseconds.  Both
scans run on store.map_blocks, in-process or over a process pool, in
blocks of whole lines of about store.BLOCK_BYTES bytes, so a block's memo
holds no more features than its lines; block results merge by addition
in file order, so the output is identical whatever the thread count.
"""
from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TextIO

from .store import (LEVELS, MIN_YEAR, CollectorStats, GeosentError, ParsedTweet, ScoreRow,
                    _parse_parsed_line, format_instant, format_parsed_line, map_blocks)
from .tokenizer import Features, _scan_features

log = logging.getLogger(__name__)

NORM_SCOPES = ("level", "siblings")

PROGRESS_LINES = 500_000  # a scan logs progress each time this many more lines are read

# Rows are folded (and, in the pass over T1, formatted into T2 text) in batches
# this long.  Row by row that pass costs about a tenth more time, as each stage
# evicts the other's tables from the CPU caches.  Batches, not whole blocks, so
# neither the rows nor their T2 lines are held a block at a time.
ROWS_PER_BATCH = 256

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

#: the longest bucket, timedelta.max in whole seconds (86,399,999,999,999): a bucket's
#: bounds are computed as timedelta, which holds no longer length
MAX_BUCKET_SECONDS = timedelta.max // timedelta(seconds=1)


class EstimatorError(GeosentError, ValueError):
    pass


class CorrelationError(EstimatorError):
    """Correlation is undefined: too few joined points or zero variance."""


class Analyser(Protocol):
    """Scores one tweet's features as (positive, negative) counts.

    The scan passes one memo dict per block of rows: an analyser may
    keep per-feature results in it while the block lasts.
    """

    approach: str

    def counts(self, features: Features, memo: dict) -> tuple[int, int]: ...


def _check_bucket(bucket_seconds: int) -> None:
    """Refuse a bucket length that is not in 1..MAX_BUCKET_SECONDS."""
    if not 0 < bucket_seconds <= MAX_BUCKET_SECONDS:
        raise EstimatorError(f"bucket_seconds must be in 1..{MAX_BUCKET_SECONDS}, "
                             f"got {bucket_seconds}")


def compute_pss(pos: int, neg: int) -> float | None:
    """pos/max(neg, 1), or None when there was no signal either way."""
    if pos == 0 and neg == 0:
        return None
    return pos / max(neg, 1)


@dataclass
class AggregationSpec:
    """What to aggregate: level, UTC window, bucket size, normalisation."""

    level: str
    window: tuple[datetime, datetime]
    bucket_seconds: int
    norm_scope: str = "level"

    def validate(self) -> None:
        if self.level not in LEVELS:
            raise EstimatorError(f"unknown level {self.level!r}")
        if self.norm_scope not in NORM_SCOPES:
            raise EstimatorError(f"unknown norm_scope {self.norm_scope!r}")
        _check_bucket(self.bucket_seconds)
        start, end = self.window
        if start.utcoffset() is None or end.utcoffset() is None:
            raise EstimatorError("window endpoints must be timezone-aware instants")
        if not start < end:
            raise EstimatorError("window start must precede window end")
        if start < datetime(MIN_YEAR, 1, 1, tzinfo=timezone.utc):
            raise EstimatorError(f"window start must not be before {MIN_YEAR}-01-01T00:00:00Z")


def _fold_rows(analysers: list, plan: list[tuple], rows: Iterable[ParsedTweet],
               cells: list[dict], memos: list[dict]) -> None:
    """Fold rows into the partial cell counts of every job.

    plan holds one (start, end, bucket_seconds, country_level, analyser
    slot) entry per job, its window in microseconds since the epoch.
    cells holds one dict per job and memos one per analyser; the caller
    owns both and may fold more rows into them.  A row's instant is
    converted once, its features are scanned only when some job's window
    holds it, and each analyser scores it at most once.
    """
    jobs = list(zip(cells, plan))
    for row in rows:
        instant = (row.timestamp - _EPOCH) // _MICROSECOND
        features = None
        scored: list = [None] * len(analysers)
        for part, (start, end, bucket_seconds, country_level, slot) in jobs:
            if not start <= instant < end:
                continue
            if features is None:
                features = _scan_features(row.text)
            counts = scored[slot]
            if counts is None:
                counts = scored[slot] = analysers[slot].counts(features, memos[slot])
            # divide as timedelta.total_seconds() does: over windows longer than 2^33 s its
            # float rounding moves a microsecond below a whole second up to that second
            bucket = int((instant - start) / 1_000_000) // bucket_seconds
            if country_level:
                key = (bucket, row.country, "")
            else:
                key = (bucket, row.county, row.country)
            pos, neg = counts
            cell = part.get(key)
            if cell is None:
                part[key] = [pos, neg, 1]
            else:
                cell[0] += pos
                cell[1] += neg
                cell[2] += 1


def _t2_rows(lines: list[bytes], stats: CollectorStats) -> Iterator[ParsedTweet]:
    """Yield the rows of a block of T2 lines, counting the lines and each skipped one as malformed.

    A last line without its LF was cut short, so it is skipped even where what is left parses.
    """
    stats.lines_read += len(lines)
    for line in lines:
        if line == b"\n":
            continue
        if line[-1:] != b"\n":
            stats.rejected_malformed += 1
            continue
        try:
            row = _parse_parsed_line(line[:-1].decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            stats.rejected_malformed += 1
            continue
        yield row


def _scan_block(rows: Callable[..., Iterator[ParsedTweet]], analysers: list, plan: list[tuple],
                t2: bool, lines: list[bytes]) -> tuple[list[str], CollectorStats, list[dict]]:
    """Fold one block of a table's lines; returns its T2 text pieces, counts and cells.

    rows(lines, stats) yields the block's rows and counts their lines.
    Each batch of rows is folded, and formatted into one piece of T2 text
    when t2 is set, before the next batch is read.
    """
    stats = CollectorStats()
    pieces: list[str] = []
    cells: list[dict] = [{} for _ in plan]
    memos: list[dict] = [{} for _ in analysers]
    source = rows(lines, stats)
    while batch := list(itertools.islice(source, ROWS_PER_BATCH)):
        if t2:
            pieces.append("\n".join([*map(format_parsed_line, batch), ""]))
        _fold_rows(analysers, plan, batch, cells, memos)
    return pieces, stats, cells


def _merge_cells(cells: list[dict], part: list[dict]) -> None:
    """Add one block's cells into cells; blocks arrive in file order."""
    for target, got in zip(cells, part):
        for key, (pos, neg, tweets) in got.items():
            cell = target.get(key)
            if cell is None:
                target[key] = [pos, neg, tweets]
            else:
                cell[0] += pos
                cell[1] += neg
                cell[2] += tweets


def _score_rows(spec: AggregationSpec, approach: str, cells: dict) -> list[ScoreRow]:
    """Scored, normalised and sorted rows of one job's cells."""
    start, end = spec.window
    delta = timedelta(seconds=spec.bucket_seconds)
    bounds: dict[int, tuple[datetime, datetime]] = {}
    rows: list[ScoreRow] = []
    for (bucket, region, parent), (pos, neg, tweets) in cells.items():
        got = bounds.get(bucket)
        if got is None:
            bucket_start = start + bucket * delta
            # the last bucket ends at end, and bucket_start + delta may be past datetime's range
            got = bounds[bucket] = (bucket_start,
                                    end if end - bucket_start <= delta else bucket_start + delta)
        bucket_start, bucket_end = got
        rows.append(ScoreRow(
            approach=approach,
            level=spec.level,
            region=region,
            parent=parent,
            bucket_start=bucket_start,
            bucket_end=bucket_end,
            pos_count=pos,
            neg_count=neg,
            tweet_count=tweets,
            pss=compute_pss(pos, neg),
            npss=None,
        ))

    groups: dict = {}
    for row in rows:
        if row.pss is None:
            continue
        key = (row.bucket_start, row.parent if spec.norm_scope == "siblings" else None)
        groups.setdefault(key, []).append(row)
    for members in groups.values():
        top = max(row.pss for row in members)
        if top <= 0.0:
            continue  # nothing positive anywhere in the group: npss stays NA
        for row in members:
            row.npss = row.pss / top

    rows.sort(key=lambda r: (r.bucket_start, r.region))
    return rows


def _plan(jobs: Sequence[tuple[AggregationSpec, Analyser]], threads: int) -> tuple[list, list[tuple]]:
    """Check every spec and the thread count; the distinct analysers and each job's fold entry."""
    if threads < 1:
        raise EstimatorError("threads must be at least 1")
    analysers: list = []
    slots: dict[int, int] = {}
    plan = []
    for spec, analyser in jobs:
        spec.validate()
        if id(analyser) not in slots:
            slots[id(analyser)] = len(analysers)
            analysers.append(analyser)
        start, end = spec.window
        plan.append(((start - _EPOCH) // _MICROSECOND, (end - _EPOCH) // _MICROSECOND,
                     spec.bucket_seconds, spec.level == "Country", slots[id(analyser)]))
    return analysers, plan


def _scan(jobs: Sequence[tuple[AggregationSpec, Analyser]], table_path: str | Path, threads: int,
          rows: Callable[..., Iterator[ParsedTweet]], what: str,
          t2: TextIO | None = None) -> tuple[CollectorStats, list[list[ScoreRow]]]:
    """Fold the rows that rows() yields from one scan of a table; the counts and each job's rows.

    Every spec and the thread count are checked before the table is
    opened.  Given t2, the rows are written as T2 to the file it is
    handed, in table order.  Progress is logged as what each time
    another PROGRESS_LINES lines have been read.
    """
    analysers, plan = _plan(jobs, threads)
    stats = CollectorStats()
    cells: list[dict] = [{} for _ in plan]
    block = functools.partial(_scan_block, rows, analysers, plan, t2 is not None)
    for pieces, counts, part in map_blocks(block, table_path, threads):
        before = stats.lines_read
        stats.merge(counts)
        _merge_cells(cells, part)
        if t2 is not None:
            t2.writelines(pieces)
        if stats.lines_read // PROGRESS_LINES > before // PROGRESS_LINES:
            log.info("%s: %d lines in", what, stats.lines_read)
    return stats, [_score_rows(spec, analyser.approach, part)
                   for (spec, analyser), part in zip(jobs, cells)]


def aggregate_many(
    jobs: Sequence[tuple[AggregationSpec, Analyser]],
    parsed_path: str | Path,
    threads: int = 1,
) -> list[list[ScoreRow]]:
    """Score every (spec, analyser) job in one scan of a parsed table.

    Returns one row list per job, in job order, each equal to what
    aggregate(spec, parsed_path, analyser) gives.  Every spec and the
    thread count are validated before the scan starts.  Jobs that share
    an analyser object share its per-tweet scoring.
    """
    stats, results = _scan(jobs, parsed_path, threads, _t2_rows, "aggregate")
    if stats.rejected_malformed:
        log.warning("aggregate: skipped %d malformed parsed rows", stats.rejected_malformed)
    return results


def aggregate(
    spec: AggregationSpec,
    parsed_path: str | Path,
    analyser: Analyser,
    threads: int = 1,
) -> list[ScoreRow]:
    """One scored row per (bucket, region) cell, normalised per group.

    Cells with undefined pss are emitted with pss=NA and stay out of
    their normalisation group; a group whose best defined score is 0
    gets npss=NA throughout.  Rows come back sorted by bucket then
    region, so equal inputs give byte-equal tables downstream.
    """
    return aggregate_many([(spec, analyser)], parsed_path, threads)[0]


@dataclass
class ScoreSeries:
    """Defined pss over strictly increasing bucket starts, for one region."""

    region: str
    approach: str
    points: list[tuple[datetime, float]] = field(default_factory=list)

    def validate(self) -> None:
        for (earlier, _), (later, _) in zip(self.points, self.points[1:]):
            if not earlier < later:
                raise EstimatorError(f"series for {self.region}: bucket starts not increasing")
        if any(p is None for _, p in self.points):
            raise EstimatorError(f"series for {self.region}: undefined score")


def series_from_rows(
    rows: Iterable[ScoreRow],
    region: str,
    approach: str,
    bucket_seconds: int | None = None,
) -> ScoreSeries:
    """Build the pss series of one region and approach from score rows.

    Only rows of bucket_seconds are kept when it is given, and a shorter
    row that starts where the last of them ends: a window's truncated last
    bucket.  Kept rows with equal bounds and counts are one cell scored
    twice, so one bucket; kept buckets that still overlap raise
    EstimatorError.
    """
    kept = [row for row in rows
            if row.region == region and row.approach == approach and row.pss is not None]
    if bucket_seconds is not None:
        _check_bucket(bucket_seconds)
        length = timedelta(seconds=bucket_seconds)
        full = [row for row in kept if row.bucket_end - row.bucket_start == length]
        last_end = max((row.bucket_end for row in full), default=None)
        kept = full + [row for row in kept
                       if row.bucket_start == last_end and row.bucket_end - row.bucket_start < length]
    cells = {(row.bucket_start, row.bucket_end, row.pos_count, row.neg_count, row.tweet_count): row
             for row in kept}
    kept = sorted(cells.values(), key=lambda row: row.bucket_start)
    for row, after in zip(kept, kept[1:]):
        if row.bucket_end > after.bucket_start:
            clash = "duplicate" if row.bucket_start == after.bucket_start else "overlapping"
            raise EstimatorError(f"series for {region}: {clash} buckets at "
                                 f"{format_instant(after.bucket_start)}; keep one length (--bucket)")
    points = [(row.bucket_start, row.pss) for row in kept]
    series = ScoreSeries(region=region, approach=approach, points=points)
    series.validate()
    return series


def correlate(series_a: ScoreSeries, series_b: ScoreSeries) -> float:
    """Pearson correlation over buckets both series cover.

    Raises CorrelationError when fewer than two buckets join or either
    joined side is constant.
    """
    import statistics  # here, not at module top: it adds milliseconds to every command's start-up

    series_a.validate()
    series_b.validate()
    by_bucket = dict(series_b.points)
    joined = [(pss, by_bucket[ts]) for ts, pss in series_a.points if ts in by_bucket]
    if len(joined) < 2:
        raise CorrelationError(f"only {len(joined)} joined points, need at least 2")
    xs = [float(x) for x, _ in joined]
    ys = [float(y) for _, y in joined]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise CorrelationError("correlation undefined for a constant series")
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError as err:  # a variance that underflows to 0
        raise CorrelationError(f"correlation undefined: {err}") from None
    return min(1.0, max(-1.0, r))
