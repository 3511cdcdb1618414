"""Collecting raw tweets and turning them into the parsed table.

Collection is deliberately dumb: whatever arrives on the stream is stored
byte for byte, one line per record, so a bad day at the firehose can always
be re-processed later.  Parsing is where judgement happens.  A record
survives only if it carries an id, a creation time we can read, a geo
point, and a text; the point must then land inside a known region.
Everything else is counted and dropped, never silently.  collect() is
the one writer that appends to the raw table (T1), through store.open_raw.

This module holds the one pass over the raw table (T1).
parse_and_aggregate() maps _parse_block() over T1's blocks with
store.map_blocks, whole lines of about store.BLOCK_BYTES bytes a block,
so the pass holds no more than that of T1 however long its lines are:
each block's lines are parsed and resolved by _parsed_rows(), and every
batch of ROWS_PER_BATCH rows is formatted into T2 text and folded into
the score cells of every job (estimator's fold).  The pass writes T2
through store.staged() and merges counts and cells in file order, so its
outputs are the same whatever the thread count.  parse_corpus() is that
pass with no jobs.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .estimator import AggregationSpec, Analyser, _fold_rows, _merge_cells, _plan, _score_rows
from .georesolve import RegionIndex, resolve
from .store import (MIN_YEAR, ParsedTweet, ScoreRow, _utf8_text, format_parsed_line, map_blocks,
                    open_raw, parse_instant, staged, write_all)

log = logging.getLogger(__name__)

PROGRESS_LINES = 500_000  # parsing logs progress each time this many more raw lines are read

# Parsed rows go on to be formatted (and, in the pipeline's one pass, scored) in
# batches this long.  Row by row the one pass costs about a tenth more time, as
# each stage evicts the other's tables from the CPU caches.  Batches, not whole
# blocks, so neither the rows nor their T2 lines are held a block at a time.
ROWS_PER_BATCH = 256

NO_GEO = "no_geo"
MALFORMED = "malformed"

_CLASSIC_TIME_RE = re.compile(
    r"^[A-Za-z]{3} (?P<mon>[A-Za-z]{3}) (?P<day>\d{1,2}) "
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2}) "
    r"(?P<sign>[+-])(?P<oh>\d{2})(?P<om>\d{2}) (?P<year>\d{4})$"
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


@dataclass
class CollectorStats:
    """Line accounting for a collect or parse run."""

    lines_read: int = 0
    accepted: int = 0
    rejected_no_geo: int = 0
    rejected_malformed: int = 0
    rejected_unresolved: int = 0

    def merge(self, other: "CollectorStats") -> None:
        self.lines_read += other.lines_read
        self.accepted += other.accepted
        self.rejected_no_geo += other.rejected_no_geo
        self.rejected_malformed += other.rejected_malformed
        self.rejected_unresolved += other.rejected_unresolved


def collect(source: BinaryIO, raw_path: str | Path) -> tuple[CollectorStats, bytes]:
    """Append complete lines from a byte stream to the raw table.

    The only append to T1: each chunk read is written up to its last LF
    in one write call, through store.open_raw and store.write_all.
    Returns the stats and any trailing fragment that was not terminated
    by a newline.  The fragment is neither written nor logged; the caller
    decides whether to keep it for a resumed stream or to drop it.
    """
    stats = CollectorStats()
    buffer = b""
    with open_raw(raw_path) as table:
        while chunk := source.read(65536):
            data = buffer + chunk
            kept = data.rfind(b"\n") + 1
            write_all(table, data[:kept])
            stats.lines_read += data.count(b"\n")
            buffer = data[kept:]
    return stats, buffer


def _parse_created_at(value: str) -> datetime | None:
    m = _CLASSIC_TIME_RE.match(value)
    if m is not None:
        month = _MONTHS.get(m.group("mon"))
        if month is None:
            return None
        offset = timedelta(hours=int(m.group("oh")), minutes=int(m.group("om")))
        if m.group("sign") == "-":
            offset = -offset
        try:
            stamp = datetime(
                int(m.group("year")), month, int(m.group("day")),
                int(m.group("h")), int(m.group("m")), int(m.group("s")),
                tzinfo=timezone(offset),
            ).astimezone(timezone.utc)
        except (ValueError, OverflowError):  # no such date, or none in UTC
            return None
    else:
        try:
            stamp = parse_instant(value).replace(microsecond=0)
        except ValueError:
            return None
    return stamp if stamp.year >= MIN_YEAR else None


def _coordinates_of(record: dict) -> tuple[float, float] | None:
    """Pull (lat, lon) out of a record, or None when there is no point."""
    geo = record.get("coordinates")
    if isinstance(geo, dict):
        if geo.get("type") not in (None, "Point"):
            return None
        geo = geo.get("coordinates")
    if not isinstance(geo, (list, tuple)) or len(geo) != 2:
        return None
    lon, lat = geo
    if isinstance(lon, bool) or isinstance(lat, bool):
        return None
    if not isinstance(lon, (int, float)) or not isinstance(lat, (int, float)):
        return None
    return float(lat), float(lon)


def sanitize_text(text: str) -> str:
    """Flatten tabs and line breaks so the text fits in one table field."""
    return (
        text.replace("\r\n", "\\n")
        .replace("\r", "\\n")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def parse_record(payload: bytes | str) -> ParsedTweet | str:
    """Parse one raw line; returns an unresolved row or a rejection reason.

    The row's country and county are empty, which validate() refuses,
    until the caller resolves its point.  Once they are set from a
    region, the row passes validate(): every other field is checked here.
    """
    try:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        record = json.loads(payload)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return MALFORMED
    if not isinstance(record, dict):
        return MALFORMED

    tweet_id = record.get("id_str")
    if tweet_id is None and "id" in record:
        tweet_id = str(record["id"])
    if not isinstance(tweet_id, str) or not tweet_id or not _utf8_text(tweet_id):
        return MALFORMED
    if "\t" in tweet_id or "\n" in tweet_id or "\r" in tweet_id:  # no T2 field holds one
        return MALFORMED

    created = record.get("created_at")
    if not isinstance(created, str):
        return MALFORMED
    stamp = _parse_created_at(created)
    if stamp is None:
        return MALFORMED

    text = record.get("text")
    if not isinstance(text, str) or not _utf8_text(text):
        return MALFORMED

    if record.get("coordinates") is None:
        return NO_GEO
    point = _coordinates_of(record)
    if point is None:
        return MALFORMED
    lat, lon = point
    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
        return MALFORMED

    return ParsedTweet(tweet_id, stamp, lat, lon, "", "", sanitize_text(text))


def _parsed_rows(index: RegionIndex, lines: list[bytes], stats: CollectorStats) -> Iterator[ParsedTweet]:
    """Yield the rows of a block of raw lines that reach T2, in order.

    Each line is parsed and resolved; its fate is counted in stats.
    Rows are yielded one at a time, so no block of them is held.
    """
    stats.lines_read += len(lines)
    for payload in lines:
        row = parse_record(payload)
        if row == NO_GEO:
            stats.rejected_no_geo += 1
            continue
        if row == MALFORMED:
            stats.rejected_malformed += 1
            continue
        where = resolve(index, row.lat, row.lon)
        if where is None:
            stats.rejected_unresolved += 1
            continue
        row.country, row.county = where
        stats.accepted += 1
        yield row


def _batches(rows: Iterator[ParsedTweet]) -> Iterator[list[ParsedTweet]]:
    """Rows in lists of ROWS_PER_BATCH, the last one shorter."""
    while batch := list(itertools.islice(rows, ROWS_PER_BATCH)):
        yield batch


def _t2_text(rows: list[ParsedTweet]) -> str:
    """The T2 lines of rows, each ending in LF."""
    return "\n".join([*map(format_parsed_line, rows), ""])


def _parse_block(index: RegionIndex, analysers: list, plan: list[tuple],
                 lines: list[bytes]) -> tuple[list[str], CollectorStats, list[dict]]:
    """Parse one block of raw lines into T2 text pieces, their counts and folded cells.

    Each batch of rows is formatted into one piece of T2 text and folded
    into the block's cells before the next batch is parsed.
    """
    stats = CollectorStats()
    pieces: list[str] = []
    cells: list[dict] = [{} for _ in plan]
    memos: list[dict] = [{} for _ in analysers]
    for batch in _batches(_parsed_rows(index, lines, stats)):
        pieces.append(_t2_text(batch))
        _fold_rows(analysers, plan, batch, cells, memos)
    return pieces, stats, cells


def parse_and_aggregate(
    raw_path: str | Path,
    index: RegionIndex,
    parsed_path: str | Path,
    jobs: Sequence[tuple[AggregationSpec, Analyser]],
    threads: int = 1,
) -> tuple[CollectorStats, list[list[ScoreRow]]]:
    """Parse a raw table into parsed_path and score every job, in one pass.

    Returns the line counts and, per job, the rows aggregate_many() gives
    on the table written, without reading it back.  Output order follows
    input order whatever the thread count, so runs are byte for byte
    reproducible.  Every spec and the thread count are validated before
    the parsed table is touched.  The table is written to a temporary
    sibling that replaces parsed_path only once the whole raw table has
    been read, so a failed run leaves any earlier parsed table as it was.
    Progress is logged each time another PROGRESS_LINES raw lines have
    been read, whatever the block size.
    """
    analysers, plan = _plan(jobs, threads)
    stats = CollectorStats()
    cells: list[dict] = [{} for _ in plan]
    block = functools.partial(_parse_block, index, analysers, plan)
    with staged(parsed_path) as staging, staging.open("w", encoding="utf-8", newline="") as sink:
        for pieces, counts, part in map_blocks(block, raw_path, threads):
            before = stats.lines_read
            stats.merge(counts)
            _merge_cells(cells, part)
            sink.writelines(pieces)
            if stats.lines_read // PROGRESS_LINES > before // PROGRESS_LINES:
                log.info("parse: %d lines in", stats.lines_read)
    if stats.rejected_malformed:
        log.warning("parse: %d malformed records dropped", stats.rejected_malformed)
    return stats, [_score_rows(spec, analyser.approach, part)
                   for (spec, analyser), part in zip(jobs, cells)]


def parse_corpus(
    raw_path: str | Path,
    index: RegionIndex,
    parsed_path: str | Path,
    threads: int = 1,
) -> CollectorStats:
    """Parse the whole raw table into the parsed table: parse_and_aggregate() with no jobs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return parse_and_aggregate(raw_path, index, parsed_path, [], threads)[0]
