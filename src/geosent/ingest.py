"""Collecting raw tweets and turning them into the parsed table.

Collection is deliberately dumb: whatever arrives on the stream is stored
byte for byte, one line per record, so a bad day at the firehose can always
be re-processed later.  Parsing is where judgement happens.  A record
survives only if it decodes and carries an id, a creation time we can
read, a geo point (two numbers, by store._finite) and a text; the point
must then land inside a known region.  Everything else, a line that
fails to decode in any way included, is counted and dropped, never
silently.  collect() is the one writer that appends to T1, through open_raw.

parse_and_aggregate() is the one pass over the raw table (T1), run by
estimator's scan runner, for which this module supplies only the rows:
_parsed_rows() parses and resolves each block's lines and counts every
line's fate.  The runner writes the rows to T2 and folds them into the
cells of every job.  parse_corpus() is that pass with no jobs.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .estimator import AggregationSpec, Analyser, _scan
from .georesolve import RegionIndex, resolve
from .store import (MIN_YEAR, CollectorStats, ParsedTweet, ScoreRow, _field_text, _finite,
                    _utf8_text, open_raw, parse_instant, write_all)

log = logging.getLogger(__name__)

NO_GEO = "no_geo"
MALFORMED = "malformed"

_CLASSIC_TIME_RE = re.compile(
    r"^[A-Za-z]{3} (?P<mon>[A-Za-z]{3}) (?P<day>\d{1,2}) "
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2}) "
    r"(?P<sign>[+-])(?P<oh>\d{2})(?P<om>\d{2}) (?P<year>\d{4})$"
)

# the month names of the classic created_at format, which gencorpus writes
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_MONTHS = {name: month for month, name in enumerate(_MONTH_NAMES, 1)}


def collect(source: BinaryIO, raw_path: str | Path) -> tuple[CollectorStats, bytes]:
    """Append complete lines from a byte stream to the raw table.

    The only append to T1: each chunk read is written up to its last LF
    in one write call, through store.open_raw and store.write_all.
    Returns the stats and any trailing fragment that was not terminated
    by a newline.  The fragment is neither written nor logged; the caller
    decides whether to keep it for a resumed stream or to drop it.
    """
    stats = CollectorStats()
    fragment: list[bytes] = []  # the bytes read since the last LF, in pieces
    with open_raw(raw_path) as table:
        while chunk := source.read(65536):
            kept = chunk.rfind(b"\n") + 1
            if kept:  # only the new chunk is searched, so a long line costs no rescans
                write_all(table, b"".join([*fragment, chunk[:kept]]))
                stats.lines_read += chunk.count(b"\n")
                fragment.clear()
            fragment.append(chunk[kept:])
    return stats, b"".join(fragment)


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
    lat, lon = _finite(geo[1]), _finite(geo[0])
    return None if lat is None or lon is None else (lat, lon)


def sanitize_text(text: str) -> str:
    """Flatten tabs and line breaks so the text fits in one table field."""
    return (
        text.replace("\r\n", "\\n")
        .replace("\r", "\\n")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def parse_record(payload: bytes | str) -> ParsedTweet | str:
    """Parse one raw line; returns an unresolved row or a rejection reason, never raises.

    The id is the string "id_str", or without one the integer "id".  The
    row's country and county are empty, which validate() refuses, until
    the caller resolves its point.  Once they are set from a region, the
    row passes validate(): every other field is checked here.
    """
    try:
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        record = json.loads(payload)
    except (ValueError, RecursionError):  # not UTF-8 or JSON, an int too long, or too deep
        return MALFORMED
    if not isinstance(record, dict):
        return MALFORMED

    tweet_id = record.get("id_str")
    if tweet_id is None and type(record.get("id")) is int:  # not a bool, a float or null
        tweet_id = str(record["id"])
    if not _field_text(tweet_id):
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
    Progress is logged each time another estimator.PROGRESS_LINES raw
    lines have been read, whatever the block size.
    """
    stats, results = _scan(jobs, raw_path, threads, functools.partial(_parsed_rows, index), "parse",
                           parsed_path)
    if stats.rejected_malformed:
        log.warning("parse: %d malformed records dropped", stats.rejected_malformed)
    return stats, results


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
