"""Append-only tables for the tweet sentiment pipeline.

Three on-disk formats, all line-oriented and append-only:

 - T1 raw:    one collector payload per line, bytes preserved verbatim.
 - T2 parsed: TSV with columns tweet_id, timestamp (ISO-8601 UTC, seconds
   precision), lat, lon, country, county, text.  Tabs and newlines never
   appear inside a field; tweet text is escaped upstream.
 - T3 scores: CSV with header approach,level,region,parent,bucket_start,
   bucket_end,pos_count,neg_count,tweet_count,pss,npss.  Undefined pss or
   npss is serialised as NA.  Floats are written at full precision so a
   read back row compares equal.

T1 is appended in place, whole lines at a time, by collect alone, through
append_raw(), which works on a bare descriptor opened O_APPEND and probes
its torn tail with _torn().  A generated T1, T2 and T3 are written through
staged(), so a failed write leaves the old table as it was.  Writers
validate before touching the file so a rejected batch leaves the table
unchanged.  _score_blocks() is the one reader of an existing T3, for
read_scores and for an append, which writes the old text and then the
new rows to the staged file.  In one pass it checks each block for a torn
row, then UTF-8, then in the first the header, naming lines as csv does
(_line_at()); read_scores then checks the rows.

map_blocks() is the one scan of T1 and T2: it reads a table's lines as bytes,
each with its LF, in blocks and maps a function over them, in-process or
through a process pool, yielding results in file order.  estimator's scan
runner drives it over T1 and T2.  Every block, of T1, T2 or T3, is whole
lines, closed at the first line that takes it past BLOCK_BYTES bytes (a
pool's blocks may be smaller).
_read_text() reads each whole input file (lexicon, model, regions...) as
UTF-8, without a leading byte-order mark.  _utf8_text() and _finite() are the
rules for a JSON string and a JSON number read from outside, in every module;
_field_text() is the rule for a JSON string that becomes a table field.
GeosentError is the base of every module's error class, so a caller (the
CLI's exit 2 among them) catches any refusal geosent makes with it alone.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import functools
import io
import math
import os
import shutil
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

APPROACHES = ("Dictionary", "MachineLearning")
LEVELS = ("Country", "County")

#: county value used when a point falls inside a country but no county polygon
UNASSIGNED = "unassigned"

SCORE_COLUMNS = (
    "approach", "level", "region", "parent", "bucket_start", "bucket_end",
    "pos_count", "neg_count", "tweet_count", "pss", "npss",
)

# a block of any table is whole lines, closed at the first line that takes it
# past this many bytes: mapped in turn in-process, or handed to a pool worker
BLOCK_BYTES = 1 << 22
# a pool cuts the table into about this many blocks per worker, so no worker waits
# on one big block, but no smaller than POOL_BLOCK_MIN_BYTES, which are not worth a task
POOL_BLOCKS_PER_WORKER = 4
POOL_BLOCK_MIN_BYTES = 1 << 16

# format_instant writes a year before 1000 without its leading zeros, which
# parse_instant does not read back, so no table holds an instant before this year
MIN_YEAR = 1000


class GeosentError(Exception):
    """Base of every error geosent raises for bad data or a request it refuses."""


class StoreError(GeosentError):
    """Raised for unreadable tables or rejected writes."""


class ScoreRowError(StoreError):
    """A write_scores batch was rejected; .indices lists the bad rows."""

    def __init__(self, message: str, indices: list[int]):
        super().__init__(message)
        self.indices = indices


def format_instant(ts: datetime) -> str:
    """Render a UTC instant as ISO-8601 with Z suffix, seconds precision.

    The bytes are strftime's "%Y-%m-%dT%H:%M:%SZ" (glibc's, which writes a
    year before 1000 without leading zeros), at a third of its cost.
    """
    ts = ts.astimezone(timezone.utc)
    return "%d-%02d-%02dT%02d:%02d:%02dZ" % (ts.year, ts.month, ts.day,
                                             ts.hour, ts.minute, ts.second)


def parse_instant(text: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{text!r} has no UTC instant in datetime's range") from None


@dataclass
class CollectorStats:
    """Line accounting for a collect, parse or score run."""

    lines_read: int = 0
    accepted: int = 0
    rejected_no_geo: int = 0
    rejected_malformed: int = 0
    rejected_unresolved: int = 0

    def merge(self, other: "CollectorStats") -> None:
        for counter in fields(self):
            setattr(self, counter.name, getattr(self, counter.name) + getattr(other, counter.name))


@dataclass
class ParsedTweet:
    """One geolocated tweet; validate() refuses it until country and county are set."""

    tweet_id: str
    timestamp: datetime
    lat: float
    lon: float
    country: str
    county: str
    text: str

    def validate(self) -> None:
        if not self.tweet_id:
            raise ValueError("empty tweet_id")
        if self.timestamp.tzinfo is None:
            raise ValueError(f"tweet {self.tweet_id}: naive timestamp")
        if self.timestamp.microsecond:
            raise ValueError(f"tweet {self.tweet_id}: sub-second timestamp")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"tweet {self.tweet_id}: latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"tweet {self.tweet_id}: longitude {self.lon} out of range")
        if not self.country:
            raise ValueError(f"tweet {self.tweet_id}: empty country")
        if not self.county:
            raise ValueError(f"tweet {self.tweet_id}: empty county")
        for field in (self.tweet_id, self.country, self.county, self.text):
            if "\t" in field or "\n" in field or "\r" in field:
                raise ValueError(f"tweet {self.tweet_id}: raw tab or newline in field")


@dataclass
class ScoreRow:
    """One (approach, level, region, bucket) cell of the scores table."""

    approach: str
    level: str
    region: str
    parent: str
    bucket_start: datetime
    bucket_end: datetime
    pos_count: int
    neg_count: int
    tweet_count: int
    pss: float | None
    npss: float | None

    def problem(self) -> str | None:
        """Describe the first invariant violation, or None if the row is good."""
        if self.approach not in APPROACHES:
            return f"unknown approach {self.approach!r}"
        if self.level not in LEVELS:
            return f"unknown level {self.level!r}"
        if not self.region:
            return "empty region"
        if "\r" in self.region or "\r" in self.parent:  # csv writes a lone CR unquoted
            return "raw CR in region or parent"
        if not (_utf8_text(self.region) and _utf8_text(self.parent)):
            return "region or parent is not valid UTF-8"
        if not self.bucket_start < self.bucket_end:
            return "bucket_start must precede bucket_end"
        if self.bucket_start.astimezone(timezone.utc).year < MIN_YEAR:
            return f"bucket_start before {MIN_YEAR}-01-01T00:00:00Z"
        if min(self.pos_count, self.neg_count, self.tweet_count) < 0:
            return "negative count"
        if self.pss is None:
            if self.npss is not None:
                return "npss defined while pss is undefined"
            return None
        expected = self.pos_count / max(self.neg_count, 1)
        if not math.isclose(self.pss, expected, rel_tol=1e-9, abs_tol=1e-12):
            return f"pss {self.pss!r} does not equal pos/max(neg,1) = {expected!r}"
        if self.npss is not None and not 0.0 <= self.npss <= 1.0:
            return f"npss {self.npss!r} outside [0, 1]"
        return None


def _utf8_text(text: str) -> bool:
    """Whether text encodes as UTF-8: JSON's \\u escapes can leave a lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _field_text(value) -> str | None:
    """value when it is a str that a table field can hold: UTF-8, with no TAB, CR or LF; else None."""
    held = isinstance(value, str) and not ("\t" in value or "\n" in value or "\r" in value)
    return value if held and _utf8_text(value) else None


def _finite(value) -> float | None:
    """A JSON number as a finite float; None for a bool, a non-number, inf, nan or a huge int."""
    if type(value) is float:  # the common case first
        return value if math.isfinite(value) else None
    try:  # bool is an int subclass, but no number here
        return float(value) if type(value) is int else None
    except OverflowError:
        return None


def _read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    """A whole input file's text as open(path, encoding="utf-8-sig").read() gives it:
    a leading byte-order mark dropped, CRLF and CR read as LF.  An unreadable
    file or a byte that is not UTF-8 raises error naming the kind of file, its
    path and the line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # not decode("utf-8-sig"), whose error offsets skip the mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = _line_at(data, exc.start)
        raise error(f"{what} file {path} is not UTF-8 text: line {line}: {exc.reason}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _line_at(data: bytes, offset: int) -> int:
    """The 1-based line of data[offset] as csv counts it: LF, CR and CRLF each end a line."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _torn(fd: int) -> bool:
    """append_raw's probe: whether the T1 at fd has a last line without its LF, cut short.

    Only the last byte is read; the offset is left at the end of the file.
    """
    if os.lseek(fd, 0, os.SEEK_END) == 0:
        return False
    os.lseek(fd, -1, os.SEEK_END)
    return os.read(fd, 1) != b"\n"


def _write_all(fd: int, data: bytes, path: str | Path) -> None:
    """Write data to fd in one write call, repeated only if the OS writes
    part of it; a write that takes nothing raises OSError naming path, not a spin."""
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        if not written:
            raise OSError(f"{path}: write returned 0 with {len(view)} bytes left")
        view = view[written:]


def append_raw(path: str | Path, source: BinaryIO) -> tuple[int, bytes]:
    """Append the complete lines of a byte stream to the T1 at path: the one writer of T1.

    Each chunk read is written up to its last LF in one write call, so T1
    grows by whole lines only.  Returns the number of lines written and
    the bytes after the stream's last LF, which are not written.  A table
    whose last line has no LF (a write torn by a crash) gets one first, so
    the torn record stays one malformed line and the next line written
    starts a line of its own.  Only the last byte is read.  T1 is a bare
    descriptor opened O_APPEND, so every write lands at the end; a file
    object around it would cost about as much as the syscalls themselves.
    """
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if _torn(fd):
            _write_all(fd, b"\n", path)
        lines = 0
        fragment: list[bytes] = []  # the bytes read since the last LF, in pieces
        while chunk := source.read(65536):
            kept = chunk.rfind(b"\n") + 1
            if kept:  # only the new chunk is searched, so a long line costs no rescans
                _write_all(fd, b"".join([*fragment, chunk[:kept]]), path)
                lines += chunk.count(b"\n")
                fragment.clear()
            fragment.append(chunk[kept:])
    finally:
        os.close(fd)
    return lines, b"".join(fragment)


@contextlib.contextmanager
def staged(path: str | Path) -> Iterator[Path]:
    """Yield a temporary sibling to write in place of path.

    The sibling, <name>.<pid>.tmp, replaces path when the block ends
    cleanly.  On any exception it is removed instead, so path keeps its
    old bytes and no partial file is left behind.
    """
    out = Path(path)
    staging = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        yield staging
        os.replace(staging, out)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def map_blocks(fn: Callable[[list[bytes]], object], table_path: str | Path, threads: int) -> Iterator:
    """Yield fn(block) for every block of a table's lines, in file order.

    A block is a list of lines as bytes, split on LF only, closed at the
    first line that takes it past BLOCK_BYTES bytes.  Each line keeps its
    LF, so a last line cut short shows as the one line without.  One
    thread maps the blocks in-process.  More threads hand them to a pool
    of that many worker processes, so fn and everything bound to it must
    pickle.  Pool blocks are sized from the table: about
    POOL_BLOCKS_PER_WORKER blocks per worker, though at least
    POOL_BLOCK_MIN_BYTES and at most BLOCK_BYTES.  So a small table still
    keeps every worker busy.  The pool holds at most two blocks per worker
    at a time, so no table is held in memory at once.  A worker that dies
    raises StoreError naming the table, not a hang.
    """
    with open(table_path, "rb") as fh:
        size = BLOCK_BYTES
        if threads > 1:
            share = os.fstat(fh.fileno()).st_size // (threads * POOL_BLOCKS_PER_WORKER) + 1
            size = min(size, max(share, POOL_BLOCK_MIN_BYTES))
        blocks = iter(functools.partial(fh.readlines, size), [])
        if threads == 1:
            # the built-in map drops each block before it yields the block's result,
            # so the caller's work on the result does not hold the block
            yield from map(fn, blocks)
            return
        # here, so a one-worker run and every import skip their cost
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        # blocks go in through a window, not Executor.map, which submits them all at once
        pool = ProcessPoolExecutor(threads, mp_context=multiprocessing.get_context())
        window: collections.deque = collections.deque()
        try:
            for block in blocks:
                window.append(pool.submit(fn, block))
                if len(window) == 2 * threads:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        except BrokenProcessPool:
            raise StoreError(f"{table_path}: a worker process died in the scan") from None
        finally:
            pool.shutdown(cancel_futures=True)


def format_parsed_line(row: ParsedTweet) -> str:
    """One T2 line for a validated row, without the trailing newline."""
    return (
        f"{row.tweet_id}\t{format_instant(row.timestamp)}\t{row.lat!r}\t{row.lon!r}"
        f"\t{row.country}\t{row.county}\t{row.text}"
    )


def _parse_parsed_line(line: str) -> ParsedTweet:
    parts = line.split("\t")
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields, found {len(parts)}")
    tweet_id, stamp, lat, lon, country, county, text = parts
    row = ParsedTweet(
        tweet_id=tweet_id,
        timestamp=parse_instant(stamp),
        lat=float(lat),
        lon=float(lon),
        country=country,
        county=county,
        text=text,
    )
    row.validate()
    return row


def _format_score(value: float | None) -> str:
    return "NA" if value is None else repr(value)


def _parse_score(text: str) -> float | None:
    return None if text == "NA" else float(text)


def _score_blocks(table_path: str | Path) -> Iterator[str]:
    """Yield an existing score table as text blocks that each end at an LF.

    The table is opened and read once.  A block without a final LF can
    only be the last, a row cut short, refused before it is decoded; each
    block must be UTF-8 and the first must start with the score header.  So
    a fault in an earlier block comes before a torn row.  An empty table
    yields nothing.  Every StoreError names the file and the line (_line_at).
    """
    with open(table_path, "rb") as fh:
        lines = 0
        # map_blocks' rule: each block closes at the first line that takes it
        # past BLOCK_BYTES, so it ends at an LF and no character is cut in two
        while block := fh.read(BLOCK_BYTES) + fh.readline():
            if not block.endswith(b"\n"):  # the line the csv reader gives the torn row
                line = lines + _line_at(block, len(block) - 1)
                raise StoreError(f"{table_path}: line {line}: last row was cut short, no newline ends it")
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = lines + _line_at(block, exc.start)
                raise StoreError(f"{table_path}: line {line}: not UTF-8 text: {exc.reason}") from None
            if not lines:
                try:
                    header = next(csv.reader(io.StringIO(text, newline="")))
                except csv.Error as exc:  # a field over csv's size limit
                    raise StoreError(f"{table_path}: line 1: {exc}") from None
                if header != list(SCORE_COLUMNS):
                    raise StoreError(f"{table_path}: line 1: unexpected scores header {header!r}")
            lines += _line_at(block, len(block)) - 1
            yield text


def write_scores(table_path: str | Path, rows: list[ScoreRow], append: bool = False) -> int:
    """Write T3 rows after validating the whole batch.

    On any invalid row the batch is rejected with a ScoreRowError naming
    the offending indices and nothing is written.  The table is written
    through staged(), so it replaces table_path only once it is whole.
    An append writes the old table from _score_blocks, then the new rows,
    and keeps its permission bits; two appends at once to one table drop
    the batch of the first to finish.  A missing or empty table gets the
    header first.  A table that _score_blocks refuses raises StoreError.
    """
    problems = [(i, p) for i, p in ((i, row.problem()) for i, row in enumerate(rows)) if p]
    if problems:
        detail = "; ".join(f"row {i}: {p}" for i, p in problems)
        raise ScoreRowError(f"rejected score rows: {detail}", [i for i, _ in problems])
    append = append and os.path.exists(table_path)
    old = _score_blocks(table_path) if append else iter(())

    stamps: dict[datetime, str] = {}  # rows share a few bucket instants: format each once

    def stamp(ts: datetime) -> str:
        if ts.tzinfo is not timezone.utc:  # in other zones equal instants may differ in fold
            return format_instant(ts)
        text = stamps.get(ts)
        if text is None:
            text = stamps[ts] = format_instant(ts)
        return text

    try:
        first = next(old, "")
        with staged(table_path) as staging, staging.open("w", encoding="utf-8", newline="") as fh:
            if append:
                shutil.copymode(table_path, staging)
            fh.write(first)
            fh.writelines(old)
            writer = csv.writer(fh, lineterminator="\n")
            if not first:  # a new or empty table gets the header
                writer.writerow(SCORE_COLUMNS)
            for row in rows:
                writer.writerow([
                    row.approach, row.level, row.region, row.parent,
                    stamp(row.bucket_start), stamp(row.bucket_end),
                    row.pos_count, row.neg_count, row.tweet_count,
                    _format_score(row.pss), _format_score(row.npss),
                ])
    except StoreError as err:  # only _score_blocks raises it here
        raise StoreError(f"cannot append to {err}") from None
    return len(rows)


def read_scores(table_path: str | Path) -> list[ScoreRow]:
    """Read a T3 table back into ScoreRow values.

    Errors are those of _score_blocks, an empty table, and a row that
    does not convert or that write_scores would reject.
    """
    # csv splits lines as open(..., newline="") does, across the blocks too
    reader = csv.reader(line for block in _score_blocks(table_path)
                        for line in io.StringIO(block, newline=""))
    if next(reader, None) is None:  # _score_blocks checked any header there is
        raise StoreError(f"{table_path}: line 1: unexpected scores header None")
    rows = []
    try:
        for record in reader:
            if len(record) != len(SCORE_COLUMNS):
                raise ValueError(f"scores row has {len(record)} fields")
            row = ScoreRow(
                approach=record[0],
                level=record[1],
                region=record[2],
                parent=record[3],
                bucket_start=parse_instant(record[4]),
                bucket_end=parse_instant(record[5]),
                pos_count=int(record[6]),
                neg_count=int(record[7]),
                tweet_count=int(record[8]),
                pss=_parse_score(record[9]),
                npss=_parse_score(record[10]),
            )
            problem = row.problem()
            if problem:
                raise ValueError(problem)
            rows.append(row)
    except (ValueError, csv.Error) as err:  # csv.Error: a field over csv's size limit
        raise StoreError(f"{table_path}: line {reader.line_num}: {err}") from None
    return rows
