"""Seeded synthetic raw corpora for demos, benchmarks, and tests.

The generator writes records in the same shape the collector stores:
one JSON object per line with id_str, created_at, coordinates, and text.
Sentiment is planted two ways at once, with opinion words the bundled
lexicon knows and with a trailing emoticon, so the same corpus exercises
the word-counting path, distant labelling, and the trained classifier.

Everything is driven by one `random.Random(seed)`, so a given seed and
mix always produce byte-identical output.  The table is written whole
through store.staged: a rerun replaces it, and a failed run leaves the
old file, or none.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .georesolve import RegionIndex, resolve
from .ingest import _MONTH_NAMES
from .store import LEVELS, MIN_YEAR, GeosentError, staged

POSITIVE_WORDS = ("happy", "joy", "love", "great", "excited", "wonderful")
NEGATIVE_WORDS = ("sad", "awful", "gloomy", "worst", "terrible")
FILLER_WORDS = (
    "the", "royal", "baby", "day", "today", "news",
    "crowd", "street", "morning", "waiting", "here", "now",
)
POSITIVE_TAILS = (":)", ":D", "=)")
NEGATIVE_TAILS = (":(", ":'(", "=(")

_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

_MAX_POINT_TRIES = 10_000


class GenerateError(GeosentError):
    pass


@dataclass(frozen=True)
class MixEntry:
    """How many tweets of each polarity to plant in one region."""

    level: str
    region: str
    positive: int
    negative: int


def parse_mix(text: str) -> MixEntry:
    """Parse "region:POS:NEG" or "level/region:POS:NEG"."""
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise GenerateError(f"bad mix entry {text!r}, want region:positives:negatives")
    where, pos_text, neg_text = parts
    try:
        pos, neg = int(pos_text), int(neg_text)
    except ValueError:
        raise GenerateError(f"bad mix counts in {text!r}") from None
    if pos < 0 or neg < 0:
        raise GenerateError(f"negative counts in mix entry {text!r}")
    level = "County"
    region = where
    if "/" in where:
        level, region = where.split("/", 1)
        if level not in LEVELS:
            raise GenerateError(f"unknown level {level!r} in mix entry {text!r}")
    return MixEntry(level, region, pos, neg)


def _classic_time(stamp: datetime) -> str:
    stamp = stamp.astimezone(timezone.utc)
    return (
        f"{_DAY_NAMES[stamp.weekday()]} {_MONTH_NAMES[stamp.month - 1]} "
        f"{stamp.day:02d} {stamp:%H:%M:%S} +0000 {stamp.year}"
    )


def _point_in(
    rng: random.Random, index: RegionIndex, entry: MixEntry
) -> tuple[float, float]:
    """Rejection-sample a point that resolves to the asked region."""
    parts = index.parts(entry.level, entry.region)
    if not parts:
        raise GenerateError(f"region {entry.region!r} is not in the region file")
    for _ in range(_MAX_POINT_TRIES):
        part = parts[rng.randrange(len(parts))]
        min_lon, min_lat, max_lon, max_lat = part.bbox
        lon = rng.uniform(min_lon, max_lon)
        lat = rng.uniform(min_lat, max_lat)
        hit = resolve(index, lat, lon)
        if hit is None:
            continue
        country, county = hit
        if entry.level == "County" and county == entry.region:
            return lat, lon
        if entry.level == "Country" and country == entry.region:
            return lat, lon
    raise GenerateError(
        f"could not land a point in {entry.region!r} after {_MAX_POINT_TRIES} tries"
    )


def _text_for(rng: random.Random, positive: bool) -> str:
    opinions = POSITIVE_WORDS if positive else NEGATIVE_WORDS
    tails = POSITIVE_TAILS if positive else NEGATIVE_TAILS
    words = [rng.choice(opinions) for _ in range(rng.randint(1, 3))]
    words += [rng.choice(FILLER_WORDS) for _ in range(rng.randint(2, 5))]
    rng.shuffle(words)
    return " ".join(words) + " " + rng.choice(tails)


def generate(
    index: RegionIndex,
    mix: list[MixEntry],
    seed: int,
    out_path: str | Path,
    start: datetime,
    duration_seconds: int = 86_400,
) -> int:
    """Write a synthetic raw table in place of out_path; returns the record count.

    Every setting, the last record's stamp included, is checked before
    anything is written.
    """
    if start.tzinfo is None:
        raise GenerateError("start time must be timezone-aware")
    if duration_seconds <= 0:
        raise GenerateError("duration must be positive")
    total = sum(entry.positive + entry.negative for entry in mix)
    if total == 0:
        raise GenerateError("mix adds up to zero tweets")
    step = duration_seconds / total
    try:  # stamps only grow, so the first and last bound them all
        first = start.astimezone(timezone.utc)
        (start + timedelta(seconds=int((total - 1) * step))).astimezone(timezone.utc)
    except OverflowError:
        raise GenerateError(f"a corpus of {duration_seconds} s from {start.isoformat()} "
                            "leaves the years 1 to 9999") from None
    if first.year < MIN_YEAR:  # parse refuses every record stamped before it
        raise GenerateError(f"start {start.isoformat()} is before the year {MIN_YEAR}")

    rng = random.Random(seed)
    jobs: list[tuple[MixEntry, bool]] = []
    for entry in mix:
        jobs.extend((entry, True) for _ in range(entry.positive))
        jobs.extend((entry, False) for _ in range(entry.negative))
    rng.shuffle(jobs)

    with staged(out_path) as staging, staging.open("w", encoding="utf-8", newline="") as fh:
        for i, (entry, positive) in enumerate(jobs):
            stamp = start + timedelta(seconds=int(i * step))
            lat, lon = _point_in(rng, index, entry)
            record = {
                "id_str": f"gen{i:08d}",
                "created_at": _classic_time(stamp),
                "coordinates": {
                    "type": "Point",
                    "coordinates": [round(lon, 6), round(lat, 6)],
                },
                "text": _text_for(rng, positive),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return total
