"""Seeded inputs for the benchmark workloads.

Everything here runs before any timing starts.  A workload's inputs are
a region grid, a lexicon, an optional naive Bayes model, an optional
pre-filled raw table, and the byte stream that is fed to `collect` in
chunks cut at seeded byte offsets.  Next to the files, the builder keeps
its own record of every raw line: the fate it planted (accepted into a
county, or rejected as no_geo, malformed or unresolved) and, for
accepted lines, how many positive and negative opinion words it
carries.  The output checks compare the program against that record, so
the expected answer never comes from the code under test.

`gencorpus.generate` makes the base records; the builder then adds
noise lines, rewrites texts to tweet shape, and writes the synthetic
lexicon and the distantly trained model.  The same seed always gives the
same bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import string
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from geosent import bundled
from geosent.classifier import distant_label, save_model, train
from geosent.gencorpus import MixEntry, generate
from geosent.georesolve import load_regions

DAY = 86_400
HOUR = 3_600
START = datetime(2013, 7, 22, tzinfo=timezone.utc)
COUNTRY = "gridland"

ACCEPTED = "accepted"
NO_GEO = "no_geo"
MALFORMED = "malformed"
UNRESOLVED = "unresolved"
REJECTS = (NO_GEO, MALFORMED, UNRESOLVED)

# The benchmark's own copy of the words gencorpus plants.  A generated
# text with any other word is refused, so a generator change shows up as
# an input mismatch and the expected counts stay independent of it.
POSITIVE = frozenset({"happy", "joy", "love", "great", "excited", "wonderful"})
NEGATIVE = frozenset({"sad", "awful", "gloomy", "worst", "terrible"})
FILLER = frozenset({
    "the", "royal", "baby", "day", "today", "news",
    "crowd", "street", "morning", "waiting", "here", "now",
})
TAILS = frozenset({":)", ":D", "=)", ":(", ":'(", "=("})

# contraction -> the Word tokens the tokenizer splits it into
CONTRACTIONS = {
    "can't": ("ca", "n't"), "don't": ("do", "n't"), "it's": ("it", "'s"),
    "we're": ("we", "'re"), "they've": ("they", "'ve"), "I'll": ("I", "'ll"),
    "you'd": ("you", "'d"), "I'm": ("I", "'m"),
}
TRAILING_PUNCT = ("!", "!!", "?", "...", ",", "!?")

# collect calls per repetition: enough that ten calls lie beyond the p99
COLLECT_CALLS = 1_000

# Noise shares of all raw lines, per planted reason.  Bad JSON and bad
# created_at are both malformed.
NOISE_SHARES = {"no_geo": 0.04, "outside_map": 0.03, "bad_json": 0.02, "bad_created_at": 0.02}
NOISE_FATES = {"no_geo": NO_GEO, "outside_map": UNRESOLVED,
               "bad_json": MALFORMED, "bad_created_at": MALFORMED}

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


class InputError(Exception):
    """The generated inputs are not what the benchmark expects."""


@dataclass(frozen=True)
class Line:
    """One raw line and the fate planted for it."""

    payload: bytes
    fate: str
    tweet_id: str | None = None
    county: str | None = None
    stamp: datetime | None = None
    pos: int = 0
    neg: int = 0


@dataclass
class Inputs:
    """Files and expectations for one workload at one seed."""

    cross_threads: int | None  # an untimed run at this worker count must give the same bytes
    regions: Path
    lexicon: Path
    model: Path | None
    prefill: Path | None
    stream: Path
    cuts: list[int]
    lines: list[Line]
    window: tuple[datetime, datetime]
    pipeline: dict[str, str]
    descriptors: dict = field(default_factory=dict)

    def file_hashes(self) -> dict[str, str]:
        """sha256 of every input the program reads, plus the chunk cuts."""
        files = {"regions": self.regions, "lexicon": self.lexicon,
                 "model": self.model, "prefill": self.prefill, "stream": self.stream}
        out = {name: sha256_file(path) for name, path in files.items() if path is not None}
        out["cuts"] = hashlib.sha256(json.dumps(self.cuts).encode()).hexdigest()
        return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grid_regions(side: int) -> dict:
    """side x side unit-square counties inside one square country.

    County names encode the lower-left corner, so the county of a point
    is floor(lon), floor(lat): the half-open border rule of the
    resolver sends a point on a shared edge to the county east or north
    of it.
    """
    def square(x0, y0, x1, y1):
        return [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]

    features = [
        {"type": "Feature",
         "properties": {"region_id": f"c-{i:02d}-{j:02d}", "name": county_name(i, j),
                        "level": "County", "parent": COUNTRY},
         "geometry": {"type": "Polygon", "coordinates": square(i, j, i + 1, j + 1)}}
        for i in range(side) for j in range(side)
    ]
    features.append(
        {"type": "Feature",
         "properties": {"region_id": "c-grid", "name": COUNTRY, "level": "Country", "parent": ""},
         "geometry": {"type": "Polygon", "coordinates": square(0, 0, side, side)}})
    return {"type": "FeatureCollection", "features": features}


def county_name(i: int, j: int) -> str:
    return f"county-{i:02d}-{j:02d}"


def county_of(lat: float, lon: float, side: int) -> str | None:
    """The grid county holding a point, or None when it is off the grid."""
    i, j = math.floor(lon), math.floor(lat)
    if 0 <= i < side and 0 <= j < side:
        return county_name(i, j)
    return None


def classic_time(stamp: datetime) -> str:
    stamp = stamp.astimezone(timezone.utc)
    return (f"{_DAYS[stamp.weekday()]} {_MONTHS[stamp.month - 1]} {stamp.day:02d} "
            f"{stamp:%H:%M:%S} +0000 {stamp.year}")


def _dump(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8")


def _split_generated(text: str) -> tuple[list[str], str]:
    """Words and emoticon tail of one gencorpus text; refuses anything new."""
    *words, tail = text.split(" ")
    unknown = [w for w in words if w not in POSITIVE | NEGATIVE | FILLER]
    if unknown or tail not in TAILS or not words:
        raise InputError(f"gencorpus text {text!r} uses words the benchmark does not know")
    return words, tail


def _polarity(word: str) -> tuple[int, int]:
    low = word.lower()
    return int(low in POSITIVE), int(low in NEGATIVE)


# ---------------------------------------------------------------------------
# tweet-shaped texts


def _pseudo_words(rng: random.Random, count: int, blocked: list[tuple[str, bool]]) -> list[str]:
    """Distinct lowercase non-words that no blocked lexicon entry matches."""
    known = POSITIVE | NEGATIVE | FILLER | {p.lower() for ps in CONTRACTIONS.values() for p in ps}
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
        if word in seen or word in known or _matches(word, blocked):
            continue
        seen.add(word)
        out.append(word)
    return out


def _matches(text: str, entries: list[tuple[str, bool]]) -> bool:
    return any(text.startswith(p) if wild else text == p for p, wild in entries)


@dataclass
class _Tweetifier:
    """Rewrites plain generator texts into tweet length and shape."""

    rng: random.Random
    pool: list[str]
    pieces: set[str] = field(default_factory=set)  # lowercase Word texts and hashtag bodies

    def text(self, words: list[str], tail: str) -> tuple[str, int, int, int]:
        """Returns (text, positive words, negative words, token count)."""
        rng = self.rng
        body = list(words) + rng.sample(self.pool, rng.randint(4, 8))
        if rng.random() < 0.5:
            body.append(rng.choice(sorted(CONTRACTIONS)))
        rng.shuffle(body)
        pos = neg = tokens = 0
        out: list[str] = []
        for _ in range(rng.choice((0, 0, 1, 2))):
            out.append(f"@{rng.choice(self.pool)}_{rng.randint(1, 999)}")
            tokens += 1
        for k, word in enumerate(body):
            split = CONTRACTIONS.get(word, (word,))
            self.pieces.update(p.lower() for p in split)
            p, n = _polarity(word)
            pos, neg, tokens = pos + p, neg + n, tokens + len(split)
            if k == 0 and rng.random() < 0.3:
                word = word[0].upper() + word[1:]
            if rng.random() < 0.25:
                punct = rng.choice(TRAILING_PUNCT)
                word += punct
                tokens += len(punct)
            out.append(word)
        out.append(tail)
        tokens += 1
        for _ in range(rng.choice((0, 1, 1, 2))):
            tag = rng.choice(sorted(POSITIVE | NEGATIVE)) if rng.random() < 0.3 else rng.choice(self.pool)
            self.pieces.add(tag)
            p, n = _polarity(tag)
            pos, neg, tokens = pos + p, neg + n, tokens + 1
            out.append("#" + tag)
        if rng.random() < 0.4:
            out.append("https://t.co/" + "".join(rng.choices(string.ascii_letters + string.digits, k=10)))
            tokens += 1
        return " ".join(out), pos, neg, tokens


# ---------------------------------------------------------------------------
# building blocks


def _write_grid(path: Path, side: int) -> Path:
    path.write_text(json.dumps(grid_regions(side)), encoding="utf-8")
    return path


def _generated(index, mix: list[MixEntry], seed: int, path: Path,
               start: datetime) -> list[tuple[bytes, dict]]:
    generate(index, mix, seed, path, start, DAY)
    return [(line, json.loads(line)) for line in path.read_bytes().splitlines()]


def _accepted_line(payload: bytes, record: dict, side: int, pos: int, neg: int) -> Line:
    lon, lat = record["coordinates"]["coordinates"]
    county = county_of(lat, lon, side)
    stamp = datetime.strptime(record["created_at"], "%a %b %d %H:%M:%S %z %Y")
    return Line(payload=payload, fate=ACCEPTED if county else UNRESOLVED,
                tweet_id=record["id_str"], county=county, stamp=stamp, pos=pos, neg=neg)


def _plain_lines(records: list[tuple[bytes, dict]], side: int) -> tuple[list[Line], int]:
    """Generator records kept byte for byte; returns lines and token total."""
    lines, tokens = [], 0
    for payload, record in records:
        words, _ = _split_generated(record["text"])
        pos = sum(w in POSITIVE for w in words)
        neg = sum(w in NEGATIVE for w in words)
        tokens += len(words) + 1
        lines.append(_accepted_line(payload, record, side, pos, neg))
    return lines, tokens


def _noise_line(rng: random.Random, kind: str, n: int, start: datetime, side: int) -> Line:
    stamp = start + timedelta(seconds=rng.randrange(DAY))
    record = {"id_str": f"noise{n:07d}", "created_at": classic_time(stamp),
              "coordinates": {"type": "Point", "coordinates": [0.5, 0.5]},
              "text": "waiting for news here :)"}
    if kind == "no_geo":
        if rng.random() < 0.5:
            del record["coordinates"]
        else:
            record["coordinates"] = None
        payload = _dump(record)
    elif kind == "outside_map":
        lon = round(rng.uniform(side + 1.0, 179.0), 6)
        lat = round(rng.uniform(-89.0, 89.0), 6)
        record["coordinates"]["coordinates"] = [lon, lat]
        payload = _dump(record)
    elif kind == "bad_json":
        whole = _dump(record)
        if rng.random() < 0.5:
            payload = whole[: rng.randrange(1, len(whole) - 1)]
        else:
            payload = whole[:12] + b"\xff\xfe" + whole[12:]
    else:
        record["created_at"] = rng.choice((
            "Mon Jul 32 10:00:00 +0000 2013", "Mon Foo 22 10:00:00 +0000 2013",
            "Mon Jul 22 25:61:00 +0000 2013", "yesterday", "2013-13-45T00:00:00Z",
        ))
        payload = _dump(record)
    return Line(payload=payload, fate=NOISE_FATES[kind],
                tweet_id=None if kind == "bad_json" else record["id_str"])


def _with_noise(rng: random.Random, good: list[Line], start: datetime, side: int) -> list[Line]:
    """Scatter noise lines among good ones at seeded positions.

    Shares are of the returned total; good lines keep their order.
    """
    total = round(len(good) / (1.0 - sum(NOISE_SHARES.values())))
    noise: list[Line] = []
    for kind, share in NOISE_SHARES.items():
        noise += [_noise_line(rng, kind, len(noise) + k, start, side)
                  for k in range(round(total * share))]
    rng.shuffle(noise)
    slots = set(rng.sample(range(len(good) + len(noise)), len(noise)))
    good_it, noise_it = iter(good), iter(noise)
    return [next(noise_it) if k in slots else next(good_it)
            for k in range(len(good) + len(noise))]


def _write_lines(path: Path, lines: list[Line]) -> bytes:
    data = b"".join(line.payload + b"\n" for line in lines)
    path.write_bytes(data)
    return data


def _cuts(rng: random.Random, size: int, calls: int) -> list[int]:
    """Chunk boundaries 0 = c0 < c1 < ... < c_calls = size at seeded bytes.

    Cut k lies within a quarter slot of k * size / calls, so chunks stay
    between half a slot and one and a half slots long: the largest chunks,
    which set the p99 call latency, are alike from seed to seed.
    """
    slot = size / calls
    return [0] + [round(slot * (k + rng.uniform(-0.25, 0.25))) for k in range(1, calls)] + [size]


def _uniform_mix(side: int, per_county: int) -> list[MixEntry]:
    half = per_county // 2
    return [MixEntry("County", county_name(i, j), half, per_county - half)
            for i in range(side) for j in range(side)]


def _bundled_lexicon() -> list[tuple[str, int]]:
    entries = []
    for raw in bundled.lexicon_path().read_text(encoding="utf-8").splitlines():
        if raw.strip() and not raw.startswith("#"):
            pattern, strength = raw.split("\t")
            entries.append((pattern, int(strength)))
    return entries


def _synthetic_lexicon(rng: random.Random, entries: int, wild_share: float,
                       pieces: set[str]) -> list[tuple[str, int]]:
    """Random patterns that match no word or hashtag body the texts contain."""
    out: list[tuple[str, int]] = []
    taken: set[str] = set()
    n_wild = round(entries * wild_share)
    while len(out) < entries:
        wild = len(out) < n_wild
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4 if wild else 3, 10)))
        if word in taken:
            continue
        if any(p.startswith(word) for p in pieces) if wild else word in pieces:
            continue
        taken.add(word)
        out.append((word + "*" if wild else word, rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))))
    rng.shuffle(out)
    return out


def _write_lexicon(path: Path, entries: list[tuple[str, int]]) -> Path:
    path.write_text("".join(f"{p}\t{s}\n" for p, s in entries), encoding="utf-8")
    return path


def _check_lexicon_safe(entries: list[tuple[str, int]], pieces: set[str]) -> None:
    """Planted opinion words match with their sign; every other piece misses.

    Lookup follows the documented lexicon rule: an exact entry first,
    then the longest matching wildcard prefix.
    """
    exact = {p: s for p, s in entries if not p.endswith("*")}
    wild = sorted(((p[:-1], s) for p, s in entries if p.endswith("*")), key=lambda e: -len(e[0]))
    for piece in pieces | POSITIVE | NEGATIVE:
        strength = exact.get(piece)
        if strength is None:
            strength = next((s for prefix, s in wild if piece.startswith(prefix)), None)
        sign = None if strength is None else strength > 0
        want = True if piece in POSITIVE else False if piece in NEGATIVE else None
        if sign != want:
            raise InputError(f"lexicon gives {piece!r} strength {strength}, planted {want}")


# ---------------------------------------------------------------------------
# workloads


def build_score_heavy(seed: int, workdir: Path, tweets: int = 2_000,
                      train_tweets: int = 2_000, lexicon_entries: int = 2_000) -> Inputs:
    """Tweet-shaped texts, a large lexicon and a trained model on a 10x10 grid."""
    side = 10
    rng = random.Random(f"score-heavy:{seed}")
    regions = _write_grid(workdir / "regions.geojson", side)
    index = load_regions(regions)
    bundled_entries = _bundled_lexicon()
    blocked = [(p.rstrip("*"), p.endswith("*")) for p, _ in bundled_entries]
    shaper = _Tweetifier(rng, _pseudo_words(rng, 3_000, blocked))
    per_county = tweets // (side * side)

    records = _generated(index, _uniform_mix(side, per_county), seed, workdir / "gen.jsonl", START)
    lines, tokens = [], 0
    for _, record in records:
        text, pos, neg, n_tok = shaper.text(*_split_generated(record["text"]))
        record["text"] = text
        tokens += n_tok
        lines.append(_accepted_line(_dump(record), record, side, pos, neg))

    training = _generated(index, _uniform_mix(side, train_tweets // (side * side)),
                          seed + 1_000_003, workdir / "train.jsonl", START - timedelta(days=1))
    texts = [shaper.text(*_split_generated(r["text"]))[0] for _, r in training]
    model = train(distant_label(texts))
    model_path = workdir / "model.nb"
    save_model(model, model_path)

    lexicon = bundled_entries + _synthetic_lexicon(rng, lexicon_entries, 0.1,
                                                   shaper.pieces | POSITIVE | NEGATIVE)
    _check_lexicon_safe(lexicon, shaper.pieces)
    stream = workdir / "stream.jsonl"
    data = _write_lines(stream, lines)
    return Inputs(
        cross_threads=2, regions=regions,
        lexicon=_write_lexicon(workdir / "lexicon.tsv", lexicon),
        model=model_path, prefill=None, stream=stream,
        cuts=_cuts(rng, len(data), COLLECT_CALLS),
        lines=lines, window=(START, START + timedelta(days=1)),
        pipeline={"approaches": "dictionary,ml", "levels": "country,county",
                  "bucket": str(DAY), "line_bucket": str(HOUR), "line_region": COUNTRY,
                  "kml": "1", "tilemap": "1", "line": "1"},
        descriptors={"counties": side * side, "tokens_per_tweet": tokens / len(lines),
                     "lexicon_entries": len(lexicon),
                     "lexicon_wildcards": sum(p.endswith("*") for p, _ in lexicon),
                     "model_vocabulary": len(model.vocabulary),
                     "training_tweets": len(texts)},
    )


def _heavy_tail(counties: int, tweets: int) -> list[int]:
    """Zipf-like volumes (exponent 1), each >= 1, in file order of the counties.

    The cities sit at the same counties for every seed: resolve cost
    depends on how far down the county list a point's county is, so a
    seeded placement would make the work itself change from seed to seed.
    """
    weights = [1.0 / rank for rank in range(1, counties + 1)]
    scale = (tweets - counties) / sum(weights)
    volumes = [1 + int(w * scale) for w in weights]
    random.Random("resolve-heavy cities").shuffle(volumes)
    return volumes


def build_resolve_heavy(seed: int, workdir: Path, tweets: int = 6_000) -> Inputs:
    """3,136 counties with city-like volumes, plain texts and every reject path."""
    side = 56
    rng = random.Random(f"resolve-heavy:{seed}")
    regions = _write_grid(workdir / "regions.geojson", side)
    index = load_regions(regions)
    mix = []
    for k, volume in enumerate(_heavy_tail(side * side, tweets)):
        pos = sum(rng.random() < 0.5 for _ in range(volume))
        mix.append(MixEntry("County", county_name(k // side, k % side), pos, volume - pos))
    records = _generated(index, mix, seed, workdir / "gen.jsonl", START)
    good, tokens = _plain_lines(records, side)
    lines = _with_noise(rng, good, START, side)
    stream = workdir / "stream.jsonl"
    data = _write_lines(stream, lines)
    lexicon = _bundled_lexicon()
    return Inputs(
        cross_threads=None, regions=regions,
        lexicon=_write_lexicon(workdir / "lexicon.tsv", lexicon),
        model=None, prefill=None, stream=stream,
        cuts=_cuts(rng, len(data), COLLECT_CALLS),
        lines=lines, window=(START, START + timedelta(days=1)),
        pipeline={"approaches": "dictionary", "levels": "country,county",
                  "bucket": str(DAY), "kml": "1", "tilemap": "1"},
        descriptors={"counties": side * side, "tokens_per_tweet": tokens / len(good),
                     "lexicon_entries": len(lexicon),
                     "lexicon_wildcards": sum(p.endswith("*") for p, _ in lexicon),
                     "largest_county_tweets": max(e.positive + e.negative for e in mix)},
    )


def build_append_stream(seed: int, workdir: Path, prefill_tweets: int = 6_000,
                        stream_tweets: int = 3_000) -> Inputs:
    """Yesterday's records already stored; today's arrive as a torn stream."""
    side = 10
    rng = random.Random(f"append-stream:{seed}")
    regions = _write_grid(workdir / "regions.geojson", side)
    index = load_regions(regions)
    day1 = _generated(index, _uniform_mix(side, prefill_tweets // (side * side)),
                      seed, workdir / "day1.jsonl", START)
    day2 = _generated(index, _uniform_mix(side, stream_tweets // (side * side)),
                      seed + 1_000_003, workdir / "day2.jsonl", START + timedelta(days=1))
    old, old_tokens = _plain_lines(day1, side)
    new, new_tokens = _plain_lines(day2, side)
    new = _with_noise(rng, new, START + timedelta(days=1), side)
    prefill = workdir / "prefill.jsonl"
    _write_lines(prefill, old)
    stream = workdir / "stream.jsonl"
    data = _write_lines(stream, new)
    lexicon = _bundled_lexicon()
    return Inputs(
        cross_threads=None, regions=regions,
        lexicon=_write_lexicon(workdir / "lexicon.tsv", lexicon),
        model=None, prefill=prefill, stream=stream, cuts=_cuts(rng, len(data), COLLECT_CALLS),
        lines=old + new, window=(START, START + timedelta(days=2)),
        pipeline={"approaches": "dictionary", "levels": "country,county",
                  "bucket": str(HOUR), "line_bucket": str(HOUR), "line_region": COUNTRY,
                  "tilemap": "1", "line": "1"},
        descriptors={"counties": side * side, "prefill_lines": len(old),
                     "tokens_per_tweet": (old_tokens + new_tokens) / (len(day1) + len(day2)),
                     "lexicon_entries": len(lexicon),
                     "lexicon_wildcards": sum(p.endswith("*") for p, _ in lexicon)},
    )


BUILDERS = {
    "score-heavy": build_score_heavy,
    "resolve-heavy": build_resolve_heavy,
    "append-stream": build_append_stream,
}


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write one workload's inputs under workdir and describe them."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = BUILDERS[workload](seed, workdir)
    for scratch in ("gen.jsonl", "train.jsonl", "day1.jsonl", "day2.jsonl"):
        (workdir / scratch).unlink(missing_ok=True)
    fates = [line.fate for line in inputs.lines]
    inputs.descriptors.update(
        lines=len(fates),
        collect_calls=len(inputs.cuts) - 1,
        **{f"share_{reason}": fates.count(reason) / len(fates) for reason in REJECTS},
    )
    return inputs


def canary_hashes(workdir: Path) -> dict[str, str]:
    """sha256s of small fixed inputs, whatever the run's seed.

    A small `score-heavy` build at a fixed seed hashes the `gencorpus`
    records, the model that `distant_label`, `train` and `save_model`
    make from them, and the bundled lexicon every workload's lexicon
    includes.  The benchmark compares these with its manifest before
    trusting a timing, so a change to any input built by the code under
    test shows as an input mismatch at every seed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    built = build_score_heavy(8, workdir, tweets=200, train_tweets=200, lexicon_entries=300)
    return {"gencorpus": sha256_file(workdir / "gen.jsonl"), "model": sha256_file(built.model),
            "bundled_lexicon": sha256_file(bundled.lexicon_path())}
