"""Independent reference implementations used only by the tests.

Most of this is written from first principles with exact arithmetic
(fractions, or high-precision decimals where a square root is needed),
deliberately sharing no code with the package, so agreement between the
two is meaningful.  The raw-table parser works one line at a time from
the package's public record parser, resolver, row check and T2 line
format, so it pins the pass's blocks, batches and merging, not those.
The rest keeps earlier package code that a rewrite
replaced: one T2 scan per aggregation spec, the stand-alone
normalisation helper, the lexicon's linear wildcard scan, the analysers'
scoring of Token lists (match_token per token, Naive Bayes summed per
class), the feature scan of the whole text in one findall, the region
resolver's scan of every polygon, the region loader that held the whole
decoded file, the per-chunk tokenizer, the tile-map
strip packer that re-measured every strip, the timedelta bucket rule,
the score-table reader that checked UTF-8, the rows and the torn tail
in three passes, the raw-table appender through an unbuffered file object,
the strftime instant formatter, the colour ramp built from a generator
of rounded channels, and the three renderers as they were drawn through
ElementTree.
Those are references for differential tests; they reuse the package's
row parser, tokenizer, row type, crossing count and the renderers'
number formatting and layout, because what they pin is the scan, fold
and serialisation, not those layers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
import re
import string
from datetime import timedelta, timezone
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree as ET

from geosent.classifier import LABELS, NEGATIVE, POSITIVE
from geosent.estimator import EstimatorError, compute_pss
from geosent.georesolve import GeoError, RegionIndex, RegionPolygon, _crossings, resolve
from geosent.ingest import MALFORMED, NO_GEO, CollectorStats, parse_record
from geosent.lexicon import DictionaryAnalyser, match_token
from geosent.store import (LEVELS, SCORE_COLUMNS, UNASSIGNED, ParsedTweet, ScoreRow, StoreError,
                           _field_text, _finite, _format_score, _parse_parsed_line, _parse_score,
                           _read_text, format_instant, format_parsed_line, parse_instant, staged)
from geosent import emoticons, store
from geosent.tokenizer import _SCANNER, EMOTICON, HASHTAG, MENTION, PUNCT, URL, WORD, Token, tokenize
from geosent.visualize import (
    _FALLBACK_LINE_COLOR,
    HEIGHT,
    HIGH_COLOR,
    KML_NS,
    LINE_COLORS,
    LOW_COLOR,
    MAX_RATIO,
    SVG_NS,
    UNDEFINED_GREY,
    WIDTH,
    VisualizeError,
    _fmt4_or_na,
    _pack_strips,
    _ring_text,
    _single_bucket,
    kml_color,
    svg_color,
)

getcontext().prec = 50


# ---------------------------------------------------------------------------
# a raw table parsed one line at a time


def parse_raw_table(data: bytes, index) -> tuple[bytes, CollectorStats]:
    """The T2 bytes and line counts for the bytes of a raw table.

    Lines split on LF only, and a last line without its LF still counts.
    Each line is parsed without its LF, resolved, and kept only if its
    row validates.
    """
    stats = CollectorStats()
    out = []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    for line in lines:
        stats.lines_read += 1
        got = parse_record(line)
        if got == NO_GEO:
            stats.rejected_no_geo += 1
            continue
        if got == MALFORMED:
            stats.rejected_malformed += 1
            continue
        where = resolve(index, got.lat, got.lon)
        if where is None:
            stats.rejected_unresolved += 1
            continue
        row = ParsedTweet(got.tweet_id, got.timestamp, got.lat, got.lon, *where, got.text)
        try:
            row.validate()
        except ValueError:
            stats.rejected_malformed += 1
            continue
        stats.accepted += 1
        out.append(format_parsed_line(row).encode("utf-8") + b"\n")
    return b"".join(out), stats


# ---------------------------------------------------------------------------
# the raw-table appender through an unbuffered file object and a context manager


def _torn(fh) -> bool:
    """Whether a binary file's last line lacks its LF: a write cut short."""
    if fh.seek(0, os.SEEK_END) == 0:
        return False
    fh.seek(-1, os.SEEK_END)
    return fh.read(1) != b"\n"


def write_all(fh: io.RawIOBase, data: bytes) -> None:
    """Write data to an unbuffered file in one write call, repeated only if the
    OS writes part of it; a write that takes nothing raises OSError, not a spin."""
    view = memoryview(data)
    while view:
        written = fh.write(view)
        if not written:  # 0, or None from a non-blocking file
            raise OSError(f"{fh.name}: write returned {written!r} with {len(view)} bytes left")
        view = view[written:]


@contextlib.contextmanager
def open_raw(path):
    """Yield a T1 file opened unbuffered to append, its torn last line ended first."""
    with open(path, "a+b", buffering=0) as fh:
        if _torn(fh):
            write_all(fh, b"\n")
        yield fh


def collect_through_file(source, raw_path) -> tuple[CollectorStats, bytes]:
    """ingest.collect before T1 was appended through a bare descriptor."""
    stats = CollectorStats()
    fragment: list[bytes] = []
    with open_raw(raw_path) as table:
        while chunk := source.read(65536):
            kept = chunk.rfind(b"\n") + 1
            if kept:
                write_all(table, b"".join([*fragment, chunk[:kept]]))
                stats.lines_read += chunk.count(b"\n")
                fragment.clear()
            fragment.append(chunk[kept:])
    return stats, b"".join(fragment)


# ---------------------------------------------------------------------------
# the score-table reader in three passes: UTF-8, then the csv rows, then the torn tail


def check_utf8_scores(table_path) -> None:
    """Raise StoreError naming the file and line unless a score table is UTF-8."""
    lines = 0
    with open(table_path, "rb") as fh:
        # each block ends at an LF, so no character is cut in two
        while block := fh.read(1 << 20) + fh.readline():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = lines + block.count(b"\n", 0, exc.start) + 1
                raise StoreError(f"scores file {table_path} is not UTF-8 text: "
                                 f"line {line}: {exc.reason}") from None
            lines += block.count(b"\n")


def read_scores_three_pass(table_path) -> list[ScoreRow]:
    """store.read_scores before one reader shared the table's checks with an append."""
    check_utf8_scores(table_path)
    rows = []
    with open(table_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SCORE_COLUMNS):
            raise StoreError(f"{table_path}: unexpected scores header {header!r}")
        for record in reader:
            if len(record) != len(SCORE_COLUMNS):
                raise StoreError(f"line {reader.line_num}: scores row has {len(record)} fields")
            try:
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
            except ValueError as err:
                raise StoreError(f"line {reader.line_num}: {err}") from None
            problem = row.problem()
            if problem:
                raise StoreError(f"line {reader.line_num}: {problem}")
            rows.append(row)
        last_line = reader.line_num
    with open(table_path, "rb") as fh:
        if store._torn(fh.fileno()):
            raise StoreError(f"line {last_line}: row cut short, the table does not end in a newline")
    return rows


# ---------------------------------------------------------------------------
# point in polygon, winding number rule


def _is_left(x1, y1, x2, y2, px, py):
    return (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)


def winding_number(ring, lat, lon):
    """Winding count of a ring (list of (lon, lat)) around a point."""
    wn = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if y1 <= lat:
            if y2 > lat and _is_left(x1, y1, x2, y2, lon, lat) > 0:
                wn += 1
        elif y2 <= lat and _is_left(x1, y1, x2, y2, lon, lat) < 0:
            wn -= 1
    return wn


def wn_contains(exterior, holes, lat, lon):
    """Inside the exterior and outside every hole, by winding count."""
    if winding_number(exterior, lat, lon) == 0:
        return False
    return all(winding_number(hole, lat, lon) == 0 for hole in holes)


def resolve_linear(index, lat, lon):
    """The pre-grid resolve: every county in file order, then every country."""
    for level in ("County", "Country"):
        for p in index.polygons:
            if p.level != level:
                continue
            min_lon, min_lat, max_lon, max_lat = p.bbox
            if min_lon <= lon <= max_lon and min_lat <= lat <= max_lat:
                if _crossings([p.exterior] + p.holes, lat, lon) % 2 == 1:
                    return (p.parent, p.name) if level == "County" else (p.name, UNASSIGNED)
    return None


# ---------------------------------------------------------------------------
# the region loader that formatted every error's place up front and kept
# the whole decoded document until the last polygon was built

_NOT_A_FIELD = "is not a non-empty JSON string of UTF-8 text without a tab, CR or LF"


def _clean_ring_reference(raw, where):
    if not isinstance(raw, list) or len(raw) < 3:
        raise GeoError(f"{where}: ring must be a list of at least 3 positions")
    ring = []
    for pos in raw:
        if not isinstance(pos, (list, tuple)) or len(pos) < 2:
            raise GeoError(f"{where}: bad position {pos!r}")
        x, y = _finite(pos[0]), _finite(pos[1])
        if x is None or y is None:
            raise GeoError(f"{where}: bad position {pos!r}")
        ring.append((x, y))
    if ring[0] == ring[-1]:
        ring.pop()
    if len(ring) < 3:
        raise GeoError(f"{where}: ring has fewer than 3 distinct vertices")
    return ring


def _polygon_parts_reference(geometry, where):
    gtype = geometry.get("type") if isinstance(geometry, dict) else None
    coords = geometry.get("coordinates") if isinstance(geometry, dict) else None
    if gtype == "Polygon":
        raw_parts = [coords]
    elif gtype == "MultiPolygon":
        raw_parts = coords
    else:
        raise GeoError(f"{where}: unsupported geometry type {gtype!r}")
    if not isinstance(raw_parts, list) or not raw_parts:
        raise GeoError(f"{where}: empty geometry")
    parts = []
    for p, raw_rings in enumerate(raw_parts):
        if not isinstance(raw_rings, list) or not raw_rings:
            raise GeoError(f"{where}: part {p} has no rings")
        parts.append([_clean_ring_reference(r, f"{where} part {p} ring {i}")
                      for i, r in enumerate(raw_rings)])
    return parts


def load_regions_reference(path):
    """The region file read as one document, every place formatted as it is reached."""
    try:
        doc = json.loads(_read_text(path, "region", GeoError))
    except (ValueError, RecursionError) as exc:
        raise GeoError(f"region file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise GeoError(f"region file {path} is not a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list) or not features:
        raise GeoError(f"region file {path} has no features")

    polygons = []
    seen = set()
    first_county = {}
    for i, feature in enumerate(features):
        where = f"region file {path}: feature {i}"
        props = feature.get("properties") if isinstance(feature, dict) else None
        if not isinstance(props, dict):
            raise GeoError(f"{where}: missing properties")
        level = props.get("level")
        if level not in LEVELS:
            raise GeoError(f"{where}: unknown level {level!r}")
        name = _field_text(props.get("name"))
        if not name:
            raise GeoError(f"{where}: region name {props.get('name')!r} {_NOT_A_FIELD}")
        parent = _field_text(props.get("parent")) if level == "County" else ""
        if level == "County":
            if not parent:
                raise GeoError(f"{where}: county {name!r} parent {props.get('parent')!r} {_NOT_A_FIELD}")
            first_county.setdefault(parent, (i, name))
        if name == UNASSIGNED:
            raise GeoError(f"{where}: region name {UNASSIGNED!r} is reserved")
        if (level, name) in seen:
            raise GeoError(f"{where}: duplicate region ({level}, {name})")
        seen.add((level, name))
        for rings in _polygon_parts_reference(feature.get("geometry"), f"{where} ({name})"):
            exterior = rings[0]
            xs = [x for x, _ in exterior]
            ys = [y for _, y in exterior]
            polygons.append(RegionPolygon(name=name, level=level, parent=parent, exterior=exterior,
                                          holes=rings[1:], bbox=(min(xs), min(ys), max(xs), max(ys))))
    for parent, (number, county) in first_county.items():
        if ("Country", parent) not in seen:
            raise GeoError(f"region file {path}: feature {number}: "
                           f"county {county!r} has unknown parent {parent!r}")
    return RegionIndex(polygons)


# ---------------------------------------------------------------------------
# scores


def pss_fraction(pos: int, neg: int) -> Fraction | None:
    if pos == 0 and neg == 0:
        return None
    return Fraction(pos, max(neg, 1))


def npss_fractions(cells: dict) -> dict:
    """cells: name -> (pos, neg); returns name -> exact relative score."""
    scores = {name: pss_fraction(p, n) for name, (p, n) in cells.items()}
    defined = [s for s in scores.values() if s is not None]
    top = max(defined)
    return {name: (None if s is None else s / top) for name, s in scores.items()}


def normalize(group: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Scale a (region, pss) group by its maximum; order is preserved."""
    if not group:
        raise EstimatorError("empty normalisation group")
    if any(pss is None for _, pss in group):
        raise EstimatorError("normalisation group contains undefined scores")
    top = max(pss for _, pss in group)
    if top <= 0.0:
        raise EstimatorError("normalisation group has no positive score")
    return [(region, pss / top) for region, pss in group]


def bucket_of(ts, start, bucket_seconds) -> int:
    """The bucket of an instant in a window starting at start: the timedelta rule."""
    return int((ts - start).total_seconds()) // bucket_seconds


def format_instant_strftime(ts) -> str:
    """store.format_instant before it stopped calling strftime."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def aggregate_per_pass(spec, parsed_path, analyser) -> list[ScoreRow]:
    """One scan of a parsed table for one spec: the pre-fusion aggregate."""
    spec.validate()
    start, end = spec.window
    cells: dict = {}
    with open(parsed_path, encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                row = _parse_parsed_line(line)
            except ValueError:
                continue
            ts = row.timestamp
            if not start <= ts < end:
                continue
            bucket = bucket_of(ts, start, spec.bucket_seconds)
            if spec.level == "Country":
                key = (bucket, row.country, "")
            else:
                key = (bucket, row.county, row.country)
            pos, neg = token_counts(analyser, tokenize(row.text))
            cell = cells.setdefault(key, [0, 0, 0])
            cell[0] += pos
            cell[1] += neg
            cell[2] += 1

    delta = timedelta(seconds=spec.bucket_seconds)
    rows = []
    for (bucket, region, parent), (pos, neg, tweets) in cells.items():
        bucket_start = start + bucket * delta
        rows.append(ScoreRow(
            approach=analyser.approach,
            level=spec.level,
            region=region,
            parent=parent,
            bucket_start=bucket_start,
            bucket_end=min(bucket_start + delta, end),
            pos_count=pos,
            neg_count=neg,
            tweet_count=tweets,
            pss=compute_pss(pos, neg),
            npss=None,
        ))
    groups: dict = {}
    for row in rows:
        if row.pss is not None:
            key = (row.bucket_start, row.parent if spec.norm_scope == "siblings" else None)
            groups.setdefault(key, []).append(row)
    for members in groups.values():
        top = max(row.pss for row in members)
        if top > 0.0:
            for row in members:
                row.npss = row.pss / top
    rows.sort(key=lambda r: (r.bucket_start, r.region))
    return rows


# ---------------------------------------------------------------------------
# scoring Token lists: the analysers before they read features


def token_counts(analyser, tokens):
    """A Dictionary or MachineLearning analyser's counts of one tweet's tokens."""
    if isinstance(analyser, DictionaryAnalyser):
        pos = neg = 0
        for token in tokens:
            strength = match_token(analyser.lexicon, token, analyser.hashtag_match)
            if strength is None:
                continue
            if strength > 0:
                pos += 1
            else:
                neg += 1
        return pos, neg
    return (1, 0) if margin_per_class(analyser.model, token_features(tokens)) >= 0.0 else (0, 1)


def token_features(tokens):
    """The Naive Bayes features of a tokenized text: lowercased words and hashtag bodies."""
    out = []
    for token in tokens:
        if token.kind == WORD:
            out.append(token.text.lower())
        elif token.kind == HASHTAG:
            out.append(token.text[1:].lower())
    return out


def margin_per_class(model, feats):
    """log score(Positive) - log score(Negative), each class's log score summed on its own."""
    total_docs = sum(model.doc_counts.values())
    vocab_size = len(model.vocabulary)
    toks = [t for t in feats if t in model.vocabulary]
    scores = {}
    for label in LABELS:
        score = math.log(model.doc_counts[label]) - math.log(total_docs)
        counts = model.token_counts[label]
        denom = model.totals[label] + vocab_size
        for tok in toks:
            score += math.log((counts.get(tok, 0) + 1) / denom)
        scores[label] = score
    return scores[POSITIVE] - scores[NEGATIVE]


# ---------------------------------------------------------------------------
# the feature scan before the chunk shortcuts


def scan_features_whole_text(text):
    """The Features of a text, from the same scan as tokenize."""
    out = []
    append = out.append
    # findall gives each match's groups in pattern order; a group that
    # took no part in the match is empty
    for _url, _emoticon, _mention, hashtag, _punct, word, contraction, _tail in _SCANNER.findall(text):
        if word:
            append((word.lower(), False))
            if contraction:
                append((contraction.lower(), False))
        elif hashtag:
            append((hashtag[1:].lower(), True))
    return out


# ---------------------------------------------------------------------------
# lexicon matching


def match_token_linear(lexicon, token, hashtag_match=True):
    """The pre-table match_token: exact entry, else the first wildcard in list order."""
    if token.kind == WORD:
        text = token.text
    elif token.kind == HASHTAG and hashtag_match:
        text = token.text[1:]
    else:
        return None
    text = text.lower()
    strength = lexicon.exact.get(text)
    if strength is not None:
        return strength
    for prefix, s in lexicon.wildcards:
        if text.startswith(prefix):
            return s
    return None


# ---------------------------------------------------------------------------
# the per-chunk tokenizer: split on whitespace, then peel each chunk


_ASCII_PUNCT = frozenset(string.punctuation)
_URL_PREFIXES = ("http://", "https://", "www.")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# longest first so ":-)" beats ":-" + ")"
_EMOTICONS = tuple(sorted(emoticons.ALL, key=len, reverse=True))
# longest first so "n't" wins before "'t"-like tails could confuse shorter suffixes
_CONTRACTIONS = ("n't", "'re", "'ve", "'ll", "'s", "'d", "'m")


def _entity_at(chunk):
    lowered = chunk.lower()
    if lowered.startswith(_URL_PREFIXES):
        return Token(chunk, URL)  # a URL runs to the next whitespace
    for emo in _EMOTICONS:
        if chunk.startswith(emo):
            return Token(emo, EMOTICON)
    m = _MENTION_RE.match(chunk)
    if m:
        return Token(m.group(), MENTION)
    m = _HASHTAG_RE.match(chunk)
    if m:
        return Token(m.group(), HASHTAG)
    return None


def _split_word(word):
    lowered = word.lower()
    for suffix in _CONTRACTIONS:
        if lowered.endswith(suffix) and len(word) > len(suffix):
            cut = len(word) - len(suffix)
            return [Token(word[:cut], WORD), Token(word[cut:], WORD)]
    return [Token(word, WORD)]


def _split_chunk(chunk):
    tokens = []
    rest = chunk
    while rest:
        entity = _entity_at(rest)
        if entity is not None:
            tokens.append(entity)
            rest = rest[len(entity.text):]
            continue
        if rest[0] in _ASCII_PUNCT:
            tokens.append(Token(rest[0], PUNCT))
            rest = rest[1:]
            continue
        break
    if not rest:
        return tokens
    cut = len(rest)
    while cut > 0 and rest[cut - 1] in _ASCII_PUNCT:
        cut -= 1
    core, tail = rest[:cut], rest[cut:]
    tokens.extend(_split_word(core))
    if tail:
        if tail in _EMOTICONS:
            tokens.append(Token(tail, EMOTICON))
        else:
            tokens.extend(Token(c, PUNCT) for c in tail)
    return tokens


def tokenize_per_chunk(text):
    """The pre-scanner tokenize: str.split, then each chunk peeled in turn."""
    tokens = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens


# ---------------------------------------------------------------------------
# tile-map strip packing, measuring every tile of a strip for each row


def _strip_worst_all(volumes, total):
    """Worst tile aspect ratio if these volumes share one vertical strip."""
    strip_volume = sum(volumes)
    w = strip_volume / total * WIDTH
    worst = 1.0
    for v in volumes:
        h = v / strip_volume * HEIGHT
        worst = max(worst, w / h if w > h else h / w)
    return worst


def pack_strips_quadratic(rows, total):
    """The pre-running-extremes _pack_strips: O(strip size) work per row."""
    strips = []
    current = []
    for row in rows:
        if current:
            vols = [r.tweet_count for r in current]
            if (
                _strip_worst_all(vols, total) <= MAX_RATIO
                and _strip_worst_all(vols + [row.tweet_count], total) > MAX_RATIO
            ):
                strips.append(current)
                current = [row]
                continue
        current.append(row)
    if current:
        strips.append(current)
    return strips


# ---------------------------------------------------------------------------
# the colour ramp and the three renderers as drawn through ElementTree


log = logging.getLogger("geosent.visualize")


def _half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    if value >= 0:
        return math.floor(value + 0.5)
    return -math.floor(-value + 0.5)


def color_for_generator(npss: float) -> tuple[int, int, int]:
    """The pre-inline color_for: one rounded channel per (lo, hi) pair."""
    if not 0.0 <= npss <= 1.0:
        raise VisualizeError(f"relative score {npss!r} is outside [0, 1]")
    return tuple(_half_up(lo + (hi - lo) * npss) for lo, hi in zip(LOW_COLOR, HIGH_COLOR))


def _fill_for(row: ScoreRow) -> tuple[int, int, int]:
    if row.npss is None:
        log.warning("region %r has no relative score; painting it grey", row.region)
        return UNDEFINED_GREY
    return color_for_generator(row.npss)


def write_xml_etree(root: ET.Element, path: Path) -> None:
    """Write an indented document to path, a staged() sibling of the target."""
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    tree.write(path, encoding="UTF-8", xml_declaration=True)


def _svg_canvas(title: str) -> ET.Element:
    """An SVG root of WIDTH x HEIGHT with a title and a white background."""
    root = ET.Element(
        "svg",
        xmlns=SVG_NS,
        width=str(WIDTH), height=str(HEIGHT),
        viewBox=f"0 0 {WIDTH} {HEIGHT}", version="1.1",
    )
    ET.SubElement(root, "title").text = title
    ET.SubElement(
        root, "rect",
        x="0", y="0", width=str(WIDTH), height=str(HEIGHT), fill="#ffffff",
    )
    return root


def _text(parent: ET.Element, x: str, y: str, text: str, *, size: int, fill: str,
          anchor: str | None = None, baseline: str | None = None) -> None:
    """A sans-serif text label; attributes keep one order, so bytes do too."""
    label = ET.SubElement(parent, "text", x=x, y=y, fill=fill)
    if anchor:
        label.set("text-anchor", anchor)
    if baseline:
        label.set("dominant-baseline", baseline)
    label.set("font-size", str(size))
    label.set("font-family", "sans-serif")
    label.text = text


def _polygon_element(parent: ET.Element, part) -> None:
    poly = ET.SubElement(parent, "Polygon")
    outer = ET.SubElement(poly, "outerBoundaryIs")
    ring = ET.SubElement(outer, "LinearRing")
    ET.SubElement(ring, "coordinates").text = _ring_text(part.exterior)
    for hole in part.holes:
        inner = ET.SubElement(poly, "innerBoundaryIs")
        ring = ET.SubElement(inner, "LinearRing")
        ET.SubElement(ring, "coordinates").text = _ring_text(hole)


def emit_kml_etree(rows, index, out_path) -> None:
    """The ElementTree emit_kml, which rejected a County 'unassigned' row."""
    _single_bucket(rows, "kml")
    shapes = []
    for row in rows:
        parts = index.parts(row.level, row.region)
        if not parts:
            raise VisualizeError(
                f"kml: region {row.region!r} is not in the region file at level {row.level}"
            )
        shapes.append(parts)

    root = ET.Element("kml", xmlns=KML_NS)
    doc = ET.SubElement(root, "Document")
    name = ET.SubElement(doc, "name")
    name.text = (
        f"{rows[0].approach} sentiment, {rows[0].level} level, "
        f"{format_instant(rows[0].bucket_start)}"
    )
    for i, row in enumerate(rows):
        style = ET.SubElement(doc, "Style", id=f"s{i}")
        poly_style = ET.SubElement(style, "PolyStyle")
        ET.SubElement(poly_style, "color").text = kml_color(_fill_for(row))
        ET.SubElement(poly_style, "fill").text = "1"
        ET.SubElement(poly_style, "outline").text = "1"
        line_style = ET.SubElement(style, "LineStyle")
        ET.SubElement(line_style, "color").text = "ff000000"
        ET.SubElement(line_style, "width").text = "1"
    for i, (row, parts) in enumerate(zip(rows, shapes)):
        mark = ET.SubElement(doc, "Placemark")
        ET.SubElement(mark, "name").text = row.region
        ET.SubElement(mark, "description").text = (
            f"pss={_fmt4_or_na(row.pss)} npss={_fmt4_or_na(row.npss)} "
            f"positive={row.pos_count} negative={row.neg_count} tweets={row.tweet_count}"
        )
        ET.SubElement(mark, "styleUrl").text = f"#s{i}"
        if len(parts) == 1:
            _polygon_element(mark, parts[0])
        else:
            multi = ET.SubElement(mark, "MultiGeometry")
            for part in parts:
                _polygon_element(multi, part)
    with staged(out_path) as staging:
        write_xml_etree(root, staging)


def emit_tilemap_etree(rows, out_path) -> None:
    """The ElementTree emit_tilemap."""
    _single_bucket(rows, "tilemap")
    drawable = [row for row in rows if row.tweet_count > 0]
    skipped = len(rows) - len(drawable)
    if skipped:
        log.warning("tilemap: skipped %d regions with no tweets", skipped)
    if not drawable:
        raise VisualizeError("tilemap: every region has zero tweets")
    drawable.sort(key=lambda row: (-row.tweet_count, row.region))
    total = sum(row.tweet_count for row in drawable)

    root = _svg_canvas(f"County sentiment, {format_instant(drawable[0].bucket_start)}")
    x = 0.0
    for strip in _pack_strips(drawable, total):
        strip_volume = sum(row.tweet_count for row in strip)
        strip_width = strip_volume / total * WIDTH
        y = 0.0
        for row in strip:
            tile_height = row.tweet_count / strip_volume * HEIGHT
            group = ET.SubElement(root, "g")
            rect = ET.SubElement(
                group, "rect",
                x=f"{x:.2f}", y=f"{y:.2f}",
                width=f"{strip_width:.2f}", height=f"{tile_height:.2f}",
                fill=svg_color(_fill_for(row)),
                stroke="#ffffff",
            )
            rect.set("stroke-width", "1")
            ET.SubElement(group, "title").text = (
                f"{row.region}: npss={_fmt4_or_na(row.npss)} tweets={row.tweet_count}"
            )
            if strip_width >= 60 and tile_height >= 16:
                _text(group, f"{x + strip_width / 2:.2f}", f"{y + tile_height / 2:.2f}",
                      row.region, size=11, fill="#111111", anchor="middle", baseline="middle")
            y += tile_height
        x += strip_width
    with staged(out_path) as staging:
        write_xml_etree(root, staging)


def emit_linegraph_etree(rows, out_prefix, display_tz_offset_minutes: int = 0):
    """The ElementTree emit_linegraph: an SVG graph plus its CSV twin."""
    if not rows:
        raise VisualizeError("linegraph: no rows to render")
    regions = {row.region for row in rows}
    if len(regions) > 1:
        raise VisualizeError(f"linegraph: rows mix regions {sorted(regions)}")
    levels = {row.level for row in rows}
    if len(levels) > 1:
        raise VisualizeError(f"linegraph: rows mix levels {sorted(levels)}")
    region = rows[0].region

    by_approach: dict[str, dict] = {}
    for row in rows:
        bucket = by_approach.setdefault(row.approach, {})
        if row.bucket_start in bucket:
            raise VisualizeError(
                f"linegraph: duplicate bucket {format_instant(row.bucket_start)} "
                f"for approach {row.approach}"
            )
        bucket[row.bucket_start] = row
    approaches = sorted(by_approach)
    shared = set.intersection(*(set(v) for v in by_approach.values()))
    if not shared:
        raise VisualizeError("linegraph: approaches share no buckets")
    buckets = sorted(shared)

    out_prefix = Path(out_prefix)
    svg_path = out_prefix.with_name(out_prefix.name + ".svg")
    csv_path = out_prefix.with_name(out_prefix.name + ".csv")

    svg = linegraph_svg_etree(region, approaches, by_approach, buckets,
                              display_tz_offset_minutes)
    # neither file is replaced unless both were written
    with staged(svg_path) as svg_staging, staged(csv_path) as csv_staging:
        with csv_staging.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["bucket_start", "region", "approach", "pss", "npss", "tweet_count"])
            for bucket in buckets:
                for approach in approaches:
                    row = by_approach[approach][bucket]
                    writer.writerow([format_instant(bucket), region, approach,
                                     _format_score(row.pss), _format_score(row.npss),
                                     row.tweet_count])
        write_xml_etree(svg, svg_staging)
    return svg_path, csv_path


def linegraph_svg_etree(
    region: str,
    approaches: list[str],
    by_approach: dict[str, dict],
    buckets: list,
    display_tz_offset_minutes: int,
) -> ET.Element:
    left, right, top, bottom = 70, 30, 50, 80
    plot_w = WIDTH - left - right
    plot_h = HEIGHT - top - bottom

    top_score = 0.0
    for approach in approaches:
        for bucket in buckets:
            row = by_approach[approach][bucket]
            if row.pss is not None:
                top_score = max(top_score, row.pss)
    if top_score == 0.0:
        top_score = 1.0
    y_max = top_score * 1.05

    def x_of(i: int) -> float:
        if len(buckets) == 1:
            return left + plot_w / 2
        span = (buckets[-1] - buckets[0]).total_seconds()
        return left + (buckets[i] - buckets[0]).total_seconds() / span * plot_w

    def y_of(score: float) -> float:
        return top + plot_h - score / y_max * plot_h

    root = _svg_canvas(f"Sentiment over time, {region}")
    _text(root, f"{WIDTH / 2:.2f}", "28", f"{region}: positive-to-negative score per bucket",
          size=16, fill="#111111", anchor="middle")

    axes = ET.SubElement(root, "g")
    axes.set("stroke", "#333333")
    axes.set("stroke-width", "1")
    ET.SubElement(
        axes, "line",
        x1=str(left), y1=str(top), x2=str(left), y2=str(top + plot_h),
    )
    ET.SubElement(
        axes, "line",
        x1=str(left), y1=str(top + plot_h), x2=str(left + plot_w), y2=str(top + plot_h),
    )

    for k in range(5):
        value = y_max * k / 4
        y = y_of(value)
        grid = ET.SubElement(
            root, "line",
            x1=str(left), y1=f"{y:.2f}", x2=str(left + plot_w), y2=f"{y:.2f}",
            stroke="#dddddd",
        )
        grid.set("stroke-width", "1")
        _text(root, str(left - 8), f"{y + 4:.2f}", f"{value:.2f}",
              size=11, fill="#333333", anchor="end")

    shift = timedelta(minutes=display_tz_offset_minutes)
    step = max(1, math.ceil(len(buckets) / 8))
    for i in range(0, len(buckets), step):
        x = x_of(i)
        mark = ET.SubElement(
            root, "line",
            x1=f"{x:.2f}", y1=str(top + plot_h), x2=f"{x:.2f}", y2=str(top + plot_h + 5),
            stroke="#333333",
        )
        mark.set("stroke-width", "1")
        _text(root, f"{x:.2f}", str(top + plot_h + 22),
              (buckets[i] + shift).strftime("%m-%d %H:%M"),
              size=11, fill="#333333", anchor="middle")

    for slot, approach in enumerate(approaches):
        color = LINE_COLORS.get(approach, _FALLBACK_LINE_COLOR)
        points = []
        for i, bucket in enumerate(buckets):
            row = by_approach[approach][bucket]
            if row.pss is None:
                continue
            points.append(f"{x_of(i):.2f},{y_of(row.pss):.2f}")
        if points:
            line = ET.SubElement(root, "polyline", points=" ".join(points))
            line.set("fill", "none")
            line.set("stroke", color)
            line.set("stroke-width", "2")
        key_y = top + 16 * slot
        swatch = ET.SubElement(
            root, "line",
            x1=str(left + plot_w - 150), y1=f"{key_y:.2f}",
            x2=str(left + plot_w - 126), y2=f"{key_y:.2f}",
            stroke=color,
        )
        swatch.set("stroke-width", "2")
        _text(root, str(left + plot_w - 120), f"{key_y + 4:.2f}", approach,
              size=12, fill="#111111")
    return root


# ---------------------------------------------------------------------------
# add-one Naive Bayes with exact fractions


def nb_posteriors(train_docs, features):
    """train_docs: list of (label, [tokens]); returns label -> Fraction score.

    Unknown feature tokens are skipped, matching a vocabulary filter.
    """
    labels = []
    token_counts = {}
    totals = {}
    doc_counts = {}
    vocabulary = set()
    for label, tokens in train_docs:
        if label not in labels:
            labels.append(label)
        doc_counts[label] = doc_counts.get(label, 0) + 1
        for token in tokens:
            vocabulary.add(token)
            token_counts[(label, token)] = token_counts.get((label, token), 0) + 1
            totals[label] = totals.get(label, 0) + 1
    v = len(vocabulary)
    docs_total = sum(doc_counts.values())
    out = {}
    for label in labels:
        score = Fraction(doc_counts[label], docs_total)
        for token in features:
            if token not in vocabulary:
                continue
            count = token_counts.get((label, token), 0)
            score *= Fraction(count + 1, totals.get(label, 0) + v)
        out[label] = score
    return out


def nb_label(train_docs, features):
    """Winning label; a tie goes to Positive."""
    post = nb_posteriors(train_docs, features)
    if post["Positive"] >= post["Negative"]:
        return "Positive"
    return "Negative"


# ---------------------------------------------------------------------------
# Pearson correlation at 50-digit precision


def pearson_decimal(xs, ys) -> Decimal:
    n = len(xs)
    assert n == len(ys) and n >= 2
    fx = [Fraction(float(x)) for x in xs]
    fy = [Fraction(float(y)) for y in ys]
    mx = sum(fx, Fraction(0)) / n
    my = sum(fy, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    vx = sum((a - mx) ** 2 for a in fx)
    vy = sum((b - my) ** 2 for b in fy)
    assert vx > 0 and vy > 0, "constant series"
    num = Decimal(cov.numerator) / Decimal(cov.denominator)
    den = (
        (Decimal(vx.numerator) / Decimal(vx.denominator))
        * (Decimal(vy.numerator) / Decimal(vy.denominator))
    ).sqrt()
    return num / den
