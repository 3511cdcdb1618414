"""Rendering score tables as KML overlays, tile maps, and line graphs.

All three emitters share two conventions.  Numbers shown to a human are
cut to four decimal places, rounding halves away from zero; numbers meant
to be read back by software (the line graph's CSV) keep full precision.
Colour runs red at a relative score of 0 through olive at 0.5 to green
at 1, and a region whose score is undefined is painted a flat grey
rather than failing the whole render.

Every emitter writes deterministic bytes: same rows in, same file out.
The KML and SVG documents are written as text, line by line, in the
bytes ElementTree writes for the same elements once indented: attributes
in a fixed order, two spaces per level, a single-quoted declaration, and
an empty element closed as `<x />`.  Each file replaces its target only
once it is whole, and the line graph replaces its SVG and CSV only once
both are whole.
"""

from __future__ import annotations

import csv
import logging
import math
from datetime import timedelta
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Iterator

from .georesolve import RegionIndex, RegionPolygon
from .store import UNASSIGNED, GeosentError, ScoreRow, _format_score, _utf8_text, format_instant, staged

log = logging.getLogger(__name__)

KML_NS = "http://www.opengis.net/kml/2.2"
SVG_NS = "http://www.w3.org/2000/svg"

# colour at relative score 0 and 1, and for an undefined score
LOW_COLOR = (255, 0, 0)
HIGH_COLOR = (0, 255, 0)
UNDEFINED_GREY = (128, 128, 128)

# both SVGs share one canvas; a tile's long side is at most MAX_RATIO times its short
WIDTH, HEIGHT = 1000, 600
MAX_RATIO = 4.0

LINE_COLORS = {
    "Dictionary": "#1f77b4",
    "MachineLearning": "#d62728",
}
_FALLBACK_LINE_COLOR = "#555555"
# days in 400 Gregorian years, after which dates repeat
_GREGORIAN_CYCLE_DAYS = 146_097


class VisualizeError(GeosentError):
    """Raised when rows cannot be rendered as asked."""


def color_for(npss: float) -> tuple[int, int, int]:
    """Interpolate the red-to-green ramp at a relative score in [0, 1].

    Each channel is lo + (hi - lo) * npss, rounded half away from zero.
    A channel lies between its two endpoints, so it is never negative and
    rounding it half up is flooring it plus a half.
    """
    if not 0.0 <= npss <= 1.0:
        raise VisualizeError(f"relative score {npss!r} is outside [0, 1]")
    (r0, g0, b0), (r1, g1, b1) = LOW_COLOR, HIGH_COLOR
    return (math.floor(r0 + (r1 - r0) * npss + 0.5),
            math.floor(g0 + (g1 - g0) * npss + 0.5),
            math.floor(b0 + (b1 - b0) * npss + 0.5))


def kml_color(rgb: tuple[int, int, int]) -> str:
    """Opaque KML colour string: aabbggrr, lowercase hex."""
    r, g, b = rgb
    return f"ff{b:02x}{g:02x}{r:02x}"


def svg_color(rgb: tuple[int, int, int]) -> str:
    r, g, b = rgb
    return f"#{r:02x}{g:02x}{b:02x}"


_FOUR_PLACES = Decimal("0.0001")


def fmt4(value: float) -> str:
    """Four decimal places, halves rounded away from zero."""
    return str(Decimal(repr(value)).quantize(_FOUR_PLACES, rounding=ROUND_HALF_UP))


def _fmt4_or_na(value: float | None) -> str:
    return "NA" if value is None else fmt4(value)


def _alike(rows: list[ScoreRow], what: str, *fields: str) -> None:
    """Refuse no rows, or rows that differ in any of the named fields."""
    if not rows:
        raise VisualizeError(f"{what}: no rows to render")
    for name in fields:
        values = {getattr(row, name) for row in rows}
        if len(values) > 1:
            raise VisualizeError(f"{what}: rows mix {name} values {sorted(map(str, values))}")


def _single_bucket(rows: list[ScoreRow], what: str) -> None:
    _alike(rows, what, "bucket_start", "level", "approach")
    if len({row.region for row in rows}) != len(rows):
        raise VisualizeError(f"{what}: duplicate region rows")


def _fill_for(row: ScoreRow) -> tuple[int, int, int]:
    if row.npss is None:
        log.warning("region %r has no relative score; painting it grey", row.region)
        return UNDEFINED_GREY
    return color_for(row.npss)


# ---------------------------------------------------------------------------
# XML as text
#
# Element text goes through _escape; attribute values never hold caller
# text (only numbers, fixed colours and keywords), so they are written as is.


def _escape(text: str) -> str:
    """Element text as ElementTree escapes it: only &, < and >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _leaf(tag: str, text: str | None, attrs: str = "") -> str:
    """An element without children; with no text it closes itself."""
    if text:
        return f"<{tag}{attrs}>{_escape(text)}</{tag}>"
    return f"<{tag}{attrs} />"


def _write_xml(lines: Iterable[str], path: Path) -> None:
    """Stream an indented document to path, a staged() sibling of the target.

    Each item of lines is one or more whole lines, without the newline
    that ends the last.  The file holds the bytes ElementTree writes with
    an XML declaration in UTF-8: a character UTF-8 cannot encode (a lone
    surrogate) becomes a character reference, and no newline follows the
    root's closing tag.
    """
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace", newline="\n") as fh:
        fh.write("<?xml version='1.0' encoding='UTF-8'?>")
        for line in lines:
            fh.write("\n")
            fh.write(line)


def _svg_open(title: str) -> str:
    """An SVG root of WIDTH x HEIGHT with a title and a white background, left open."""
    return (
        f'<svg xmlns="{SVG_NS}" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" version="1.1">\n'
        f'  {_leaf("title", title)}\n'
        f'  <rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff" />'
    )


def _text(x: str, y: str, text: str, *, size: int, fill: str,
          anchor: str | None = None, baseline: str | None = None) -> str:
    """A sans-serif text label; attributes keep one order, so bytes do too."""
    attrs = f' x="{x}" y="{y}" fill="{fill}"'
    if anchor:
        attrs += f' text-anchor="{anchor}"'
    if baseline:
        attrs += f' dominant-baseline="{baseline}"'
    return _leaf("text", text, f'{attrs} font-size="{size}" font-family="sans-serif"')


# ---------------------------------------------------------------------------
# KML


def _ring_text(ring: list[tuple[float, float]]) -> str:
    closed = list(ring)
    if closed[0] != closed[-1]:
        closed.append(closed[0])
    return " ".join(f"{lon!r},{lat!r},0" for lon, lat in closed)


def _polygon_lines(part: RegionPolygon, pad: str) -> Iterator[str]:
    yield f"{pad}<Polygon>"
    for boundary, ring in [("outerBoundaryIs", part.exterior),
                           *(("innerBoundaryIs", hole) for hole in part.holes)]:
        yield (f"{pad}  <{boundary}>\n"
               f"{pad}    <LinearRing>\n"
               f"{pad}      <coordinates>{_ring_text(ring)}</coordinates>\n"
               f"{pad}    </LinearRing>\n"
               f"{pad}  </{boundary}>")
    yield f"{pad}</Polygon>"


def emit_kml(rows: list[ScoreRow], index: RegionIndex, out_path: str | Path) -> None:
    """Write one bucket of scores as a coloured KML overlay.

    Expects rows for a single approach, level, and bucket, one row per
    region; each region must exist in the index at that level, except
    the synthetic County 'unassigned', which has no shape and is skipped.
    """
    _single_bucket(rows, "kml")
    drawn, shapes = [], []
    for row in rows:
        parts = index.parts(row.level, row.region)
        if parts:
            drawn.append(row)
            shapes.append(parts)
        elif row.level == "County" and row.region == UNASSIGNED:
            log.warning("kml: skipped county %r, which has no shape", UNASSIGNED)
        else:
            raise VisualizeError(
                f"kml: region {row.region!r} is not in the region file at level {row.level}"
            )
    if not drawn:
        raise VisualizeError(f"kml: no region to draw besides {UNASSIGNED!r}")
    with staged(out_path) as staging:
        _write_xml(_kml_lines(drawn, shapes), staging)


def _kml_lines(rows: list[ScoreRow], shapes: list[list[RegionPolygon]]) -> Iterator[str]:
    first = rows[0]
    yield f'<kml xmlns="{KML_NS}">'
    yield "  <Document>"
    yield "    " + _leaf("name", f"{first.approach} sentiment, {first.level} level, "
                                 f"{format_instant(first.bucket_start)}")
    for i, row in enumerate(rows):
        yield (f'    <Style id="s{i}">\n'
               "      <PolyStyle>\n"
               f"        <color>{kml_color(_fill_for(row))}</color>\n"
               "        <fill>1</fill>\n"
               "        <outline>1</outline>\n"
               "      </PolyStyle>\n"
               "      <LineStyle>\n"
               "        <color>ff000000</color>\n"
               "        <width>1</width>\n"
               "      </LineStyle>\n"
               "    </Style>")
    for i, (row, parts) in enumerate(zip(rows, shapes)):
        description = (
            f"pss={_fmt4_or_na(row.pss)} npss={_fmt4_or_na(row.npss)} "
            f"positive={row.pos_count} negative={row.neg_count} tweets={row.tweet_count}"
        )
        yield ("    <Placemark>\n"
               f"      {_leaf('name', row.region)}\n"
               f"      {_leaf('description', description)}\n"
               f"      <styleUrl>#s{i}</styleUrl>")
        if len(parts) == 1:
            yield from _polygon_lines(parts[0], "      ")
        else:
            yield "      <MultiGeometry>"
            for part in parts:
                yield from _polygon_lines(part, "        ")
            yield "      </MultiGeometry>"
        yield "    </Placemark>"
    yield "  </Document>"
    yield "</kml>"


# ---------------------------------------------------------------------------
# Tile map


def _strip_worst(volume: int, low: int, high: int, total: int) -> float:
    """Worst tile aspect ratio in a vertical strip of this volume whose
    smallest and largest tiles hold low and high.

    A tile's ratio falls as its height nears the strip's width and rises
    beyond it, and correctly rounded division keeps that order, so no
    tile between the two extremes can be worse.
    """
    w = volume / total * WIDTH
    worst = 1.0
    for v in (low, high):
        h = v / volume * HEIGHT
        worst = max(worst, w / h if w > h else h / w)
    return worst


def _pack_strips(rows: list[ScoreRow], total: int) -> list[list[ScoreRow]]:
    """Rows in vertical strips, in order.

    A row that would push a strip within the aspect-ratio limit past it
    opens the next strip.  The open strip's volume, smallest and largest
    tile and worst ratio carry from row to row, so each row costs O(1).
    """
    strips: list[list[ScoreRow]] = []
    for row in rows:
        v = row.tweet_count
        if strips:
            grown = (volume + v, min(low, v), max(high, v))
            grown_worst = _strip_worst(*grown, total)
            if not (worst <= MAX_RATIO and grown_worst > MAX_RATIO):
                strips[-1].append(row)
                (volume, low, high), worst = grown, grown_worst
                continue
        strips.append([row])
        volume = low = high = v
        worst = _strip_worst(v, v, v, total)
    return strips


def emit_tilemap(rows: list[ScoreRow], out_path: str | Path) -> None:
    """Write one bucket of county scores as an SVG tile map.

    Tile area is proportional to each county's share of the bucket's
    tweets.  Counties are laid out largest first in vertical strips; a
    strip is closed once adding the next county would push some tile past
    the aspect-ratio limit.  Zero-volume counties are skipped.
    """
    _single_bucket(rows, "tilemap")
    drawable = [row for row in rows if row.tweet_count > 0]
    skipped = len(rows) - len(drawable)
    if skipped:
        log.warning("tilemap: skipped %d regions with no tweets", skipped)
    if not drawable:
        raise VisualizeError("tilemap: every region has zero tweets")
    drawable.sort(key=lambda row: (-row.tweet_count, row.region))
    with staged(out_path) as staging:
        _write_xml(_tilemap_lines(drawable), staging)


def _tilemap_lines(drawable: list[ScoreRow]) -> Iterator[str]:
    total = sum(row.tweet_count for row in drawable)
    yield _svg_open(f"County sentiment, {format_instant(drawable[0].bucket_start)}")
    x = 0.0
    for strip in _pack_strips(drawable, total):
        strip_volume = sum(row.tweet_count for row in strip)
        strip_width = strip_volume / total * WIDTH
        # every tile of a strip shares its left edge and its width
        left, width = f"{x:.2f}", f"{strip_width:.2f}"
        y = 0.0
        for row in strip:
            tile_height = row.tweet_count / strip_volume * HEIGHT
            title = f"{row.region}: npss={_fmt4_or_na(row.npss)} tweets={row.tweet_count}"
            tile = ("  <g>\n"
                    f'    <rect x="{left}" y="{y:.2f}" width="{width}" height="{tile_height:.2f}" '
                    f'fill="{svg_color(_fill_for(row))}" stroke="#ffffff" stroke-width="1" />\n'
                    f"    <title>{_escape(title)}</title>")
            if strip_width >= 60 and tile_height >= 16:
                tile += "\n    " + _text(f"{x + strip_width / 2:.2f}", f"{y + tile_height / 2:.2f}",
                                         row.region, size=11, fill="#111111",
                                         anchor="middle", baseline="middle")
            yield tile + "\n  </g>"
            y += tile_height
        x += strip_width
    yield "</svg>"


# ---------------------------------------------------------------------------
# Line graph


def linegraph_paths(out_prefix: str | Path) -> tuple[Path, Path]:
    """The .svg and .csv paths emit_linegraph writes for out_prefix."""
    out_prefix = Path(out_prefix)
    return (out_prefix.with_name(out_prefix.name + ".svg"),
            out_prefix.with_name(out_prefix.name + ".csv"))


def emit_linegraph(
    rows: list[ScoreRow],
    out_prefix: str | Path,
    display_tz_offset_minutes: int = 0,
) -> tuple[Path, Path]:
    """Write a per-bucket score series as an SVG graph plus a CSV twin.

    Expects rows for one region at one level, any number of approaches,
    and no two buckets of one approach that overlap.  Buckets present for
    every approach are drawn; the rest are dropped so the lines stay
    comparable.  The CSV carries full-precision scores; the graph shows
    the absolute score per bucket, one line per approach.  The timezone
    offset shifts axis labels only, never the data.  A region or approach
    that is not valid UTF-8 raises VisualizeError.
    """
    _alike(rows, "linegraph", "region", "level")
    region = rows[0].region

    by_approach: dict[str, dict] = {}
    for row in sorted(rows, key=lambda row: (row.approach, row.bucket_start)):
        bucket = by_approach.setdefault(row.approach, {})
        if bucket and last.bucket_end > row.bucket_start:  # last: this approach's previous row
            clash = "duplicate" if last.bucket_start == row.bucket_start else "overlapping"
            raise VisualizeError(f"linegraph: {clash} bucket {format_instant(row.bucket_start)} "
                                 f"for approach {row.approach}")
        bucket[row.bucket_start] = last = row
    approaches = sorted(by_approach)
    shared = set.intersection(*(set(v) for v in by_approach.values()))
    if not shared:
        raise VisualizeError("linegraph: approaches share no buckets")
    buckets = sorted(shared)
    # the CSV twin is strict UTF-8, so a lone surrogate is refused before either file is staged
    for name, value in [("region", region), *(("approach", a) for a in approaches)]:
        if not _utf8_text(value):
            raise VisualizeError(f"linegraph: {name} {value!r} is not valid UTF-8")

    svg_path, csv_path = linegraph_paths(out_prefix)

    svg = _linegraph_svg(region, approaches, by_approach, buckets, display_tz_offset_minutes)
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
        _write_xml(svg, svg_staging)
    return svg_path, csv_path


def _linegraph_svg(
    region: str,
    approaches: list[str],
    by_approach: dict[str, dict],
    buckets: list,
    display_tz_offset_minutes: int,
) -> Iterator[str]:
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

    yield _svg_open(f"Sentiment over time, {region}")
    yield "  " + _text(f"{WIDTH / 2:.2f}", "28",
                       f"{region}: positive-to-negative score per bucket",
                       size=16, fill="#111111", anchor="middle")
    yield (f'  <g stroke="#333333" stroke-width="1">\n'
           f'    <line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" />\n'
           f'    <line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" />\n'
           "  </g>")

    for k in range(5):
        value = y_max * k / 4
        y = y_of(value)
        yield (f'  <line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
               f'stroke="#dddddd" stroke-width="1" />')
        yield "  " + _text(str(left - 8), f"{y + 4:.2f}", f"{value:.2f}",
                           size=11, fill="#333333", anchor="end")

    # Labels repeat every 400 years, so the shift is taken modulo that cycle
    # and a start after 5000 is read one cycle earlier: start + shift then
    # stays inside datetime's years 1 to 9999 whatever the offset.
    shift = timedelta(minutes=display_tz_offset_minutes % (_GREGORIAN_CYCLE_DAYS * 1440))
    step = max(1, math.ceil(len(buckets) / 8))
    for i in range(0, len(buckets), step):
        x = x_of(i)
        start = buckets[i] if buckets[i].year <= 5000 else buckets[i] - timedelta(days=_GREGORIAN_CYCLE_DAYS)
        yield (f'  <line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 5}" '
               f'stroke="#333333" stroke-width="1" />')
        yield "  " + _text(f"{x:.2f}", str(top + plot_h + 22),
                           (start + shift).strftime("%m-%d %H:%M"),
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
            yield (f'  <polyline points="{" ".join(points)}" fill="none" '
                   f'stroke="{color}" stroke-width="2" />')
        key_y = top + 16 * slot
        yield (f'  <line x1="{left + plot_w - 150}" y1="{key_y:.2f}" '
               f'x2="{left + plot_w - 126}" y2="{key_y:.2f}" stroke="{color}" stroke-width="2" />')
        yield "  " + _text(str(left + plot_w - 120), f"{key_y + 4:.2f}", approach,
                           size=12, fill="#111111")
    yield "</svg>"
