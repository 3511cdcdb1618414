"""Point-to-region resolution over a GeoJSON region file.

Regions are loaded from a FeatureCollection whose features carry name,
level ("Country" or "County") and, for a county, parent properties and a
Polygon or MultiPolygon geometry, whose positions are numbers by
store._finite (not true or false).  Name and parent become table fields
by store._field_text; region_id and a country's parent are ignored.
A MultiPolygon becomes RegionPolygon parts sharing one name, in file order.

Containment is even-odd ray casting with a half-open crossing rule: an
edge is crossed when the point's latitude lies in [min(y1,y2), max(y1,y2))
and the edge intersects the eastward ray strictly east of the point.
That rule assigns a point on a shared border to exactly one of the
adjacent polygons.  A closed bounding-box test runs first.  contains()
states that rule, and resolve() applies it through contains().

resolve() does not scan every polygon.  RegionIndex lays a uniform grid
of about sqrt(rows) cells per axis over the union of all bounding boxes
and lists, per cell, every row whose bounding box meets it.  A point is
tested only against its own cell's rows, so its cost follows the number
of polygons near it, not the number in the file.

County polygons are authoritative: resolve() returns the first county in
file order containing the point together with that county's parent
country, falling back to (country, "unassigned") when only a country
ring contains the point.
"""
from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

from .store import LEVELS, UNASSIGNED, _field_text, _finite, _read_text


class GeoError(Exception):
    """Raised for unreadable or inconsistent region files."""


Ring = list[tuple[float, float]]
_NOT_A_FIELD = "is not a non-empty JSON string of UTF-8 text without a tab, CR or LF"


@dataclass
class RegionPolygon:
    """One polygon part of a region, with exterior ring and optional holes."""

    name: str
    level: str
    parent: str
    exterior: Ring
    holes: list[Ring]
    bbox: tuple[float, float, float, float]  # min_lon, min_lat, max_lon, max_lat


def _clean_ring(raw, where: str) -> Ring:
    if not isinstance(raw, list) or len(raw) < 3:
        raise GeoError(f"{where}: ring must be a list of at least 3 positions")
    ring: Ring = []
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


def _polygon_parts(geometry, where: str) -> list[list[Ring]]:
    """Normalise a geometry to a list of [exterior, *holes] ring lists."""
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
        parts.append([_clean_ring(r, f"{where} part {p} ring {i}") for i, r in enumerate(raw_rings)])
    return parts


def _axis(lo: float, hi: float, n: int) -> tuple[float, float, int]:
    """Origin, scale and cell count of one grid axis spanning [lo, hi].

    An axis of zero width, or one whose width or scale overflows a float,
    gets a single cell at scale 0; its origin is the midpoint, so that
    v - origin stays finite for every v in [lo, hi].
    """
    scale = n / (hi - lo) if hi > lo else 0.0
    if 0.0 < scale < math.inf:
        return lo, scale, n
    return lo * 0.5 + hi * 0.5, 0.0, 1


def _cell(v: float, origin: float, scale: float, n: int) -> int:
    """Cell of a coordinate v in the axis span, for bbox corners and points alike.

    It is monotone in v, so a point inside a bounding box always lands in
    a cell between the cells of the box's corners.
    """
    return min(n - 1, int((v - origin) * scale))


class RegionIndex:
    """All region polygons of one file, in file order.

    Built once: a level -> name -> parts map for parts() and names(), and
    resolve()'s rows with the grid over them.  The grid holds row ids
    only, so the index stays small when pickled for pool workers.
    """

    def __init__(self, polygons: list[RegionPolygon]):
        self.polygons = polygons
        counties = [p for p in polygons if p.level == "County"]
        countries = [p for p in polygons if p.level == "Country"]
        country_names = {p.name for p in countries}
        for county in counties:
            if county.parent not in country_names:
                raise GeoError(f"county {county.name!r} has unknown parent {county.parent!r}")
        self._parts: dict[str, dict[str, list[RegionPolygon]]] = {}
        for p in polygons:
            self._parts.setdefault(p.level, {}).setdefault(p.name, []).append(p)
        self._rows = counties + countries  # resolve tries counties first
        self._build_grid()

    def _build_grid(self) -> None:
        """Bucket row ids by grid cell, CSR-style: cell c lists
        _ids[_offsets[c]:_offsets[c + 1]], in row order."""
        boxes = [p.bbox for p in self._rows]
        self._box = (
            min((b[0] for b in boxes), default=math.inf),
            min((b[1] for b in boxes), default=math.inf),
            max((b[2] for b in boxes), default=-math.inf),
            max((b[3] for b in boxes), default=-math.inf),
        )
        side = max(1, math.isqrt(len(boxes)))
        self._x_axis = ox, sx, nx = _axis(self._box[0], self._box[2], side)
        self._y_axis = oy, sy, ny = _axis(self._box[1], self._box[3], side)
        cells: list[list[int]] = [[] for _ in range(nx * ny)]
        for row, (min_lon, min_lat, max_lon, max_lat) in enumerate(boxes):
            i0 = _cell(min_lon, ox, sx, nx)
            i1 = _cell(max_lon, ox, sx, nx) + 1
            for j in range(_cell(min_lat, oy, sy, ny), _cell(max_lat, oy, sy, ny) + 1):
                for members in cells[j * nx + i0:j * nx + i1]:
                    members.append(row)
        self._ids = array("i", chain.from_iterable(cells))
        self._offsets = array("i", accumulate(map(len, cells), initial=0))

    def parts(self, level: str, name: str) -> list[RegionPolygon]:
        return list(self._parts.get(level, {}).get(name, ()))

    def names(self, level: str) -> list[str]:
        return list(self._parts.get(level, ()))


def load_regions(path: str | Path) -> RegionIndex:
    """Read a GeoJSON FeatureCollection into a RegionIndex.

    A refused file or feature, a file that fails to decode included, raises
    GeoError naming the file.  Duplicate (level, name) pairs are refused: names key T2.
    """
    try:
        doc = json.loads(_read_text(path, "region", GeoError))
    except (ValueError, RecursionError) as exc:  # not JSON, an int too long, or too deep
        raise GeoError(f"region file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise GeoError(f"region file {path} is not a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list) or not features:
        raise GeoError(f"region file {path} has no features")

    polygons: list[RegionPolygon] = []
    seen: set[tuple[str, str]] = set()
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
        if level == "County" and not parent:
            raise GeoError(f"{where}: county {name!r} parent {props.get('parent')!r} {_NOT_A_FIELD}")
        if name == UNASSIGNED:
            raise GeoError(f"{where}: region name {UNASSIGNED!r} is reserved")
        if (level, name) in seen:
            raise GeoError(f"{where}: duplicate region ({level}, {name})")
        seen.add((level, name))
        for rings in _polygon_parts(feature.get("geometry"), f"{where} ({name})"):
            exterior = rings[0]
            xs = [x for x, _ in exterior]
            ys = [y for _, y in exterior]
            polygons.append(RegionPolygon(
                name=name,
                level=level,
                parent=parent,
                exterior=exterior,
                holes=rings[1:],
                bbox=(min(xs), min(ys), max(xs), max(ys)),
            ))
    del doc, features, feature  # free the parsed JSON before the index is built
    return RegionIndex(polygons)


def _crossings(rings: list[Ring], lat: float, lon: float) -> int:
    """Count eastward-ray edge crossings over all rings (even-odd rule)."""
    n = 0
    for ring in rings:
        x1, y1 = ring[-1]
        for x2, y2 in ring:
            if (y1 > lat) != (y2 > lat):
                if lon < x1 + (lat - y1) * (x2 - x1) / (y2 - y1):
                    n += 1
            x1, y1 = x2, y2
    return n


def contains(polygon: RegionPolygon, lat: float, lon: float) -> bool:
    """True when the point is inside the polygon (holes excluded).

    The one containment rule: inside the closed bbox, then an odd
    crossing count.  resolve() applies it through this function.
    """
    min_lon, min_lat, max_lon, max_lat = polygon.bbox
    return (min_lon <= lon <= max_lon and min_lat <= lat <= max_lat
            and _crossings([polygon.exterior] + polygon.holes, lat, lon) % 2 == 1)


def resolve(index: RegionIndex, lat: float, lon: float) -> tuple[str, str] | None:
    """Map a point to (country, county), or None when nothing contains it.

    The first county polygon in file order wins; its parent supplies the
    country.  A point inside only a country ring gets the "unassigned"
    county sentinel.
    """
    min_lon, min_lat, max_lon, max_lat = index._box
    if not (min_lon <= lon <= max_lon and min_lat <= lat <= max_lat):
        return None
    nx = index._x_axis[2]
    cell = _cell(lat, *index._y_axis) * nx + _cell(lon, *index._x_axis)
    rows = index._rows
    for row in index._ids[index._offsets[cell]:index._offsets[cell + 1]]:
        p = rows[row]
        if contains(p, lat, lon):
            return (p.parent, p.name) if p.level == "County" else (p.name, UNASSIGNED)
    return None
