import json
import math
import random
import re
import tempfile
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geosent.georesolve import GeoError, RegionIndex, contains, load_regions, resolve
from geosent.store import LEVELS, _field_text

from conftest import square
from oracles import resolve_linear, wn_contains

# ForkingPickler.dumps size of the 56x56 grid_regions index before the
# index carried a grid; pool tasks pickle the index the same way.
GRID_FREE_PICKLE_BYTES = 803_162


def feature(region_id, name, level, parent, geometry):
    return {
        "type": "Feature",
        "properties": {
            "region_id": region_id, "name": name, "level": level, "parent": parent,
        },
        "geometry": geometry,
    }


def polygon(*rings):
    return {"type": "Polygon", "coordinates": list(rings)}


def multipolygon(*polys):
    return {"type": "MultiPolygon", "coordinates": [list(p) for p in polys]}


def write_regions(tmp_path, features, name="regions.geojson"):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


@pytest.fixture
def simple_index(tmp_path):
    path = write_regions(tmp_path, [
        feature("c1", "west", "County", "land", polygon(square(0, 0, 2, 4))),
        feature("c2", "east", "County", "land", polygon(square(2, 0, 4, 4))),
        feature("c0", "land", "Country", "", polygon(square(0, 0, 4, 4))),
    ])
    return load_regions(path)


class TestLoading:
    def test_counts_and_order(self, simple_index):
        assert simple_index.names("County") == ["west", "east"]
        assert simple_index.names("Country") == ["land"]

    def test_missing_property_rejected(self, tmp_path):
        bad = feature("x", "here", "County", "land", polygon(square(0, 0, 1, 1)))
        del bad["properties"]["parent"]
        country = feature("c", "land", "Country", "", polygon(square(0, 0, 9, 9)))
        with pytest.raises(GeoError, match="parent"):
            load_regions(write_regions(tmp_path, [bad, country]))

    def test_unknown_level_rejected(self, tmp_path):
        bad = feature("x", "here", "Province", "", polygon(square(0, 0, 1, 1)))
        with pytest.raises(GeoError, match="level"):
            load_regions(write_regions(tmp_path, [bad]))

    def test_county_parent_must_exist(self, tmp_path):
        orphan = feature("x", "here", "County", "atlantis", polygon(square(0, 0, 1, 1)))
        country = feature("c", "land", "Country", "", polygon(square(0, 0, 9, 9)))
        with pytest.raises(GeoError, match="atlantis"):
            load_regions(write_regions(tmp_path, [orphan, country]))

    def test_duplicate_name_rejected(self, tmp_path):
        a = feature("a", "land", "Country", "", polygon(square(0, 0, 1, 1)))
        b = feature("b", "land", "Country", "", polygon(square(5, 5, 6, 6)))
        with pytest.raises(GeoError, match="duplicate"):
            load_regions(write_regions(tmp_path, [a, b]))

    def test_reserved_name_rejected(self, tmp_path):
        a = feature("a", "unassigned", "Country", "", polygon(square(0, 0, 1, 1)))
        with pytest.raises(GeoError, match="unassigned"):
            load_regions(write_regions(tmp_path, [a]))

    def test_short_ring_rejected(self, tmp_path):
        a = feature("a", "land", "Country", "", polygon([[0, 0], [1, 1], [0, 0]]))
        with pytest.raises(GeoError):
            load_regions(write_regions(tmp_path, [a]))

    @pytest.mark.parametrize("bad", [
        [math.nan, 1.0], [1.0, math.inf], ["1", 1.0], [1.0], 7,
        [True, 1.0], [1.0, False],  # bool is an int subclass, but no number, here as in a tweet
    ], ids=["nan", "inf", "string", "one-element", "not-a-list", "true", "false"])
    def test_bad_position_named(self, tmp_path, bad):
        ring = [[0, 0], [1, 0], bad, [0, 1], [0, 0]]
        a = feature("a", "land", "Country", "", polygon(ring))
        path = write_regions(tmp_path, [a])
        expected = f"region file {path}: feature 0 (land) part 0 ring 0: bad position {bad!r}"
        with pytest.raises(GeoError, match=f"^{re.escape(expected)}$"):
            load_regions(path)

    def test_huge_integer_coordinate_named(self, tmp_path):
        # a 400-digit JSON integer has no float value; it must not escape as OverflowError
        ring = [[0, 0], [1, 0], [10**400, 1], [0, 1], [0, 0]]
        a = feature("a", "land", "Country", "", polygon(ring))
        path = write_regions(tmp_path, [a])
        expected = f"region file {path}: feature 0 (land) part 0 ring 0: bad position "
        with pytest.raises(GeoError, match=f"^{re.escape(expected)}"):
            load_regions(path)

    def test_nesting_past_the_recursion_limit_named(self, tmp_path):
        path = tmp_path / "deep.geojson"
        nested = "[" * 100_000 + "]" * 100_000
        path.write_text('{"type": "FeatureCollection", "features": ' + nested + "}")
        with pytest.raises(GeoError, match=f"^region file {re.escape(str(path))} is not valid JSON"):
            load_regions(path)

    def test_not_a_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "Feature"}))
        with pytest.raises(GeoError):
            load_regions(path)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "latin1.geojson"
        path.write_bytes(b'{"type": "FeatureCollection", "name": "caf\xe9", "features": []}')
        with pytest.raises(GeoError, match=f"^region file {re.escape(str(path))} is not UTF-8 text"):
            load_regions(path)

    def test_lone_surrogate_name_named(self, tmp_path):
        # JSON's \ud83d escape decodes to a str that no UTF-8 output table can hold
        a = feature("a", "land-\ud83d", "Country", "", polygon(square(0, 0, 1, 1)))
        path = write_regions(tmp_path, [a])
        expected = (f"region file {path}: feature 0: region name 'land-\\ud83d' "
                    f"is not a non-empty JSON string of UTF-8 text without a tab, CR or LF")
        with pytest.raises(GeoError, match=f"^{re.escape(expected)}$"):
            load_regions(path)

    @pytest.mark.parametrize("name, level, parent", [
        (None, "Country", ""), (5, "Country", ""), ("here", "County", True),
    ], ids=["name-null", "name-5", "county-parent-true"])
    def test_property_that_is_not_a_string_named(self, tmp_path, name, level, parent):
        bad = feature("x", name, level, parent, polygon(square(0, 0, 1, 1)))
        country = feature("c", "land", "Country", "", polygon(square(0, 0, 9, 9)))
        path = write_regions(tmp_path, [bad, country])
        with pytest.raises(GeoError, match=f"^region file {re.escape(str(path))}: feature 0: "):
            load_regions(path)

    @pytest.mark.parametrize("region_id", [None, 7, [1]], ids=["absent", "int", "list"])
    def test_region_id_is_ignored(self, tmp_path, region_id):
        county = feature(region_id, "here", "County", "land", polygon(square(0, 0, 1, 1)))
        if region_id is None:
            del county["properties"]["region_id"]
        country = feature("c", "land", "Country", "", polygon(square(0, 0, 9, 9)))
        index = load_regions(write_regions(tmp_path, [county, country]))
        assert resolve(index, 0.5, 0.5) == ("land", "here")

    @pytest.mark.parametrize("parent", ["absent", None], ids=["absent", "null"])
    def test_country_parent_is_ignored(self, tmp_path, parent):
        country = feature("c", "land", "Country", parent, polygon(square(0, 0, 9, 9)))
        if parent == "absent":
            del country["properties"]["parent"]
        index = load_regions(write_regions(tmp_path, [country]))
        assert index.parts("Country", "land")[0].parent == ""
        assert resolve(index, 0.5, 0.5) == ("land", "unassigned")

    def test_overlong_integer_named(self, tmp_path):
        # more digits than Python converts to int by default (4,300)
        path = tmp_path / "long.geojson"
        path.write_text('{"type": "FeatureCollection", "features": [' + "9" * 5000 + "]}")
        with pytest.raises(GeoError, match=f"^region file {re.escape(str(path))} is not valid JSON"):
            load_regions(path)


class TestContains:
    def test_inside_and_outside(self, simple_index):
        part = simple_index.parts("Country", "land")[0]
        assert contains(part, 2.0, 1.0)
        assert not contains(part, 5.0, 1.0)
        assert not contains(part, 2.0, -1.0)

    def test_half_open_edges(self, simple_index):
        part = simple_index.parts("County", "west")[0]  # lon 0..2, lat 0..4
        # west and south edges are inside, east and north are not
        assert contains(part, 1.0, 0.0)
        assert contains(part, 0.0, 1.0)
        assert not contains(part, 1.0, 2.0)
        assert not contains(part, 4.0, 1.0)

    def test_hole_excluded(self, tmp_path):
        donut = feature("d", "ring", "Country", "",
                        polygon(square(0, 0, 10, 10), square(4, 4, 6, 6)))
        index = load_regions(write_regions(tmp_path, [donut]))
        part = index.parts("Country", "ring")[0]
        assert contains(part, 2.0, 2.0)
        assert not contains(part, 5.0, 5.0)

    def test_multipart(self, tmp_path):
        pair = feature("m", "isles", "Country", "",
                       multipolygon([square(0, 0, 1, 1)], [square(5, 5, 6, 6)]))
        index = load_regions(write_regions(tmp_path, [pair]))
        parts = index.parts("Country", "isles")
        assert len(parts) == 2
        assert any(contains(p, 0.5, 0.5) for p in parts)
        assert any(contains(p, 5.5, 5.5) for p in parts)
        assert not any(contains(p, 3.0, 3.0) for p in parts)


class TestResolve:
    def test_county_and_fallback(self, simple_index):
        assert resolve(simple_index, 1.0, 1.0) == ("land", "west")
        assert resolve(simple_index, 1.0, 3.0) == ("land", "east")
        assert resolve(simple_index, 99.0, 99.0) is None

    def test_country_fallback_unassigned(self, tmp_path):
        # country is wider than its only county
        path = write_regions(tmp_path, [
            feature("c1", "core", "County", "land", polygon(square(0, 0, 1, 1))),
            feature("c0", "land", "Country", "", polygon(square(0, 0, 10, 10))),
        ])
        index = load_regions(path)
        assert resolve(index, 5.0, 5.0) == ("land", "unassigned")

    def test_overlap_goes_to_first_in_file(self, tmp_path):
        path = write_regions(tmp_path, [
            feature("c1", "early", "County", "land", polygon(square(0, 0, 2, 2))),
            feature("c2", "late", "County", "land", polygon(square(0, 0, 2, 2))),
            feature("c0", "land", "Country", "", polygon(square(0, 0, 2, 2))),
        ])
        index = load_regions(path)
        assert resolve(index, 1.0, 1.0) == ("land", "early")

    def test_shared_border_assigns_exactly_one(self, grid_regions_file):
        index = load_regions(grid_regions_file(3))
        # points on the vertical border between county columns 0 and 1,
        # and on the horizontal border between rows
        for t in (0.1, 0.5, 1.7, 2.3):
            country, county = resolve(index, t, 1.0)
            assert county == f"county-01-{int(t):02d}"
        for t in (0.2, 1.5, 2.8):
            country, county = resolve(index, 1.0, t)
            assert county == f"county-{int(t):02d}-01"


def test_agrees_with_winding_oracle(tmp_path):
    """Even-odd crossing agrees with a winding count on awkward shapes."""
    concave = feature("z", "zig", "Country", "", polygon(
        [[0, 0], [6, 0], [6, 5], [4, 5], [4, 2], [2, 2], [2, 5], [0, 5], [0, 0]],
    ))
    donut = feature("d", "ring", "Country", "",
                    polygon(square(10, 0, 20, 10), square(13, 3, 17, 7)))
    index = load_regions(write_regions(tmp_path, [concave, donut]))
    rng = random.Random(77)
    for name in ("zig", "ring"):
        part = index.parts("Country", name)[0]
        min_lon, min_lat, max_lon, max_lat = part.bbox
        for _ in range(2000):
            lon = rng.uniform(min_lon - 1, max_lon + 1)
            lat = rng.uniform(min_lat - 1, max_lat + 1)
            mine = contains(part, lat, lon)
            oracle = wn_contains(part.exterior, part.holes, lat, lon)
            assert mine == oracle, (name, lat, lon)


# ---------------------------------------------------------------------------
# the grid index against the linear scan

ORIGINS = st.sampled_from([-180.0, -37.5, -1.0, -0.1, 0.0, 2.75])
STEPS = st.sampled_from([0.1, 0.3, 1.0, 2.5, 7.0])


@st.composite
def region_maps(draw):
    """A region file and points to resolve in it, as (features, points).

    A country covers an nx x ny grid with non-unit steps; grid counties
    may be missing (gaps fall back to the country), and extra counties
    overlap the grid, carry holes or are MultiPolygons, at random
    places in file order.  With `flat`, every x (or y) collapses onto
    the origin, so the union box has zero width (or height).
    """
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    x0, y0 = draw(ORIGINS), draw(ORIGINS)
    w, h = draw(STEPS), draw(STEPS)
    xs = [x0 + i * w for i in range(nx + 1)]
    ys = [y0 + j * h for j in range(ny + 1)]
    flat = draw(st.sampled_from([None, None, None, "x", "y"]))
    xs_out = [x0 - w, xs[-1] + w]
    ys_out = [y0 - h, ys[-1] + h]
    x_any = st.sampled_from(xs + xs_out) | st.floats(x0 - w, xs[-1] + w)
    y_any = st.sampled_from(ys + ys_out) | st.floats(y0 - h, ys[-1] + h)

    def ring(points):
        if flat == "x":
            points = [(x0, y) for _, y in points]
        elif flat == "y":
            points = [(x, y0) for x, _ in points]
        return [list(pt) for pt in points] + [list(points[0])]

    def rect(i0, j0, i1, j1):
        return ring([(xs[i0], ys[j0]), (xs[i1], ys[j0]), (xs[i1], ys[j1]), (xs[i0], ys[j1])])

    def free_ring():
        return ring(draw(st.lists(st.tuples(x_any, y_any), min_size=3, max_size=6)))

    # a grid county is missing where both masks have its bit set
    gaps = draw(st.integers(0, 2 ** (nx * ny) - 1)) & draw(st.integers(0, 2 ** (nx * ny) - 1))
    counties = [
        feature(f"g{i}-{j}", f"g{i}-{j}", "County", "land", polygon(rect(i, j, i + 1, j + 1)))
        for i in range(nx) for j in range(ny)
        if not gaps >> (i * ny + j) & 1
    ]
    for k in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["overlap", "holed", "multi"]))
        if kind == "overlap":
            i0, i1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
            j0, j1 = sorted(draw(st.lists(st.integers(0, ny), min_size=2, max_size=2, unique=True)))
            geometry = polygon(rect(i0, j0, i1, j1))
        elif kind == "holed":
            geometry = polygon(free_ring(), free_ring())
        else:
            geometry = multipolygon([free_ring()], [free_ring(), free_ring()])
        at = draw(st.integers(0, len(counties)))
        counties.insert(at, feature(f"x{k}", f"x{k}", "County", "land", geometry))
    features = counties + [feature("c", "land", "Country", "", polygon(rect(0, 0, nx, ny)))]
    if draw(st.booleans()):
        features.append(feature("d", "isle", "Country", "", polygon(free_ring())))

    if flat == "x":
        x_any = st.just(x0) | x_any
    elif flat == "y":
        y_any = st.just(y0) | y_any
    special = st.sampled_from([math.nan, math.inf, -math.inf])
    points = draw(st.lists(
        st.tuples(y_any, x_any) | st.tuples(special, x_any) | st.tuples(y_any, special),
        min_size=1, max_size=25,
    ))
    # every vertex of the grid, the union box's max edges among them
    points += [(y, x) for x in xs for y in ys]
    return features, points


@settings(max_examples=200, deadline=None)
@given(region_maps())
def test_resolve_matches_the_linear_scan(case):
    features, points = case
    with tempfile.TemporaryDirectory() as tmp:
        index = load_regions(write_regions(Path(tmp), features))
    for lat, lon in points:
        assert resolve(index, lat, lon) == resolve_linear(index, lat, lon), (lat, lon)


def test_56x56_grid_matches_the_linear_scan(grid_regions_file):
    index = load_regions(grid_regions_file(56))
    rng = random.Random(9)
    for _ in range(1200):
        # each coordinate on a grid line half the time, so a quarter are vertices
        lat, lon = (float(rng.randint(0, 56)) if rng.random() < 0.5 else rng.uniform(-0.5, 56.5)
                    for _ in range(2))
        assert resolve(index, lat, lon) == resolve_linear(index, lat, lon), (lat, lon)


def test_empty_index_resolves_nothing():
    assert resolve(RegionIndex([]), 0.0, 0.0) is None


def test_pickled_index_stays_compact(grid_regions_file):
    index = load_regions(grid_regions_file(56))
    assert len(ForkingPickler.dumps(index)) <= GRID_FREE_PICKLE_BYTES * 1.15


# JSON values a region property might hold; strings mix plain letters with the
# characters no table field may hold: TAB, CR, LF and lone surrogates
FIELD_CHARS = st.sampled_from(["a", "b", "\u00e9", "\t", "\r", "\n", "\ud83d", "\udc00"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(FIELD_CHARS, max_size=3) | st.sampled_from(["land", "Country", "County"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(JSON_VALUES, JSON_VALUES | st.sampled_from(LEVELS), JSON_VALUES),
                min_size=1, max_size=3))
def test_loaded_names_and_parents_are_table_fields(props):
    # a land country always comes last, so a county with parent "land" can load
    features = [feature(f"r{i}", name, level, parent, polygon(square(i, 0, i + 1, 1)))
                for i, (name, level, parent) in enumerate(props)]
    features.append(feature("c", "land", "Country", "", polygon(square(0, 0, 9, 9))))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_regions(Path(tmp), features)
        try:
            index = load_regions(path)
        except GeoError:
            return
    for part in index.polygons:
        drawn = [(n, p) for n, lv, p in props + [("land", "Country", "")] if lv == part.level]
        assert part.name and _field_text(part.name) == part.name
        assert part.name in [n for n, _ in drawn]  # the JSON string itself, not str() of a value
        if part.level == "County":
            assert part.parent and _field_text(part.parent) == part.parent
            assert (part.name, part.parent) in drawn
        else:
            assert part.parent == ""
