import hashlib
import itertools
import json
import tempfile
from datetime import timedelta
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from geosent import visualize
from geosent.georesolve import RegionIndex, RegionPolygon, load_regions
from geosent.store import UNASSIGNED, ScoreRow
from geosent.visualize import (
    VisualizeError,
    _pack_strips,
    _write_xml,
    color_for,
    emit_kml,
    emit_linegraph,
    emit_tilemap,
    fmt4,
    kml_color,
    svg_color,
)

import oracles
from conftest import fail_on_call, square, utc
from oracles import pack_strips_quadratic

KML = "{http://www.opengis.net/kml/2.2}"
SVG = "{http://www.w3.org/2000/svg}"

B0 = utc(2013, 7, 22)
B1 = utc(2013, 7, 22, 1)
B2 = utc(2013, 7, 22, 2)
B3 = utc(2013, 7, 22, 3)


def row(region, pos, neg, *, approach="Dictionary", level="County",
        parent="mycountry", start=B0, end=None, tweets=None, npss=None):
    total = tweets if tweets is not None else pos + neg
    pss = None if pos == 0 and neg == 0 else pos / max(neg, 1)
    return ScoreRow(
        approach=approach, level=level, region=region, parent=parent,
        bucket_start=start, bucket_end=end or utc(2013, 7, 23),
        pos_count=pos, neg_count=neg, tweet_count=total,
        pss=pss, npss=npss,
    )


class TestColors:
    def test_endpoints(self):
        assert color_for(0.0) == (255, 0, 0)
        assert color_for(1.0) == (0, 255, 0)

    def test_midpoint_rounds_half_up(self):
        assert color_for(0.5) == (128, 128, 0)
        # channels of exactly 254.5 and 0.5 must become 255 and 1, not banker's 254 and 0
        assert color_for(1 / 510) == (255, 1, 0)

    def test_interpolation(self):
        assert color_for(2 / 15) == (221, 34, 0)

    @pytest.mark.parametrize("bad", [-0.001, 1.001, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(VisualizeError):
            color_for(bad)

    def test_kml_color_is_abgr(self):
        assert kml_color((255, 0, 0)) == "ff0000ff"
        assert kml_color((0, 255, 0)) == "ff00ff00"
        assert kml_color((128, 128, 0)) == "ff008080"

    def test_svg_color(self):
        assert svg_color((221, 34, 0)) == "#dd2200"
        assert svg_color((0, 0, 0)) == "#000000"


class TestFmt4:
    def test_pads_to_four_places(self):
        assert fmt4(2.4) == "2.4000"
        assert fmt4(1.0) == "1.0000"

    def test_truncation_rounds(self):
        assert fmt4(2 / 15) == "0.1333"
        assert fmt4(1 / 3) == "0.3333"
        assert fmt4(2 / 3) == "0.6667"

    def test_half_away_from_zero(self):
        assert fmt4(0.00005) == "0.0001"
        assert fmt4(0.00015) == "0.0002"
        assert fmt4(-0.00005) == "-0.0001"


class TestKml:
    def rows(self):
        return [
            row("happycounty", 12, 5, npss=1.0),
            row("sadcounty", 2, 3, npss=2 / 15),
        ]

    def test_well_formed_and_colored(self, tmp_path, regions_file):
        out = tmp_path / "map.kml"
        emit_kml(self.rows(), load_regions(regions_file), out)
        root = ET.parse(out).getroot()
        assert root.tag == f"{KML}kml"
        colors = [c.text for style in root.iter(f"{KML}PolyStyle")
                  for c in style.findall(f"{KML}color")]
        assert colors == ["ff00ff00", "ff0022dd"]
        marks = root.findall(f"{KML}Document/{KML}Placemark")
        assert [m.findtext(f"{KML}name") for m in marks] == ["happycounty", "sadcounty"]

    def test_description_shows_rounded_scores(self, tmp_path, regions_file):
        out = tmp_path / "map.kml"
        emit_kml(self.rows(), load_regions(regions_file), out)
        root = ET.parse(out).getroot()
        texts = [m.findtext(f"{KML}description")
                 for m in root.iter(f"{KML}Placemark")]
        assert texts[0] == "pss=2.4000 npss=1.0000 positive=12 negative=5 tweets=17"
        assert texts[1] == "pss=0.6667 npss=0.1333 positive=2 negative=3 tweets=5"

    def test_coordinates_close_the_ring(self, tmp_path, regions_file):
        out = tmp_path / "map.kml"
        emit_kml(self.rows(), load_regions(regions_file), out)
        root = ET.parse(out).getroot()
        coords = root.find(f".//{KML}coordinates").text.split()
        assert coords[0] == coords[-1]
        assert all(c.endswith(",0") for c in coords)

    def test_undefined_score_is_grey(self, tmp_path, regions_file, caplog):
        rows = [row("happycounty", 0, 0, tweets=3)]
        out = tmp_path / "map.kml"
        with caplog.at_level("WARNING"):
            emit_kml(rows, load_regions(regions_file), out)
        assert "grey" in caplog.text
        root = ET.parse(out).getroot()
        assert root.find(f".//{KML}PolyStyle/{KML}color").text == "ff808080"
        assert "pss=NA npss=NA" in root.find(f".//{KML}description").text

    def test_multipart_region_gets_multigeometry(self, tmp_path):
        regions = tmp_path / "regions.geojson"
        ring = lambda x0: [[x0, 0.0], [x0 + 1, 0.0], [x0 + 1, 1.0], [x0, 1.0], [x0, 0.0]]
        regions.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [
                {"type": "Feature",
                 "properties": {"region_id": "i", "name": "islands", "level": "County",
                                "parent": "archipelago"},
                 "geometry": {"type": "MultiPolygon",
                              "coordinates": [[ring(0.0)], [ring(2.0)]]}},
                {"type": "Feature",
                 "properties": {"region_id": "a", "name": "archipelago",
                                "level": "Country", "parent": ""},
                 "geometry": {"type": "Polygon", "coordinates": [ring(0.0)]}},
            ],
        }))
        out = tmp_path / "map.kml"
        emit_kml([row("islands", 1, 1, parent="archipelago", npss=1.0)],
                 load_regions(regions), out)
        root = ET.parse(out).getroot()
        multi = root.find(f".//{KML}MultiGeometry")
        assert multi is not None
        assert len(multi.findall(f"{KML}Polygon")) == 2

    def test_unknown_region_rejected(self, tmp_path, regions_file):
        with pytest.raises(VisualizeError, match="ghost"):
            emit_kml([row("ghost", 1, 1, npss=1.0)],
                     load_regions(regions_file), tmp_path / "map.kml")

    def test_unassigned_county_skipped(self, tmp_path, caplog):
        # one county covers half its country; points in the gap score as 'unassigned'
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "properties": {"region_id": r, "name": name, "level": level, "parent": parent},
             "geometry": {"type": "Polygon", "coordinates": [square(0, 0, right, 1)]}}
            for r, name, level, parent, right in [("w", "west", "County", "land", 1),
                                                  ("l", "land", "Country", "", 2)]
        ]}))
        index = load_regions(regions)
        west = row("west", 3, 1, parent="land", npss=1.0)
        gap = row("unassigned", 1, 2, parent="land", npss=0.0)
        with caplog.at_level("WARNING"):
            emit_kml([gap, west], index, tmp_path / "map.kml")
        assert "unassigned" in caplog.text
        emit_kml([west], index, tmp_path / "west.kml")
        assert (tmp_path / "map.kml").read_bytes() == (tmp_path / "west.kml").read_bytes()
        with pytest.raises(VisualizeError, match="no region to draw"):
            emit_kml([gap], index, tmp_path / "gap.kml")
        # only the synthetic county is skipped; a Country of that name is unknown
        with pytest.raises(VisualizeError, match="not in the region file"):
            emit_kml([row("unassigned", 1, 2, level="Country", parent="", npss=0.0)],
                     index, tmp_path / "country.kml")

    def test_mixed_buckets_rejected(self, tmp_path, regions_file):
        rows = [row("happycounty", 1, 1, npss=1.0),
                row("sadcounty", 1, 1, start=B1, npss=1.0)]
        with pytest.raises(VisualizeError, match="bucket"):
            emit_kml(rows, load_regions(regions_file), tmp_path / "map.kml")

    def test_duplicate_region_rejected(self, tmp_path, regions_file):
        rows = [row("happycounty", 1, 1, npss=1.0),
                row("happycounty", 2, 1, npss=1.0)]
        with pytest.raises(VisualizeError, match="duplicate"):
            emit_kml(rows, load_regions(regions_file), tmp_path / "map.kml")

    def test_no_rows_rejected(self, tmp_path, regions_file):
        with pytest.raises(VisualizeError):
            emit_kml([], load_regions(regions_file), tmp_path / "map.kml")

    def test_deterministic(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        a, b = tmp_path / "a.kml", tmp_path / "b.kml"
        emit_kml(self.rows(), index, a)
        emit_kml(self.rows(), index, b)
        assert a.read_bytes() == b.read_bytes()


class TestPackStrips:
    def test_equal_quarters_split_three_one(self):
        rows = [row(f"c{i}", 25, 0, npss=1.0, tweets=25) for i in range(4)]
        strips = _pack_strips(rows, 100)
        assert [len(s) for s in strips] == [3, 1]

    def test_single_region_single_strip(self):
        rows = [row("c", 5, 0, npss=1.0, tweets=5)]
        assert [len(s) for s in _pack_strips(rows, 5)] == [1]

    def test_many_small_regions_share_strips(self):
        rows = [row(f"c{i:02d}", 1, 0, npss=1.0, tweets=1) for i in range(30)]
        strips = _pack_strips(rows, 30)
        assert sum(len(s) for s in strips) == 30
        assert len(strips) > 1

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 10**6)), min_size=1, max_size=60),
           st.booleans())
    def test_matches_packing_that_measures_every_tile(self, volumes, largest_first):
        if largest_first:
            volumes = sorted(volumes, reverse=True)
        rows = [row(f"c{i:02d}", 1, 0, npss=1.0, tweets=v) for i, v in enumerate(volumes)]
        total = sum(volumes)
        got = [[r.region for r in strip] for strip in _pack_strips(rows, total)]
        want = [[r.region for r in strip] for strip in pack_strips_quadratic(rows, total)]
        assert got == want


class TestTilemap:
    def rows(self):
        return [
            row("alpha", 50, 10, npss=1.0, tweets=60),
            row("beta", 10, 10, npss=0.5, tweets=20),
            row("gamma", 5, 10, npss=0.0, tweets=20),
        ]

    def rects(self, path):
        root = ET.parse(path).getroot()
        return [r for r in root.iter(f"{SVG}rect") if r.get("fill") != "#ffffff"]

    def test_area_tracks_volume(self, tmp_path):
        out = tmp_path / "tiles.svg"
        emit_tilemap(self.rows(), out)
        rects = self.rects(out)
        assert len(rects) == 3
        total_area = 1000 * 600
        for rect, share in zip(rects, [60 / 100, 20 / 100, 20 / 100]):
            area = float(rect.get("width")) * float(rect.get("height"))
            assert area == pytest.approx(share * total_area, rel=0.01)

    def test_largest_region_first(self, tmp_path):
        out = tmp_path / "tiles.svg"
        emit_tilemap(self.rows(), out)
        first = self.rects(out)[0]
        assert (first.get("x"), first.get("y")) == ("0.00", "0.00")
        root = ET.parse(out).getroot()
        titles = [t.text for g in root.iter(f"{SVG}g")
                  for t in g.findall(f"{SVG}title")]
        assert titles[0].startswith("alpha:")

    def test_fill_colors(self, tmp_path):
        out = tmp_path / "tiles.svg"
        emit_tilemap(self.rows(), out)
        fills = [r.get("fill") for r in self.rects(out)]
        assert fills == ["#00ff00", "#808000", "#ff0000"]

    def test_zero_volume_skipped(self, tmp_path, caplog):
        rows = self.rows() + [row("empty", 0, 0, tweets=0)]
        out = tmp_path / "tiles.svg"
        with caplog.at_level("WARNING"):
            emit_tilemap(rows, out)
        assert "skipped 1" in caplog.text
        assert len(self.rects(out)) == 3

    def test_all_zero_rejected(self, tmp_path):
        with pytest.raises(VisualizeError, match="zero"):
            emit_tilemap([row("empty", 0, 0, tweets=0)], tmp_path / "tiles.svg")

    def test_undefined_score_is_grey(self, tmp_path):
        rows = [row("alpha", 5, 5, npss=1.0, tweets=10),
                row("beta", 0, 0, tweets=10)]
        out = tmp_path / "tiles.svg"
        emit_tilemap(rows, out)
        assert self.rects(out)[1].get("fill") == "#808080"

    def test_ties_break_by_name(self, tmp_path):
        rows = [row("zulu", 5, 5, npss=0.5, tweets=10),
                row("alpha", 5, 5, npss=0.5, tweets=10)]
        out = tmp_path / "tiles.svg"
        emit_tilemap(rows, out)
        root = ET.parse(out).getroot()
        titles = [t.text for g in root.iter(f"{SVG}g")
                  for t in g.findall(f"{SVG}title")]
        assert titles[0].startswith("alpha:")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_tilemap(self.rows(), a)
        emit_tilemap(self.rows(), b)
        assert a.read_bytes() == b.read_bytes()


class TestLinegraph:
    def rows(self):
        out = []
        for i, start in enumerate([B0, B1, B2]):
            out.append(row("mycountry", 3 + i, 2, level="Country", parent="",
                           approach="Dictionary", start=start,
                           end=start.replace(hour=i + 1), npss=1.0))
            out.append(row("mycountry", 2, 2 + i, level="Country", parent="",
                           approach="MachineLearning", start=start,
                           end=start.replace(hour=i + 1), npss=0.5))
        return out

    @pytest.mark.parametrize("field", ["region", "approach"])
    def test_lone_surrogate_is_refused_before_staging(self, tmp_path, field):
        rows = self.rows()
        for r in rows:
            setattr(r, field, getattr(r, field) + "\ud83d")
        for name in ("line.svg", "line.csv"):
            (tmp_path / name).write_bytes(b"old bytes\n")
        with pytest.raises(VisualizeError, match=f"^linegraph: {field} .* is not valid UTF-8$"):
            emit_linegraph(rows, tmp_path / "line")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv", "line.svg"]
        assert {p.read_bytes() for p in tmp_path.iterdir()} == {b"old bytes\n"}

    def test_writes_both_files(self, tmp_path):
        svg_path, csv_path = emit_linegraph(self.rows(), tmp_path / "line")
        assert svg_path.name == "line.svg"
        assert csv_path.name == "line.csv"
        assert svg_path.exists() and csv_path.exists()

    def test_csv_round_trips_exactly(self, tmp_path):
        rows = self.rows()
        _, csv_path = emit_linegraph(rows, tmp_path / "line")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "bucket_start,region,approach,pss,npss,tweet_count"
        assert len(lines) == 7
        parsed = [line.split(",") for line in lines[1:]]
        by_key = {(r.bucket_start, r.approach): r for r in rows}
        from geosent.store import parse_instant
        for stamp, region, approach, pss, npss, tweets in parsed:
            source = by_key[(parse_instant(stamp), approach)]
            assert region == "mycountry"
            assert float(pss) == source.pss
            assert float(npss) == source.npss
            assert int(tweets) == source.tweet_count

    def test_csv_sorted_by_bucket_then_approach(self, tmp_path):
        _, csv_path = emit_linegraph(self.rows(), tmp_path / "line")
        keys = [tuple(line.split(",")[0:3:2])
                for line in csv_path.read_text().splitlines()[1:]]
        assert keys == sorted(keys)

    def test_inner_join_drops_lonely_buckets(self, tmp_path):
        rows = self.rows() + [
            row("mycountry", 9, 1, level="Country", parent="",
                approach="Dictionary", start=B3, npss=1.0),
        ]
        _, csv_path = emit_linegraph(rows, tmp_path / "line")
        stamps = {line.split(",")[0]
                  for line in csv_path.read_text().splitlines()[1:]}
        assert len(stamps) == 3
        assert "2013-07-22T03:00:00Z" not in stamps

    def test_one_polyline_per_approach(self, tmp_path):
        svg_path, _ = emit_linegraph(self.rows(), tmp_path / "line")
        root = ET.parse(svg_path).getroot()
        lines = root.findall(f"{SVG}polyline")
        assert len(lines) == 2
        assert {l.get("stroke") for l in lines} == {"#1f77b4", "#d62728"}

    def test_axis_labels_shift_with_timezone(self, tmp_path):
        svg_path, _ = emit_linegraph(self.rows(), tmp_path / "line",
                                     display_tz_offset_minutes=60)
        text = svg_path.read_text()
        assert "07-22 01:00" in text
        # data itself must not move: CSV stays in UTC
        _, csv_path = emit_linegraph(self.rows(), tmp_path / "line2",
                                     display_tz_offset_minutes=60)
        assert "2013-07-22T00:00:00Z" in csv_path.read_text()

    @pytest.mark.parametrize("first, offset, labels", [
        (utc(9999, 12, 31, 22), 120, ["01-01 00:00", "01-01 01:00"]),
        (utc(1, 1, 1, 0), -120, ["12-31 22:00", "12-31 23:00"]),
        # whole 400-year cycles of minutes, which timedelta cannot hold
        (B0, 10**13 * 146_097 * 1440 + 60, ["07-22 01:00", "07-22 02:00"]),
    ], ids=["after-9999", "before-year-1", "huge-offset"])
    def test_axis_labels_past_datetimes_range(self, tmp_path, first, offset, labels):
        rows = [row("mycountry", 2, 1, level="Country", parent="", start=start,
                    end=start + timedelta(minutes=59)) for start in (first, first + timedelta(hours=1))]
        svg_path, _ = emit_linegraph(rows, tmp_path / "line", display_tz_offset_minutes=offset)
        text = svg_path.read_text()
        assert all(f">{label}<" in text for label in labels)

    def test_single_approach_works(self, tmp_path):
        rows = [r for r in self.rows() if r.approach == "Dictionary"]
        svg_path, csv_path = emit_linegraph(rows, tmp_path / "line")
        root = ET.parse(svg_path).getroot()
        assert len(root.findall(f"{SVG}polyline")) == 1
        assert len(csv_path.read_text().splitlines()) == 4

    def test_mixed_regions_rejected(self, tmp_path):
        rows = self.rows()
        rows.append(row("othercountry", 1, 1, level="Country", parent="",
                        start=B0, npss=1.0))
        with pytest.raises(VisualizeError, match="region"):
            emit_linegraph(rows, tmp_path / "line")

    def test_duplicate_bucket_rejected(self, tmp_path):
        rows = self.rows()
        rows.append(rows[0])
        with pytest.raises(VisualizeError, match="duplicate"):
            emit_linegraph(rows, tmp_path / "line")

    def test_disjoint_buckets_rejected(self, tmp_path):
        rows = [
            row("mycountry", 1, 1, level="Country", parent="",
                approach="Dictionary", start=B0, npss=1.0),
            row("mycountry", 1, 1, level="Country", parent="",
                approach="MachineLearning", start=B1, npss=1.0),
        ]
        with pytest.raises(VisualizeError, match="share no buckets"):
            emit_linegraph(rows, tmp_path / "line")

    def test_deterministic(self, tmp_path):
        a = emit_linegraph(self.rows(), tmp_path / "a")
        b = emit_linegraph(self.rows(), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


def _torn_xml_write(lines, path):
    """The real writer, failing after the declaration and the first three lines."""
    def torn():
        yield from itertools.islice(lines, 3)
        raise OSError("injected write failure")
    _write_xml(torn(), path)


@pytest.mark.parametrize("output", ["map.kml", "tiles.svg", "line.svg", "line.csv"])
def test_failed_write_keeps_the_old_file(tmp_path, regions_file, monkeypatch, output):
    target = tmp_path / output
    # the line graph's two files are replaced together or not at all
    line_pair = [tmp_path / "line.svg", tmp_path / "line.csv"]
    targets = line_pair if target in line_pair else [target]
    for target in targets:
        target.write_bytes(b"old bytes\n")
    if output == "line.csv":
        # the third score cell fails once the header and first row are out
        monkeypatch.setattr(visualize, "_format_score", fail_on_call(visualize._format_score, 3))
    else:
        monkeypatch.setattr(visualize, "_write_xml", _torn_xml_write)
    with pytest.raises(OSError):
        if output == "map.kml":
            emit_kml(TestKml().rows(), load_regions(regions_file), target)
        elif output == "tiles.svg":
            emit_tilemap(TestTilemap().rows(), target)
        else:
            emit_linegraph(TestLinegraph().rows(), tmp_path / "line")
    assert [target.read_bytes() for target in targets] == [b"old bytes\n"] * len(targets)
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# golden bytes: sha256 of each renderer's output for fixed rows, so any change
# to the written bytes fails here, including on the multi-strip tile layout

GOLDEN_COUNTS = [(37, 11), (29, 4), (3, 22), (14, 9), (12, 12), (9, 2),
                 (0, 0), (5, 3), (2, 4), (3, 1), (1, 1), (0, 0)]

GOLDEN_SHA256 = {
    "map.kml": "0284ff557a5f76f19eff36751a71d86c4d93512380bc16a4b2a5f3c3fee2418c",
    "tiles.svg": "033de9563c53d0501776cb47a621bf0d7f952fa14c8f7b2a774fa75d90b7338e",
    "line.svg": "ed6ce40ae6911d4cc3b31c5c7e76bc42aff1737c48fe00392097f9700b1ecdee",
    "line.csv": "de0d6448353b825e5f06294dbca5836e8d384e3eae376d2acf259d4b3f10c2da",
}


def golden_bucket():
    """Twelve grid counties: one has tweets but no score, the last has no tweets."""
    out = []
    for k, (pos, neg) in enumerate(GOLDEN_COUNTS):
        tweets = 7 if k == 6 else pos + neg
        npss = None if pos == neg == 0 else round(k / 11, 6)
        out.append(row(f"county-{k // 4:02d}-{k % 4:02d}", pos, neg, parent="gridland",
                       tweets=tweets, npss=npss))
    return out


def golden_series():
    """Two approaches over five hourly buckets; one bucket has no score."""
    out = []
    for i in range(5):
        start, end = utc(2013, 7, 22, i), utc(2013, 7, 22, i + 1)
        ml = (0, 0) if i == 3 else (2 + 2 * i % 3, 1 + i)
        for approach, (pos, neg), npss in (("Dictionary", (4 + i, 3), i / 4),
                                           ("MachineLearning", ml, None if i == 3 else 0.5)):
            out.append(row("gridland", pos, neg, approach=approach, level="Country",
                           parent="", start=start, end=end, tweets=5 + i, npss=npss))
    return out


def test_renderers_write_the_recorded_bytes(tmp_path, grid_regions_file):
    rows = golden_bucket()
    emit_kml(rows, load_regions(grid_regions_file(4)), tmp_path / "map.kml")
    emit_tilemap(rows, tmp_path / "tiles.svg")
    emit_linegraph(golden_series(), tmp_path / "line")
    # the bucket takes the multi-strip path of the tile layout
    tiles = ET.parse(tmp_path / "tiles.svg").getroot().iter(f"{SVG}rect")
    assert len({r.get("x") for r in tiles if r.get("fill") != "#ffffff"}) >= 3
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# the text renderers against the ElementTree renderers they replaced

# markup and quote characters, CR, control characters, whitespace-only runs,
# non-BMP characters and lone surrogates, among ordinary text
TEXT = st.one_of(
    st.sampled_from(["", " ", " \t ", "\r\n", "Dictionary", "MachineLearning"]),
    st.text(st.one_of(
        st.sampled_from("&<>\"' \t\r\n\x00\x01\x0b\x1f\x7f\x85"),
        st.characters(min_codepoint=0x10000, max_codepoint=0x1F9FF),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.characters(),
    ), max_size=8),
)
NPSS = st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([0.5, 1 / 510, 2 / 15]))
# a few large volumes and many small ones, so tiles fall into several strips
VOLUME = st.one_of(st.integers(0, 9), st.integers(10, 10**6))


def rendered(render):
    """The bytes of every file render(path) wrote into a fresh directory, or the error it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            render(Path(tmp) / "out")
        except (VisualizeError, UnicodeEncodeError) as exc:
            return type(exc).__name__, str(exc)
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


def bucket_rows(cells, approach="Dictionary"):
    return [ScoreRow(approach=approach, level="County", region=name, parent="land",
                     bucket_start=B0, bucket_end=B1, pos_count=volume, neg_count=0,
                     tweet_count=volume, pss=None if npss is None else float(volume),
                     npss=npss)
            for name, volume, npss in cells]


CELLS = st.lists(st.tuples(TEXT, VOLUME, NPSS), min_size=1, max_size=40,
                 unique_by=lambda cell: cell[0])


@settings(max_examples=200, deadline=None)
@given(cells=CELLS, approach=TEXT)
def test_tilemap_matches_elementtree(cells, approach):
    rows = bucket_rows(cells, approach)
    assert (rendered(lambda out: emit_tilemap(rows, out))
            == rendered(lambda out: oracles.emit_tilemap_etree(rows, out)))


def ring(x0, y0, side):
    return [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]


@settings(max_examples=150, deadline=None)
@given(cells=CELLS, approach=TEXT, data=st.data())
def test_kml_matches_elementtree(cells, approach, data):
    # each region: one to three parts, each part a square with zero to two square holes
    polygons = [RegionPolygon("land", "Country", "", ring(0.0, 0.0, 1e3), [], (0.0, 0.0, 1e3, 1e3))]
    for k, (name, _, _) in enumerate(cells):
        if name == UNASSIGNED:
            continue
        for p in range(data.draw(st.integers(1, 3))):
            x0, y0 = 10.0 * k + 3.25 * p, data.draw(st.floats(-90, 80))
            holes = [ring(x0 + 0.5 + h, y0 + 0.5, 0.25)
                     for h in range(data.draw(st.integers(0, 2)))]
            polygons.append(RegionPolygon(name, "County", "land", ring(x0, y0, 3.0), holes,
                                          (x0, y0, x0 + 3.0, y0 + 3.0)))
    index = RegionIndex(polygons)
    rows = bucket_rows(cells, approach)
    # the synthetic county is skipped, as if its row were not there
    drawn = [r for r in rows if r.region != UNASSIGNED]
    if data.draw(st.booleans()) and len(drawn) == len(rows):
        rows.insert(data.draw(st.integers(0, len(rows))),
                    bucket_rows([(UNASSIGNED, 4, 0.5)], approach)[0])
    if not drawn:
        return
    assert (rendered(lambda out: emit_kml(rows, index, out))
            == rendered(lambda out: oracles.emit_kml_etree(drawn, index, out)))


@settings(max_examples=150, deadline=None)
@given(region=TEXT,
       approaches=st.lists(TEXT, min_size=1, max_size=3, unique=True),
       hours=st.sampled_from([1, 2, 5, 9, 30]),
       data=st.data())
def test_linegraph_matches_elementtree(region, approaches, hours, data):
    rows = []
    for approach in approaches:
        for h in range(hours):
            pss = data.draw(st.one_of(st.none(), st.floats(0.0, 1e6)))
            rows.append(ScoreRow(approach=approach, level="Country", region=region, parent="",
                                 bucket_start=B0 + timedelta(hours=h),
                                 bucket_end=B0 + timedelta(hours=h + 1), pos_count=1,
                                 neg_count=1, tweet_count=2, pss=pss,
                                 npss=None if pss is None else 0.5))
    # a bucket only the first approach has is dropped by both
    rows.append(ScoreRow(approach=approaches[0], level="Country", region=region, parent="",
                         bucket_start=B0 - timedelta(hours=1), bucket_end=B0, pos_count=1,
                         neg_count=0, tweet_count=1, pss=1.0, npss=1.0))
    tz = data.draw(st.integers(-720, 720))
    got = rendered(lambda out: emit_linegraph(rows, out, tz))
    want = rendered(lambda out: oracles.emit_linegraph_etree(rows, out, tz))
    if isinstance(want, tuple) and want[0] == "UnicodeEncodeError":
        # the oracle fails in its CSV on a lone surrogate; the renderer refuses it before staging
        assert got[0] == "VisualizeError" and "is not valid UTF-8" in got[1]
    else:
        assert got == want
    # the SVG on its own, which the CSV cannot block: a lone surrogate fails the CSV
    by_approach = {a: {r.bucket_start: r for r in rows if r.approach == a} for a in approaches}
    buckets = [B0 + timedelta(hours=h) for h in range(hours)]
    with tempfile.TemporaryDirectory() as tmp:
        text, tree = Path(tmp) / "text.svg", Path(tmp) / "tree.svg"
        _write_xml(visualize._linegraph_svg(
            region, sorted(approaches), by_approach, buckets, tz), text)
        oracles.write_xml_etree(oracles.linegraph_svg_etree(
            region, sorted(approaches), by_approach, buckets, tz), tree)
        assert text.read_bytes() == tree.read_bytes()


@settings(max_examples=300)
@given(NPSS.filter(lambda npss: npss is not None))
def test_color_for_matches_generator_ramp(npss):
    assert color_for(npss) == oracles.color_for_generator(npss)
