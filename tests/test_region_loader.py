"""load_regions against the reference loader, and what a load holds in memory."""
import json
import pickle
import random
import tempfile
import tracemalloc
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

from hypothesis import given, settings, strategies as st

from geosent.georesolve import GeoError, load_regions, resolve

from oracles import load_regions_reference

# int and float positions, both kinds of zero among them
COORDS = st.integers(-180, 180) | st.floats(-180.0, 180.0, allow_nan=False)


@st.composite
def rings(draw):
    """Three to five distinct positions, closed (first repeated last) or open."""
    points = draw(st.lists(st.tuples(COORDS, COORDS), min_size=3, max_size=5, unique=True))
    ring = [list(point) for point in points]
    if draw(st.booleans()):
        ring.append(list(points[0]))
    return ring


@st.composite
def geometries(draw):
    """A Polygon or a MultiPolygon; every part is an exterior ring and at most one hole."""
    parts = draw(st.lists(st.lists(rings(), min_size=1, max_size=2), min_size=1, max_size=2))
    if len(parts) == 1 and draw(st.booleans()):
        return {"type": "Polygon", "coordinates": parts[0]}
    return {"type": "MultiPolygon", "coordinates": parts}


def feature(name, level, parent, geometry):
    return {"type": "Feature", "properties": {"name": name, "level": level, "parent": parent},
            "geometry": geometry}


@st.composite
def region_docs(draw):
    """A valid FeatureCollection: countries at random places in file order,
    so a county may come before its country."""
    countries = [f"land{k}" for k in range(draw(st.integers(1, 3)))]
    features = [feature(f"county{k}", "County", draw(st.sampled_from(countries)), draw(geometries()))
                for k in range(draw(st.integers(0, 4)))]
    for name in countries:
        parent = draw(st.sampled_from([None, "", 3, "elsewhere"]))  # ignored for a country
        features.insert(draw(st.integers(0, len(features))),
                        feature(name, "Country", parent, draw(geometries())))
    return {"type": "FeatureCollection", "features": features}


BAD_FEATURES = [None, 1, "feature", []]
BAD_PROPERTIES = [None, [], "name"]
BAD_LEVELS = [None, 3, "country", "Region"]
BAD_FIELDS = [None, 7, True, "", "a\tb", "a\nb", "x\ud83d"]
BAD_GEOMETRIES = [
    None, [], {"type": "Point", "coordinates": [0, 0]}, {"type": "Polygon"},
    {"type": "Polygon", "coordinates": []}, {"type": "MultiPolygon", "coordinates": {}},
    {"type": "MultiPolygon", "coordinates": [[]]}, {"type": "MultiPolygon", "coordinates": [None]},
]
BAD_RINGS = [
    None, {}, [], [[0, 0], [1, 1]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [1, 0], [1]],
    [[0, 0], [1, 0], 5], [[0, 0], [1, 0], [True, 1]], [[0, 0], [1, 0], ["1", 1]],
    [[0, 0], [1, 0], [10 ** 400, 1]], [[0, 0], [1, 0], [float("nan"), 1]],
    [[0, 0], [1, 0], [1, float("inf")]],
]
FAULTS = ["json", "collection", "features", "feature", "properties", "level", "name", "parent",
          "reserved", "duplicate", "unknown parent", "geometry", "ring"]


@st.composite
def faulty_region_files(draw):
    """The text of a valid region file with one fault put in."""
    doc = draw(region_docs())
    features = doc["features"]
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(features) - 1))
    props = features[at]["properties"]
    if fault == "collection":
        doc = draw(st.sampled_from([dict(doc, type="Feature"), features, "FeatureCollection"]))
    elif fault == "features":
        doc["features"] = draw(st.sampled_from([[], {}, None]))
    elif fault == "feature":
        features[at] = draw(st.sampled_from(BAD_FEATURES))
    elif fault == "properties":
        features[at]["properties"] = draw(st.sampled_from(BAD_PROPERTIES))
    elif fault == "level":
        props["level"] = draw(st.sampled_from(BAD_LEVELS))
    elif fault == "name":
        props["name"] = draw(st.sampled_from(BAD_FIELDS))
    elif fault == "parent":
        props.update(level="County", parent=draw(st.sampled_from(BAD_FIELDS)))
    elif fault == "reserved":
        props["name"] = "unassigned"
    elif fault == "duplicate":
        other = features[draw(st.integers(0, len(features) - 1))]["properties"]
        props.update(name=other["name"], level=other["level"], parent=other["parent"])
        if other is props:
            features.append(json.loads(json.dumps(features[at])))
    elif fault == "unknown parent":
        props.update(level="County", parent="atlantis")
    elif fault == "geometry":
        features[at]["geometry"] = draw(st.sampled_from(BAD_GEOMETRIES))
    elif fault == "ring":
        geometry = features[at]["geometry"]
        parts = [geometry["coordinates"]] if geometry["type"] == "Polygon" else geometry["coordinates"]
        part = draw(st.sampled_from(parts))
        part[draw(st.integers(0, len(part) - 1))] = draw(st.sampled_from(BAD_RINGS))
    text = json.dumps(doc)
    if fault == "json":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def load_both(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "regions.geojson"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for load in (load_regions_reference, load_regions):
            try:
                outcomes.append(load(path))
            except GeoError as exc:
                outcomes.append(str(exc))
    return outcomes


@settings(max_examples=250, deadline=None)
@given(faulty_region_files())
def test_a_fault_raises_the_reference_error(text):
    reference, got = load_both(text)
    assert isinstance(reference, str), "the fault was not refused"
    assert got == reference


def polygon_fields(index):
    return [(p.name, p.level, p.parent, p.exterior, p.holes, p.bbox) for p in index.polygons]


def cell_members(index):
    return [[(p.level, p.name) for p in cell] for cell in index._cells]


@settings(max_examples=100, deadline=None)
@given(region_docs())
def test_a_valid_file_loads_as_the_reference_loads_it(doc):
    reference, got = load_both(json.dumps(doc))
    assert polygon_fields(got) == polygon_fields(reference)
    assert cell_members(got) == cell_members(reference)
    assert got._box == reference._box
    assert (got._x_axis, got._y_axis) == (reference._x_axis, reference._y_axis)


def test_load_peak_stays_near_what_the_index_keeps(grid_regions_file):
    # the decoded document is freed as the polygons grow, so the two are never whole at once
    path = grid_regions_file(56)
    tracemalloc.start()
    try:
        index = load_regions(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.polygons) == 56 * 56 + 1
    assert peak < 1.8 * kept, (peak, kept)


def test_slotted_index_survives_a_pool_pickle(grid_regions_file):
    index = load_regions(grid_regions_file(56))
    copy = pickle.loads(ForkingPickler.dumps(index))
    assert not hasattr(copy.polygons[0], "__dict__")
    assert copy.polygons == index.polygons
    rng = random.Random(29)
    for _ in range(300):
        lat, lon = (float(rng.randint(0, 56)) if rng.random() < 0.3 else rng.uniform(-0.5, 56.5)
                    for _ in range(2))
        assert resolve(copy, lat, lon) == resolve(index, lat, lon), (lat, lon)
