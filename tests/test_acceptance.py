"""Headline guarantees, one numbered criterion per test family.

The conftest terminal summary turns these into one PASS/FAIL line per
criterion.  Criterion 1 replays a frozen daily reference table through
the scoring arithmetic; eleven of its 48 comparisons are known not to
close within the tight tolerance from the recorded counts alone, and
they are left failing rather than padded.  README covers the details.
A wider-tolerance sweep over the same table passes in full and lives at
the bottom of the criterion 1 section.

Criterion 8 is marked slow (about ten minutes all in); run it with
`python3 -m pytest tests/test_acceptance.py -m ""`.
"""

import json
import random
import time
from datetime import timedelta
from xml.etree import ElementTree as ET

import pytest

from geosent.classifier import (
    LabeledTweet,
    classify,
    distant_label,
    evaluate,
    features,
    load_model,
    train,
)
from geosent.estimator import (
    AggregationSpec,
    ScoreSeries,
    aggregate,
    compute_pss,
    correlate,
)
from geosent.gencorpus import (
    FILLER_WORDS,
    MixEntry,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    generate,
)
from geosent.georesolve import contains, load_regions, resolve
from geosent.ingest import parse_corpus
from geosent.lexicon import DictionaryAnalyser, load_lexicon
from geosent.store import ScoreRow, read_scores
from geosent.visualize import emit_kml, emit_linegraph, emit_tilemap, fmt4

from conftest import grid_regions, square, utc
from oracles import nb_label, normalize, wn_contains

# ---------------------------------------------------------------------------
# criterion 1: daily reference table arithmetic

COUNTRIES = ("England", "Scotland", "Wales", "N.Ireland")

# (day, country) -> approach -> (pos, neg, printed_pss, printed_npss).
# Frozen reference data.  The England and N. Ireland cells of day 22 are
# transposed in the source table, so those two are compared crosswise.
DAILY_REFERENCE = {
    (21, "England"): {
        "Dictionary": (166607, 100244, 1.6620, 1.0000),
        "MachineLearning": (159928, 155730, 1.0270, 0.8925),
    },
    (21, "Scotland"): {
        "Dictionary": (20384, 14685, 1.3880, 0.8351),
        "MachineLearning": (19548, 19685, 0.9930, 0.8630),
    },
    (21, "Wales"): {
        "Dictionary": (11379, 7881, 1.4439, 0.8688),
        "MachineLearning": (11943, 10379, 1.1507, 1.0000),
    },
    (21, "N.Ireland"): {
        "Dictionary": (4389, 2809, 1.5625, 0.9401),
        "MachineLearning": (4141, 3723, 1.1123, 0.9666),
    },
    (22, "England"): {
        "Dictionary": (176784, 102189, 1.7398, 1.0000),
        "MachineLearning": (162986, 159568, 1.0992, 0.9648),
    },
    (22, "Scotland"): {
        "Dictionary": (5247, 3779, 1.3884, 0.7980),
        "MachineLearning": (5074, 5238, 0.9686, 0.8502),
    },
    (22, "Wales"): {
        "Dictionary": (12522, 8184, 1.5301, 0.8794),
        "MachineLearning": (12197, 10707, 1.1392, 1.0000),
    },
    (22, "N.Ireland"): {
        "Dictionary": (4755, 2733, 1.7299, 0.9943),
        "MachineLearning": (4205, 3826, 1.0214, 0.8966),
    },
    (23, "England"): {
        "Dictionary": (188931, 120948, 1.5621, 0.8801),
        "MachineLearning": (174045, 177156, 0.9824, 0.8535),
    },
    (23, "Scotland"): {
        "Dictionary": (7509, 5444, 1.3793, 0.7771),
        "MachineLearning": (6815, 7001, 0.9734, 0.8460),
    },
    (23, "Wales"): {
        "Dictionary": (13039, 8997, 1.4493, 0.8166),
        "MachineLearning": (12967, 11266, 1.1510, 1.0000),
    },
    (23, "N.Ireland"): {
        "Dictionary": (4755, 2679, 1.7749, 1.0000),
        "MachineLearning": (4312, 3910, 1.1028, 0.9581),
    },
}

_TRANSPOSED = {(22, "England"): (22, "N.Ireland"), (22, "N.Ireland"): (22, "England")}

TIGHT = 0.00005 + 1e-12
WIDE = 0.0005 + 1e-12


def _group_scores(day, approach):
    """Recompute the absolute and relative scores of one day and approach."""
    pss = {}
    for country in COUNTRIES:
        pos, neg, _, _ = DAILY_REFERENCE[(day, country)][approach]
        pss[country] = compute_pss(pos, neg)
    npss = dict(normalize(sorted(pss.items())))
    return pss, npss


def _printed(day, country, approach):
    key = _TRANSPOSED.get((day, country), (day, country))
    _, _, printed_pss, printed_npss = DAILY_REFERENCE[key][approach]
    return printed_pss, printed_npss


_REFERENCE_CASES = [
    (day, country, approach, metric)
    for day in (21, 22, 23)
    for country in COUNTRIES
    for approach in ("Dictionary", "MachineLearning")
    for metric in ("pss", "npss")
]


@pytest.mark.parametrize(
    "day,country,approach,metric",
    _REFERENCE_CASES,
    ids=[f"{d}-{c}-{a}-{m}" for d, c, a, m in _REFERENCE_CASES],
)
def test_criterion_1_reference_table(day, country, approach, metric):
    pss, npss = _group_scores(day, approach)
    computed = pss[country] if metric == "pss" else npss[country]
    printed_pss, printed_npss = _printed(day, country, approach)
    printed = printed_pss if metric == "pss" else printed_npss
    rounded = float(fmt4(computed))
    assert abs(rounded - printed) <= TIGHT, (
        f"{metric} from counts is {computed:.7f} (prints as {rounded:.4f}), "
        f"reference prints {printed:.4f}"
    )


def test_reference_table_within_wider_tolerance():
    # every cell closes at five print-ulps even where the tight bound fails
    for day, country, approach, metric in _REFERENCE_CASES:
        pss, npss = _group_scores(day, approach)
        computed = pss[country] if metric == "pss" else npss[country]
        printed_pss, printed_npss = _printed(day, country, approach)
        printed = printed_pss if metric == "pss" else printed_npss
        assert abs(computed - printed) <= WIDE


# ---------------------------------------------------------------------------
# criteria 2 and 3: bundled fixture corpus end to end

WINDOW = (utc(2013, 7, 22), utc(2013, 7, 23))


@pytest.fixture(scope="module")
def fixture_parsed(tmp_path_factory, corpus_file, regions_file):
    parsed = tmp_path_factory.mktemp("acceptance") / "parsed.tsv"
    index = load_regions(regions_file)
    stats = parse_corpus(corpus_file, index, parsed)
    assert stats.accepted == 9
    return parsed


def test_criterion_2_dictionary_end_to_end(fixture_parsed, lexicon_file):
    started = time.monotonic()
    analyser = DictionaryAnalyser(load_lexicon(lexicon_file))
    country_rows = aggregate(
        AggregationSpec("Country", WINDOW, 86_400), fixture_parsed, analyser)
    county_rows = aggregate(
        AggregationSpec("County", WINDOW, 86_400), fixture_parsed, analyser)
    elapsed = time.monotonic() - started

    (country,) = country_rows
    assert (country.pos_count, country.neg_count) == (12, 5)
    assert country.pss == 2.4
    assert country.npss == 1.0

    by_region = {row.region: row for row in county_rows}
    assert {fmt4(row.pss) for row in county_rows} == {"5.0000", "0.6667"}
    assert by_region["happycounty"].npss == 1.0
    small = by_region["sadcounty"].npss
    assert fmt4(small) == "0.1333"
    assert abs(small - 0.132) <= 0.002
    assert elapsed < 1.0


def test_criterion_3_classifier_end_to_end(fixture_parsed, model_file):
    from geosent.classifier import ModelAnalyser

    started = time.monotonic()
    analyser = ModelAnalyser(load_model(model_file))
    country_rows = aggregate(
        AggregationSpec("Country", WINDOW, 86_400), fixture_parsed, analyser)
    county_rows = aggregate(
        AggregationSpec("County", WINDOW, 86_400), fixture_parsed, analyser)
    elapsed = time.monotonic() - started

    (country,) = country_rows
    assert (country.pos_count, country.neg_count) == (5, 4)
    assert country.pss == 1.25

    by_region = {row.region: row for row in county_rows}
    assert by_region["happycounty"].npss == 1.0
    small = by_region["sadcounty"].npss
    assert fmt4(small) == "0.0833"
    assert abs(small - 0.0825) <= 0.002
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 4: classifier guarantees


def test_criterion_4_exact_oracle_agreement():
    model = train([
        LabeledTweet("happy joy happy", "Positive"),
        LabeledTweet("sad cry", "Negative"),
    ])
    vocab_size = len(model.vocabulary)
    assert vocab_size == 4
    # hand-checkable smoothed conditionals
    positive_denom = model.totals["Positive"] + vocab_size
    negative_denom = model.totals["Negative"] + vocab_size
    assert (model.token_counts["Positive"]["happy"] + 1) / positive_denom == 3 / 7
    assert (model.token_counts["Negative"].get("happy", 0) + 1) / negative_denom == 1 / 6

    oracle_docs = [
        ("Positive", ["happy", "joy", "happy"]),
        ("Negative", ["sad", "cry"]),
    ]
    inputs = [
        "happy", "joy", "sad", "cry",
        "happy joy", "sad cry", "happy sad", "joy cry",
        "happy happy", "cry cry", "happy cry sad", "joy sad cry",
        "happy joy sad", "happy sad cry joy", "happy happy sad sad",
        "joy joy cry", "", "wholly unknown words", "happy unknown",
        "cry unknown sad",
    ]
    assert len(inputs) == 20
    for text in inputs:
        label, margin = classify(model, text)
        assert label == nb_label(oracle_docs, features(text)), text
        assert (margin >= 0.0) == (label == "Positive")


def test_criterion_4_synthetic_accuracy():
    rng = random.Random(20130722)
    texts = []
    for i in range(2000):
        upbeat = i % 2 == 0
        words = [rng.choice(POSITIVE_WORDS if upbeat else NEGATIVE_WORDS)
                 for _ in range(rng.randint(1, 3))]
        words += [rng.choice(FILLER_WORDS) for _ in range(rng.randint(2, 5))]
        rng.shuffle(words)
        tail = rng.choice((":)", ":D", "=)")) if upbeat else rng.choice((":(", "=("))
        texts.append(" ".join(words) + " " + tail)

    labeled = list(distant_label(texts))
    assert len(labeled) == 2000
    rng.shuffle(labeled)
    cut = 1600
    model = train(labeled[:cut])
    report = evaluate(model, labeled[cut:])
    assert report.total == 400
    assert report.accuracy >= 0.90


def test_criterion_4_smoothing_normalisation(model_file):
    models = [
        load_model(model_file),
        train([LabeledTweet("happy joy happy", "Positive"),
               LabeledTweet("sad cry", "Negative")]),
    ]
    for model in models:
        for label in ("Positive", "Negative"):
            denom = model.totals[label] + len(model.vocabulary)
            mass = sum(
                (model.token_counts[label].get(tok, 0) + 1) / denom
                for tok in model.vocabulary
            )
            assert abs(mass - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 5: correlation properties


def _series(values, approach="Dictionary"):
    points = [(utc(2013, 7, 22) + timedelta(hours=i), float(v))
              for i, v in enumerate(values)]
    return ScoreSeries(region="x", approach=approach, points=points)


def test_criterion_5_identical_series():
    r = correlate(_series([1, 2, 3]), _series([1, 2, 3], "MachineLearning"))
    assert abs(r - 1.0) <= 1e-12


def test_criterion_5_anticorrelated_series():
    r = correlate(_series([1, 2, 3]), _series([3, 2, 1], "MachineLearning"))
    assert abs(r + 1.0) <= 1e-12


def test_criterion_5_reference_value():
    r = correlate(_series([1, 2, 3]), _series([1, 2, 4], "MachineLearning"))
    assert abs(r - 0.9820) <= 0.0001


def test_criterion_5_symmetry():
    rng = random.Random(5)
    for _ in range(25):
        a = _series([rng.uniform(0, 5) for _ in range(8)])
        b = _series([rng.uniform(0, 5) for _ in range(8)], "MachineLearning")
        assert abs(correlate(a, b) - correlate(b, a)) <= 1e-12


def test_criterion_5_range():
    rng = random.Random(6)
    for _ in range(50):
        a = _series([rng.uniform(0, 50) for _ in range(6)])
        b = _series([rng.uniform(0, 50) for _ in range(6)], "MachineLearning")
        assert -1.0 <= correlate(a, b) <= 1.0


# ---------------------------------------------------------------------------
# criterion 6: containment against an independent oracle


def _awkward_geometry(tmp_path):
    """Rectilinear shapes that stress the crossing count: an L, a donut,
    and a two-part county, all inside one country square."""
    ell = [[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [1.0, 1.0], [1.0, 3.0],
           [0.0, 3.0], [0.0, 0.0]]
    donut_outer = square(4.0, 0.0, 8.0, 4.0)
    donut_hole = square(5.0, 1.0, 7.0, 3.0)
    part_a = square(0.0, 4.0, 2.0, 6.0)
    part_b = square(3.0, 4.0, 5.0, 6.0)
    path = tmp_path / "awkward.geojson"
    path.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature",
             "properties": {"region_id": "ell", "name": "ellshire",
                            "level": "County", "parent": "testland"},
             "geometry": {"type": "Polygon", "coordinates": [ell]}},
            {"type": "Feature",
             "properties": {"region_id": "donut", "name": "ringmoor",
                            "level": "County", "parent": "testland"},
             "geometry": {"type": "Polygon",
                          "coordinates": [donut_outer, donut_hole]}},
            {"type": "Feature",
             "properties": {"region_id": "twin", "name": "twinfield",
                            "level": "County", "parent": "testland"},
             "geometry": {"type": "MultiPolygon",
                          "coordinates": [[part_a], [part_b]]}},
            {"type": "Feature",
             "properties": {"region_id": "land", "name": "testland",
                            "level": "Country", "parent": ""},
             "geometry": {"type": "Polygon",
                          "coordinates": [square(-1.0, -1.0, 9.0, 7.0)]}},
        ],
    }), encoding="utf-8")
    return path


def test_criterion_6_matches_winding_oracle(tmp_path):
    index = load_regions(_awkward_geometry(tmp_path))
    rng = random.Random(2013)
    # every edge sits on an integer lon or lat; these coordinates are odd
    # multiples of 1/4096, so no point can touch a boundary
    def off_grid(lo, hi):
        return rng.randrange(lo * 2048, hi * 2048) / 2048 + 1 / 4096

    checked = 0
    for _ in range(10_000):
        lon = off_grid(-1, 9)
        lat = off_grid(-1, 7)
        for part in index.polygons:
            assert contains(part, lat, lon) == wn_contains(
                part.exterior, part.holes, lat, lon), (lat, lon)
            checked += 1
    assert checked == 10_000 * 5


def test_criterion_6_shared_borders(tmp_path):
    path = tmp_path / "grid.geojson"
    path.write_text(json.dumps(grid_regions(3)), encoding="utf-8")
    index = load_regions(path)
    counties = [poly for poly in index.polygons if poly.level == "County"]
    rng = random.Random(99)
    for _ in range(200):
        if rng.random() < 0.5:
            lon, lat = float(rng.randint(1, 2)), rng.uniform(0.1, 2.9)
        else:
            lon, lat = rng.uniform(0.1, 2.9), float(rng.randint(1, 2))
        owners = {poly.name for poly in counties if contains(poly, lat, lon)}
        assert len(owners) == 1, (lat, lon, owners)
        country, county = resolve(index, lat, lon)
        assert county in owners


# ---------------------------------------------------------------------------
# criterion 7: emitter output contracts


def _score_row(region, npss, tweets, *, level="County", parent="gridland",
               approach="Dictionary"):
    return ScoreRow(
        approach=approach, level=level, region=region, parent=parent,
        bucket_start=utc(2013, 7, 22), bucket_end=utc(2013, 7, 23),
        pos_count=tweets, neg_count=0, tweet_count=tweets,
        pss=float(tweets), npss=npss,
    )


def test_criterion_7_kml_strict_xml_and_colors(grid_regions_file, tmp_path):
    index = load_regions(grid_regions_file(2))
    rows = [
        _score_row("county-00-00", 0.0, 10),
        _score_row("county-00-01", 1.0, 10),
        _score_row("county-01-00", 0.5, 10),
        _score_row("county-01-01", 0.25, 10),
    ]
    out = tmp_path / "map.kml"
    emit_kml(rows, index, out)
    root = ET.parse(out).getroot()  # strict parse
    ns = "{http://www.opengis.net/kml/2.2}"
    colors = [style.find(f"{ns}color").text for style in root.iter(f"{ns}PolyStyle")]
    assert colors[:3] == ["ff0000ff", "ff00ff00", "ff008080"]


def test_criterion_7_tile_area_proportionality(tmp_path):
    volumes = [600, 250, 100, 40, 10]
    rows = [_score_row(f"county-{i:02d}-00", i / 4, v)
            for i, v in enumerate(volumes)]
    out = tmp_path / "tiles.svg"
    emit_tilemap(rows, out)
    root = ET.parse(out).getroot()  # strict parse
    ns = "{http://www.w3.org/2000/svg}"
    rects = [r for r in root.iter(f"{ns}rect") if r.get("fill") != "#ffffff"]
    assert len(rects) == len(volumes)
    total = sum(volumes)
    groups = root.findall(f"{ns}g")
    for group, rect in zip(groups, rects):
        name = group.find(f"{ns}title").text.split(":")[0]
        volume = volumes[int(name.split("-")[1])]
        area = float(rect.get("width")) * float(rect.get("height"))
        assert area == pytest.approx(volume / total * 1000 * 600, rel=0.01)


def test_criterion_7_linegraph_csv_round_trip(tmp_path):
    awkward = [1 / 3, 2 / 7, 0.1 + 0.2, 5 / 9]
    rows = []
    for i, value in enumerate(awkward):
        start = utc(2013, 7, 22, i)
        rows.append(ScoreRow(
            approach="Dictionary", level="Country", region="testland",
            parent="", bucket_start=start, bucket_end=utc(2013, 7, 22, i + 1),
            pos_count=3, neg_count=9, tweet_count=12,
            pss=value, npss=value / 2,
        ))
    svg_path, csv_path = emit_linegraph(rows, tmp_path / "line")
    ET.parse(svg_path)  # strict parse
    lines = csv_path.read_text().splitlines()[1:]
    assert [float(line.split(",")[3]) for line in lines] == awkward
    assert [float(line.split(",")[4]) for line in lines] == [v / 2 for v in awkward]


# ---------------------------------------------------------------------------
# criterion 8: bulk throughput (slow)


@pytest.mark.slow
def test_criterion_8_bulk_pipeline(tmp_path):
    from geosent.cli import main

    side = 10
    regions = tmp_path / "grid.geojson"
    regions.write_text(json.dumps(grid_regions(side)), encoding="utf-8")
    index = load_regions(regions)
    per_county = 1_000_000 // (side * side)
    mix = [MixEntry("County", f"county-{i:02d}-{j:02d}",
                    per_county // 2, per_county - per_county // 2)
           for i in range(side) for j in range(side)]
    raw = tmp_path / "raw.jsonl"
    total = generate(index, mix, 8, raw, utc(2013, 7, 22))
    assert total == 1_000_000

    def run_pipeline(tag, threads):
        cfg = tmp_path / f"pipe-{tag}.cfg"
        cfg.write_text(
            f"raw = {raw}\n"
            f"regions = {regions}\n"
            f"parsed = {tmp_path / f'parsed-{tag}.tsv'}\n"
            f"scores = {tmp_path / f'scores-{tag}.tsv'}\n"
            "start = 2013-07-22T00:00:00Z\n"
            "end = 2013-07-23T00:00:00Z\n"
            "approaches = dictionary\n"
            "levels = country,county\n"
            f"threads = {threads}\n"
            f"kml_out = {tmp_path / f'map-{tag}.kml'}\n"
            f"tilemap_out = {tmp_path / f'tiles-{tag}.svg'}\n"
        )
        started = time.monotonic()
        assert main(["pipeline", "--config", str(cfg)]) == 0
        return time.monotonic() - started

    elapsed = run_pipeline("one", threads=1)
    assert elapsed < 300.0, f"dictionary pipeline took {elapsed:.0f}s"

    run_pipeline("two", threads=2)
    for stem in ("parsed-{}.tsv", "scores-{}.tsv", "map-{}.kml", "tiles-{}.svg"):
        one = (tmp_path / stem.format("one")).read_bytes()
        two = (tmp_path / stem.format("two")).read_bytes()
        assert one == two, f"{stem} differs between thread counts"

    rows = read_scores(tmp_path / "scores-one.tsv")
    assert len(rows) == side * side + 1


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns of every subcommand


def _setup_inputs(tmp_path, corpus_file, regions_file):
    from geosent.cli import main

    parsed = tmp_path / "parsed.tsv"
    assert main(["parse", "--raw", str(corpus_file),
                 "--regions", str(regions_file), "--parsed", str(parsed)]) == 0
    daily = tmp_path / "daily.tsv"
    hourly = tmp_path / "hourly.tsv"
    window = ["--start", "2013-07-22T00:00:00Z", "--end", "2013-07-23T00:00:00Z"]
    first = True
    for approach in ("dictionary", "ml"):
        for level in ("country", "county"):
            flags = [] if first else ["--append"]
            first = False
            assert main(["score", "--parsed", str(parsed), "--scores", str(daily),
                         "--approach", approach, "--level", level,
                         *window, *flags]) == 0
    for approach, flags in (("dictionary", []), ("ml", ["--append"])):
        assert main(["score", "--parsed", str(parsed), "--scores", str(hourly),
                     "--approach", approach, "--level", "country",
                     "--bucket", "3600", *window, *flags]) == 0


def _rerun_argv(command, tag, tmp_path, corpus_file, regions_file, training_file):
    """One run of command, its outputs named by tag: the argv and the files it writes.

    score and the renders read the tables _setup_inputs writes.
    """
    window = ["--start", "2013-07-22T00:00:00Z", "--end", "2013-07-23T00:00:00Z"]
    if command == "collect":
        out = tmp_path / f"raw-{tag}.jsonl"
        return ["collect", "--raw", str(out), "--input", str(corpus_file)], [out]
    if command == "parse":
        out = tmp_path / f"parsed-{tag}.tsv"
        return ["parse", "--raw", str(corpus_file),
                "--regions", str(regions_file), "--parsed", str(out)], [out]
    if command == "score":
        out = tmp_path / f"scores-{tag}.tsv"
        return ["score", "--parsed", str(tmp_path / "parsed.tsv"), "--scores", str(out),
                "--approach", "dictionary", "--level", "county", *window], [out]
    if command == "train":
        out = tmp_path / f"model-{tag}.nb"
        return ["train", "--model", str(out), "--labeled", str(training_file)], [out]
    if command == "gen-corpus":
        out = tmp_path / f"gen-{tag}.jsonl"
        return ["gen-corpus", "--regions", str(regions_file), "--out", str(out),
                "--seed", "12", "--start", "2013-07-22T00:00:00Z",
                "--mix", "happycounty:20:5", "--mix", "sadcounty:5:20"], [out]
    if command == "render-kml":
        out = tmp_path / f"map-{tag}.kml"
        return ["render", "--kind", "kml", "--scores", str(tmp_path / "daily.tsv"),
                "--regions", str(regions_file), "--out", str(out)], [out]
    if command == "render-tilemap":
        out = tmp_path / f"tiles-{tag}.svg"
        return ["render", "--kind", "tilemap", "--scores", str(tmp_path / "daily.tsv"),
                "--out", str(out)], [out]
    if command == "render-linegraph":
        prefix = tmp_path / f"line-{tag}"
        return ["render", "--kind", "linegraph", "--scores", str(tmp_path / "hourly.tsv"),
                "--region", "mycountry", "--out", str(prefix)], \
            [prefix.with_name(prefix.name + ".svg"), prefix.with_name(prefix.name + ".csv")]
    assert command == "pipeline"
    outs = [tmp_path / f"{name}-{tag}{ext}" for name, ext in
            (("p-parsed", ".tsv"), ("p-scores", ".tsv"), ("p-map", ".kml"), ("p-tiles", ".svg"))]
    line = tmp_path / f"p-line-{tag}"
    argv = ["pipeline", "--raw", str(corpus_file), "--regions", str(regions_file),
            "--parsed", str(outs[0]), "--scores", str(outs[1]), *window,
            "--kml-out", str(outs[2]), "--tilemap-out", str(outs[3]),
            "--line-out", str(line), "--line-region", "mycountry"]
    return argv, [*outs, outs[1].with_name(outs[1].name + ".hourly"),
                  line.with_name(line.name + ".svg"), line.with_name(line.name + ".csv")]


_READS_TABLES = ("score", "render-kml", "render-tilemap", "render-linegraph")


@pytest.mark.parametrize("command", [
    "collect", "parse", "score", "train", "gen-corpus",
    "render-kml", "render-tilemap", "render-linegraph",
])
def test_criterion_9_reruns_are_byte_identical(command, tmp_path, corpus_file,
                                               regions_file, training_file):
    from geosent.cli import main

    if command in _READS_TABLES:
        _setup_inputs(tmp_path, corpus_file, regions_file)
    outputs = []
    for tag in ("one", "two"):
        argv, paths = _rerun_argv(command, tag, tmp_path, corpus_file, regions_file, training_file)
        assert main(argv) == 0
        outputs.append([p.read_bytes() for p in paths])

    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [
    "parse", "score", "train", "gen-corpus",
    "render-kml", "render-tilemap", "render-linegraph", "pipeline",
])
def test_rerun_onto_the_same_outputs_gives_one_runs_bytes(command, tmp_path, corpus_file,
                                                          regions_file, training_file):
    # every output but collect's raw table is replaced, not added to
    from geosent.cli import main

    if command in _READS_TABLES:
        _setup_inputs(tmp_path, corpus_file, regions_file)
    argv, paths = _rerun_argv(command, "same", tmp_path, corpus_file, regions_file, training_file)
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append([p.read_bytes() for p in paths])
    assert outputs[0] == outputs[1]
