"""Render every visual output from one day of county scores.

    python3 demos/draw_maps.py

Produces three artefacts in demos/out/:

  demo.kml           county polygons coloured red-to-green by score,
                     loadable in any globe viewer
  demo-tiles.svg     a tile map where each county's rectangle area is
                     proportional to its tweet volume
  demo-series.svg    the hourly score lines for one county, with a CSV
                     twin (demo-series.csv) holding the exact numbers
"""

from datetime import datetime, timezone
from pathlib import Path

from geosent import (
    AggregationSpec,
    DictionaryAnalyser,
    ModelAnalyser,
    aggregate,
    bundled,
    emit_kml,
    emit_linegraph,
    emit_tilemap,
    load_lexicon,
    load_model,
    load_regions,
    parse_corpus,
)

OUT = Path(__file__).resolve().parent / "out"
DAY = (
    datetime(2013, 7, 22, tzinfo=timezone.utc),
    datetime(2013, 7, 23, tzinfo=timezone.utc),
)


def main(out: Path = OUT) -> None:
    out.mkdir(exist_ok=True)
    index = load_regions(bundled.regions_path())
    parsed = out / "demo.t2.tsv"
    if not parsed.exists():
        parse_corpus(bundled.corpus_path(), index, parsed)

    analyser = DictionaryAnalyser(load_lexicon(bundled.lexicon_path()))
    daily = aggregate(AggregationSpec("County", DAY, 24 * 3600), parsed, analyser)

    kml = out / "demo.kml"
    emit_kml(daily, index, kml)
    print(f"wrote {kml.name}: {len(daily)} placemarks")

    tiles = out / "demo-tiles.svg"
    emit_tilemap(daily, tiles)
    print(f"wrote {tiles.name}: rectangle areas track tweet volume")

    # the line graph wants both analysers so the two series can be compared
    ml = ModelAnalyser(load_model(bundled.model_path()))
    hourly_spec = AggregationSpec("County", DAY, 3600)
    hourly = []
    for a in (analyser, ml):
        hourly.extend(r for r in aggregate(hourly_spec, parsed, a)
                      if r.region == "happycounty" and r.tweet_count > 0)
    svg, csv = emit_linegraph(hourly, out / "demo-series")
    print(f"wrote {svg.name} and {csv.name}: happycounty, hour by hour")

    print()
    print("series numbers, straight from the CSV:")
    for line in (out / "demo-series.csv").read_text(encoding="utf-8").splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
