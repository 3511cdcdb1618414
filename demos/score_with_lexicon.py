"""Score the bundled corpus with the word-strength lexicon.

    python3 demos/score_with_lexicon.py

Builds daily country and county scores plus an hourly county series,
printing the positive/negative tallies, the positive sentiment score
(positive count over negative count, floored at one), and the
normalised score that maps each group onto [0, 1].
"""

from datetime import datetime, timezone
from pathlib import Path

from geosent import (
    AggregationSpec,
    DictionaryAnalyser,
    aggregate,
    bundled,
    load_lexicon,
    load_regions,
    parse_corpus,
)

OUT = Path(__file__).resolve().parent / "out"
DAY = (
    datetime(2013, 7, 22, tzinfo=timezone.utc),
    datetime(2013, 7, 23, tzinfo=timezone.utc),
)


def show(rows) -> None:
    for row in rows:
        pss = "undefined" if row.pss is None else f"{row.pss:.4f}"
        npss = "undefined" if row.npss is None else f"{row.npss:.4f}"
        print(f"  {row.region:<12} +{row.pos_count:<4} -{row.neg_count:<4} "
              f"pss={pss:<10} npss={npss}")


def main(out: Path = OUT) -> None:
    out.mkdir(exist_ok=True)
    parsed = out / "demo.t2.tsv"
    if not parsed.exists():
        index = load_regions(bundled.regions_path())
        parse_corpus(bundled.corpus_path(), index, parsed)

    analyser = DictionaryAnalyser(load_lexicon(bundled.lexicon_path()))
    print(f"analyser: {analyser.approach}, counting words")

    day_seconds = 24 * 3600
    print()
    print("== whole day, by country ==")
    spec = AggregationSpec("Country", DAY, day_seconds)
    show(aggregate(spec, parsed, analyser))

    print()
    print("== whole day, by county ==")
    spec = AggregationSpec("County", DAY, day_seconds)
    show(aggregate(spec, parsed, analyser))

    print()
    print("== hour by hour, happycounty only ==")
    spec = AggregationSpec("County", DAY, 3600)
    for row in aggregate(spec, parsed, analyser):
        if row.region != "happycounty" or row.tweet_count == 0:
            continue
        stamp = row.bucket_start.strftime("%H:%M")
        pss = "undefined" if row.pss is None else f"{row.pss:.4f}"
        print(f"  {stamp}  tweets={row.tweet_count}  pss={pss}")


if __name__ == "__main__":
    main()
