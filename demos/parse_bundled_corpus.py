"""Walk the bundled nine-tweet corpus through collection and parsing.

Run from anywhere:

    python3 demos/parse_bundled_corpus.py

Output lands in demos/out/.  The script shows the two front stages of
the pipeline: verbatim line capture into the raw table, then parsing
each record into the tab-separated table with its region resolved from
coordinates.
"""

from pathlib import Path

from geosent import bundled, collect, load_regions, parse_corpus

OUT = Path(__file__).resolve().parent / "out"


def main(out: Path = OUT) -> None:
    out.mkdir(exist_ok=True)
    raw = out / "demo.t1.jsonl"
    parsed = out / "demo.t2.tsv"
    raw.unlink(missing_ok=True)

    print("== stage 1: collect ==")
    with open(bundled.corpus_path(), "rb") as source:
        stats, fragment = collect(source, raw)
    print(f"stored {stats.lines_read} lines verbatim in {raw.name}")
    print(f"unterminated trailing bytes: {len(fragment)}")

    print()
    print("== stage 2: parse ==")
    index = load_regions(bundled.regions_path())
    print(f"region map: {', '.join(index.names('County'))} inside "
          f"{', '.join(index.names('Country'))}")
    stats = parse_corpus(raw, index, parsed)
    print(f"lines read      {stats.lines_read}")
    print(f"accepted        {stats.accepted}")
    print(f"malformed       {stats.rejected_malformed}")
    print(f"no coordinates  {stats.rejected_no_geo}")
    print(f"outside map     {stats.rejected_unresolved}")

    print()
    print("== first three parsed rows ==")
    with open(parsed, encoding="utf-8") as fh:
        for _ in range(3):
            print(fh.readline().rstrip("\n"))

    print()
    print(f"full table: {parsed}")


if __name__ == "__main__":
    main()
