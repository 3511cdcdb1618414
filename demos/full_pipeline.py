"""One-shot pipeline run from a config file, then a correlation check.

    python3 demos/full_pipeline.py

This is the command-line surface rather than the library: a config
file drives the `pipeline` subcommand, which parses the raw corpus,
scores it with both analysers at both levels, renders the map, tile,
and line-graph outputs, and prints where everything went.  A final
`correlate` call asks how well the two analysers agree hour by hour.
"""

import sys
from pathlib import Path

from geosent import bundled
from geosent.cli import main

OUT = Path(__file__).resolve().parent / "out"


def run(*argv: str) -> None:
    print(f"$ geosent {' '.join(argv)}")
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")
    print()


def pipeline_config(out: Path) -> str:
    """The demo's pipeline config, writing every output under out."""
    return "\n".join([
        f"raw={bundled.corpus_path()}",
        f"regions={bundled.regions_path()}",
        f"parsed={out / 'pipe.t2.tsv'}",
        f"scores={out / 'pipe.t3.tsv'}",
        "start=2013-07-22T00:00:00Z",
        "end=2013-07-23T00:00:00Z",
        "# render settings",
        f"kml_out={out / 'pipe.kml'}",
        f"tilemap_out={out / 'pipe-tiles.svg'}",
        f"line_out={out / 'pipe-series'}",
        "line_region=mycountry",
        "line_level=Country",
    ]) + "\n"


def main_demo() -> None:
    OUT.mkdir(exist_ok=True)
    config = OUT / "pipeline.cfg"
    config.write_text(pipeline_config(OUT), encoding="utf-8")
    print(f"config written to {config}")
    print(config.read_text(encoding="utf-8"))

    run("pipeline", "--config", str(config))
    run("correlate",
        "--scores", str(OUT / "pipe.t3.tsv.hourly"),
        "--region", "mycountry",
        "--level", "Country")

    print("The correlation runs over the hourly country series that the")
    print("pipeline wrote next to the daily score table.  A value near 1")
    print("means the lexicon and the trained model tell the same story.")


if __name__ == "__main__":
    # keep stdout in step with the log lines on stderr when piped
    sys.stdout.reconfigure(line_buffering=True)
    main_demo()
