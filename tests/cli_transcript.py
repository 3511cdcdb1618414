"""A fixed list of CLI invocations and the results they give.

Each case runs `geosent.cli.main` in a fresh directory that holds copies
of the bundled files plus a parsed table (t2.tsv) and an hourly score
table (t3.csv).  Its record is the exit code, stdout, stderr (log lines
included) and the sha256 of every file in the directory afterwards.
Paths in argv and in config files are relative to that directory; the
directory's own path and the bundled data directory are written as
`{d}` and `{bundled}` in stdout and stderr.

`tests/test_cli_transcript.py` replays every case against
`cli_transcript.json`.  After a change that is meant to alter what the
CLI does, regenerate the file and review its diff:

    PYTHONPATH=src python tests/cli_transcript.py
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import shutil
import sys
from pathlib import Path

from geosent import bundled
from geosent.cli import main

TRANSCRIPT = Path(__file__).resolve().with_name("cli_transcript.json")
WINDOW = "--start 2013-07-22T00:00:00Z --end 2013-07-23T00:00:00Z"
SCORE = f"--approach dictionary --level country {WINDOW}"
PIPELINE = f"--raw t1.jsonl --regions regions.geojson --parsed p.tsv --scores s.csv {WINDOW}"
DISTANT = "a lovely day :)\nawful news :(\nno emoticon here\nyay :D"
STREAM = b'{"id_str": "1"}\nnot json\n{"id_str": "2"'
# a config that sets mix twice: an error, not the last line's mix alone
REPEATED_MIX = ("regions = regions.geojson\nout = g.jsonl\nseed = 5\n"
                "start = 2013-07-22T00:00:00Z\nmix = happycounty:1:1\nmix = sadcounty:1:1\n")

# One successful run of every command, given as flags.
FLAGS = {
    "collect": "collect --input t1.jsonl --raw new.jsonl",
    "parse": "parse --raw t1.jsonl --regions regions.geojson --parsed p.tsv",
    "train": "train --labeled train.tsv --model m.nb",
    "train-distant": "train --distant distant.txt --model m.nb",
    "evaluate": "evaluate --model model.nb --test train.tsv",
    "score": f"score --parsed t2.tsv --scores s.csv {SCORE}",
    "score-append": f"score --parsed t2.tsv --scores t3.csv --approach ml --level county "
                    f"{WINDOW} --bucket 7200 --norm-scope siblings --no-hashtag-match --append",
    "correlate": "correlate --scores t3.csv --region mycountry --level country --bucket 3600",
    "render": "render --kind kml --scores t3.csv --regions regions.geojson --out map.kml",
    "render-tilemap": "render --kind tilemap --scores t3.csv --out tiles.svg",
    "render-linegraph": "render --kind linegraph --scores t3.csv --region mycountry --out line "
                        "--tz-offset 60",
    "gen-corpus": "gen-corpus --regions regions.geojson --out g.jsonl --seed 5 "
                  "--start 2013-07-22T00:00:00Z --mix happycounty:3:1 --mix sadcounty:1:2",
    "pipeline": f"pipeline {PIPELINE} --kml-out map.kml --tilemap-out tiles.svg "
                "--line-out line --line-region mycountry",
}

# The keys each command cannot run without, in the order they are checked.
REQUIRED = {
    "collect": "raw",
    "parse": "raw regions parsed",
    "train": "model",
    "evaluate": "model test",
    "score": "parsed scores approach level start end",
    "correlate": "scores region level",
    "render": "kind scores out",
    "gen-corpus": "regions out seed start",
    "pipeline": "raw regions parsed scores start end",
}

# An output that names a file the command reads, or writes under another key.
CLASHES = {
    "collect": "collect --input t1.jsonl --raw t1.jsonl",
    "parse": "parse --raw t1.jsonl --regions regions.geojson --parsed t1.jsonl",
    "parse-config": "parse --config run.cfg --parsed run.cfg",
    "train": "train --labeled train.tsv --model train.tsv",
    "score": f"score --parsed t2.tsv --scores t2.tsv {SCORE}",
    "render": "render --kind kml --scores t3.csv --regions regions.geojson --out t3.csv",
    "render-linegraph": "render --kind linegraph --scores t3.csv --region mycountry --out t3",
    "gen-corpus": "gen-corpus --regions regions.geojson --out regions.geojson --seed 5 "
                  "--start 2013-07-22T00:00:00Z --mix happycounty:3:1",
    "pipeline-input": f"pipeline {WINDOW} --raw t1.jsonl --regions regions.geojson "
                      "--parsed t1.jsonl --scores t3.csv",
    "pipeline-outputs": f"pipeline {WINDOW} --raw t1.jsonl --regions regions.geojson "
                        "--parsed t2.tsv --scores t2.tsv",
    "pipeline-line-graph": f"pipeline {PIPELINE} --line-out line --line-region mycountry "
                           "--line-scores line.csv",
}


def flags_to_config(argv: str) -> str:
    """The settings of `command --key value ...` as config lines; switches become booleans."""
    words = argv.split()[1:]
    settings: dict[str, list[str]] = {}
    while words:
        key = words.pop(0)[2:].replace("-", "_")
        if words and not words[0].startswith("--"):
            settings.setdefault(key, []).append(words.pop(0))
        elif key.startswith("no_"):
            settings[key[3:]] = ["0"]
        else:
            settings[key] = ["1"]
    return "".join(f"{key} = {' '.join(values)}\n" for key, values in settings.items())


def without(argv: str, key: str) -> str:
    """argv with the first --key and its value taken out."""
    words = argv.split()
    at = words.index("--" + key.replace("_", "-"))
    return " ".join(words[:at] + words[at + 2:])


def cases() -> list[dict]:
    """Every invocation: name, argv, extra files to write first, and stdin."""
    found = []

    def case(name, argv, files=None, stdin=b""):
        found.append(dict(name=name, argv=argv.split(), files=files or {}, stdin=stdin))

    for name, argv in FLAGS.items():
        case(f"flags/{name}", argv)
    for name, argv in FLAGS.items():
        case(f"config/{name}", f"{argv.split()[0]} --config case.cfg",
             {"case.cfg": flags_to_config(argv)})
    for command, keys in REQUIRED.items():
        for key in keys.split():
            case(f"missing/{command}/{key}", without(FLAGS[command], key))
    for name, argv in CLASHES.items():
        case(f"clash/{name}", argv)
    # `-` is stdin only for collect --input; anywhere else it names a file
    case("dash/collect-stdin", "collect --input - --raw -", stdin=STREAM)
    case("dash/parse", "parse --raw - --regions regions.geojson --parsed -",
         {"-": bundled.corpus_path().read_bytes()})
    # checks that depend on a value, each given one fault
    case("value/train-both", "train --labeled train.tsv --distant distant.txt --model m.nb")
    case("value/train-neither", "train --model m.nb")
    case("value/render-kml-regions", without(FLAGS["render"], "regions"))
    case("value/render-linegraph-region", without(FLAGS["render-linegraph"], "region"))
    case("value/gen-corpus-mix", "gen-corpus --regions regions.geojson --out g.jsonl --seed 5 "
                                 "--start 2013-07-22T00:00:00Z")
    case("value/pipeline-line-region", f"pipeline {PIPELINE} --line-out line")
    case("value/evaluate-no-test-file", "evaluate --model model.nb --test nope.tsv")
    for key in ("func", "command", "config"):
        case(f"config-key/{key}", "parse --config case.cfg",
             {"case.cfg": flags_to_config(FLAGS["parse"]) + f"{key} = x\n"})
    case("config-key/repeated", "gen-corpus --config case.cfg", {"case.cfg": REPEATED_MIX})
    return found


def _invoke(argv: list[str], stdin: bytes) -> tuple[int, str, str]:
    """main(argv) with its own stdin, stdout and stderr, and logging that writes to that stderr."""
    out, err = io.StringIO(), io.StringIO()
    root = logging.getLogger()
    saved = (sys.stdin, sys.stdout, sys.stderr, root.handlers[:], root.level)
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    sys.stdout, sys.stderr = out, err
    root.handlers = []  # so main's logging.basicConfig writes to err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr, root.handlers, level = saved
        root.setLevel(level)
    return code, out.getvalue(), err.getvalue()


def build_fixture(directory: Path) -> None:
    """The files every case starts from."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, source in [("t1.jsonl", bundled.corpus_path()),
                         ("regions.geojson", bundled.regions_path()),
                         ("train.tsv", bundled.training_path()),
                         ("model.nb", bundled.model_path())]:
        shutil.copyfile(source, directory / name)
    (directory / "distant.txt").write_text(DISTANT + "\n", encoding="utf-8")
    (directory / "run.cfg").write_text("raw = t1.jsonl\nregions = regions.geojson\n",
                                       encoding="utf-8")
    setup = ["parse --raw t1.jsonl --regions regions.geojson --parsed t2.tsv"]
    for approach in ("dictionary", "ml"):
        for level in ("country", "county"):
            setup.append(f"score --parsed t2.tsv --scores t3.csv --approach {approach} "
                         f"--level {level} --bucket 3600 {WINDOW} --append")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in setup:
            code, _, err = _invoke(argv.split(), b"")
            assert code == 0, (argv, err)
    finally:
        os.chdir(cwd)


def run_case(case: dict, fixture: Path, directory: Path) -> dict:
    """Run one case in directory, a fresh copy of fixture, and record what it gave."""
    shutil.copytree(fixture, directory)
    for name, content in case["files"].items():
        data = content.encode("utf-8") if isinstance(content, str) else content
        (directory / name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code, out, err = _invoke(case["argv"], case["stdin"])
    finally:
        os.chdir(cwd)

    def normalised(text: str) -> str:
        return (text.replace(str(directory), "{d}")
                .replace(str(bundled.corpus_path().parent), "{bundled}"))
    return dict(name=case["name"], argv=case["argv"], exit=code, stdout=normalised(out),
                stderr=normalised(err), files=snapshot(directory))


def snapshot(directory: Path) -> dict[str, str]:
    """The sha256 of every file under directory, by relative path."""
    return {str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def record(scratch: Path) -> list[dict]:
    build_fixture(scratch / "fixture")
    return [run_case(case, scratch / "fixture", scratch / f"case{number}")
            for number, case in enumerate(cases())]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = record(Path(scratch))
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                          encoding="utf-8")
    print(f"{TRANSCRIPT}: {len(entries)} cases")
