"""Output checks against what the input builder planted.

A raw line fails when its fate in the program's output differs from the
planted one: an accepted line must appear in the parsed table in its
county, a rejected line must not appear, and the program must give a
rejected line the planted reason.  File-level checks (score totals,
per-cell counts and scores, render sizes, the raw table's bytes) mark
the whole run invalid instead.
"""
from __future__ import annotations

import csv
import hashlib
from collections import defaultdict, deque
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

from inputs import ACCEPTED, COUNTRY, UNRESOLVED, Inputs

OUTPUTS = ("t1.jsonl", "t2.tsv", "t3.csv", "t3.csv.hourly", "map.kml", "tiles.svg",
           "series.svg", "series.csv")


@dataclass
class Verdict:
    failed_lines: int = 0
    problems: list[str] = field(default_factory=list)


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUTS if (out_dir / name).exists()}


def reject_reason_failures(inputs: Inputs) -> int:
    """Rejected lines to which the program gives another reason than planted."""
    from geosent.georesolve import load_regions, resolve
    from geosent.ingest import parse_record

    index = load_regions(inputs.regions)
    failed = 0
    for line in inputs.lines:
        if line.fate == ACCEPTED:
            continue
        got = parse_record(line.payload)
        if not isinstance(got, str):
            got = UNRESOLVED if resolve(index, got.lat, got.lon) is None else ACCEPTED
        failed += got != line.fate
    return failed


def check_fates(inputs: Inputs, t2_path: Path) -> int:
    """Lines whose parsed-table presence or county differs from the plan."""
    rows: dict[str, deque] = defaultdict(deque)
    with open(t2_path, encoding="utf-8", newline="") as fh:
        for text in fh:
            fields = text.rstrip("\n").split("\t")
            if len(fields) == 7:  # a row of any other shape leaves its line missing
                rows[fields[0]].append((fields[4], fields[5]))
    failed = 0
    for line in inputs.lines:
        if line.fate != ACCEPTED:
            continue
        queue = rows.get(line.tweet_id)
        if not queue or queue.popleft() != (COUNTRY, line.county):
            failed += 1
    return failed + sum(len(q) for q in rows.values())


def _read_scores(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _iso(stamp) -> str:
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def expected_cells(inputs: Inputs, level: str, bucket_seconds: int) -> dict:
    """(region, bucket_start) -> [planted positive words, negative words, tweets]."""
    start, end = inputs.window
    cells: dict = defaultdict(lambda: [0, 0, 0])
    for line in inputs.lines:
        if line.fate != ACCEPTED or not start <= line.stamp < end:
            continue
        bucket = int((line.stamp - start).total_seconds()) // bucket_seconds
        region = COUNTRY if level == "Country" else line.county
        cell = cells[(region, _iso(start + timedelta(seconds=bucket * bucket_seconds)))]
        cell[0] += line.pos
        cell[1] += line.neg
        cell[2] += 1
    return cells


def check_scores(inputs: Inputs, path: Path, approaches: list[str], levels: list[str],
                 bucket_seconds: int) -> list[str]:
    """Per-cell counts and score arithmetic of one score table."""
    problems: list[str] = []
    rows = _read_scores(path)
    accepted = sum(line.fate == ACCEPTED and inputs.window[0] <= line.stamp < inputs.window[1]
                   for line in inputs.lines)
    for approach in approaches:
        for level in levels:
            want = expected_cells(inputs, level, bucket_seconds)
            got = {(r["region"], r["bucket_start"]): r for r in rows
                   if r["approach"] == approach and r["level"] == level}
            where = f"{path.name} {approach}/{level}"
            if set(got) != set(want):
                problems.append(f"{where}: cells differ from the planted ones")
                continue
            if sum(int(r["tweet_count"]) for r in got.values()) != accepted:
                problems.append(f"{where}: tweet_count total is not the {accepted} accepted rows")
            tops: dict[str, float] = defaultdict(float)
            for key, row in got.items():
                pos, neg, tweets = int(row["pos_count"]), int(row["neg_count"]), int(row["tweet_count"])
                if tweets != want[key][2]:
                    problems.append(f"{where} {key}: tweet_count {tweets}, planted {want[key][2]}")
                if approach == "Dictionary" and (pos, neg) != tuple(want[key][:2]):
                    problems.append(f"{where} {key}: counts {(pos, neg)}, planted {tuple(want[key][:2])}")
                if approach == "MachineLearning" and pos + neg != tweets:
                    problems.append(f"{where} {key}: pos + neg != tweet_count")
                pss = None if pos == 0 and neg == 0 else pos / max(neg, 1)
                if row["pss"] != ("NA" if pss is None else repr(pss)):
                    problems.append(f"{where} {key}: pss {row['pss']}, expected {pss!r}")
                if pss is not None:
                    tops[key[1]] = max(tops[key[1]], pss)
            for key, row in got.items():
                pss, top = (None if row["pss"] == "NA" else float(row["pss"])), tops[key[1]]
                npss = repr(pss / top) if pss is not None and top > 0 else "NA"
                if row["npss"] != npss:
                    problems.append(f"{where} {key}: npss {row['npss']}, expected {npss}")
    return problems[:20]


def check_renders(inputs: Inputs, out_dir: Path) -> list[str]:
    """Each render holds one element per region or bucket it should draw."""
    problems = []
    p = inputs.pipeline
    bucket = int(p["bucket"])
    if "kml" in p:
        cells = expected_cells(inputs, "Country", bucket)
        first = min(k[1] for k in cells)
        want = sum(1 for k in cells if k[1] == first)
        got = (out_dir / "map.kml").read_text(encoding="utf-8").count("<Placemark>")
        if got != want:
            problems.append(f"map.kml: {got} placemarks, expected {want}")
    if "tilemap" in p:
        cells = expected_cells(inputs, "County", bucket)
        first = min(k[1] for k in cells)
        want = sum(1 for k, c in cells.items() if k[1] == first and c[2] > 0)
        got = (out_dir / "tiles.svg").read_text(encoding="utf-8").count("<g>")
        if got != want:
            problems.append(f"tiles.svg: {got} tiles, expected {want}")
    if "line" in p:
        buckets = len(expected_cells(inputs, "Country", int(p["line_bucket"])))
        want = 1 + buckets * len(p["approaches"].split(","))
        got = len((out_dir / "series.csv").read_text(encoding="utf-8").splitlines())
        if got != want:
            problems.append(f"series.csv: {got} lines, expected {want}")
    return problems


APPROACH_NAMES = {"dictionary": "Dictionary", "ml": "MachineLearning"}
LEVEL_NAMES = {"country": "Country", "county": "County"}


def check_outputs(inputs: Inputs, out_dir: Path, raw_sha256: str) -> Verdict:
    """Every check of one repetition's outputs."""
    verdict = Verdict()
    if output_hashes(out_dir).get("t1.jsonl") != raw_sha256:
        verdict.problems.append("raw table bytes differ from prefill + stream")
    verdict.failed_lines = check_fates(inputs, out_dir / "t2.tsv")
    p = inputs.pipeline
    approaches = [APPROACH_NAMES[a] for a in p["approaches"].split(",")]
    levels = [LEVEL_NAMES[lv] for lv in p["levels"].split(",")]
    verdict.problems += check_scores(inputs, out_dir / "t3.csv", approaches, levels, int(p["bucket"]))
    if "line" in p:
        verdict.problems += check_scores(inputs, out_dir / "t3.csv.hourly", approaches,
                                         ["Country"], int(p["line_bucket"]))
    verdict.problems += check_renders(inputs, out_dir)
    return verdict
