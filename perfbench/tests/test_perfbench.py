"""Self-tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import FOLD, SPAN, Tracer, layer_metrics  # noqa: E402


def test_same_seed_same_bytes(tmp_path):
    first = inputs.build("append-stream", 3, tmp_path / "a")
    second = inputs.build("append-stream", 3, tmp_path / "b")
    other = inputs.build("append-stream", 4, tmp_path / "c")
    assert first.file_hashes() == second.file_hashes()
    assert first.lines == second.lines
    assert other.file_hashes()["stream"] != first.file_hashes()["stream"]


def test_planted_tokens_match_the_tokenizer(tmp_path):
    """The builder's own token counts and opinion words agree with geosent."""
    from geosent.lexicon import load_lexicon, match_token
    from geosent.tokenizer import tokenize

    built = inputs.build_score_heavy(5, tmp_path, tweets=200, train_tweets=200, lexicon_entries=300)
    lexicon = load_lexicon(built.lexicon)
    for line in built.lines[:200]:
        text = json.loads(line.payload)["text"]
        strengths = [match_token(lexicon, t) for t in tokenize(text)]
        assert sum(s is not None and s > 0 for s in strengths) == line.pos
        assert sum(s is not None and s < 0 for s in strengths) == line.neg


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 3.0

    def middle():
        clock.now += 2.0
        leaf_traced()
        leaf_traced()

    def top():
        clock.now += 1.0
        middle_traced()
        clock.now += 4.0

    leaf_traced = tracer.wrap("m.leaf", leaf, FOLD)
    middle_traced = tracer.wrap("m.middle", middle, SPAN)
    top_traced = tracer.wrap("m.top", top, SPAN)
    top_traced()

    totals = tracer.totals()
    assert totals["m.top"] == {"calls": 1, "total_s": 13.0, "self_s": 5.0}
    assert totals["m.middle"] == {"calls": 1, "total_s": 8.0, "self_s": 2.0}
    assert totals["m.leaf"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert tracer.folded[("m.leaf", "m.middle")][0] == 2
    top_span, middle_span = tracer.spans
    assert top_span["parent"] is None and middle_span["parent"] == top_span["id"]
    assert sum(s["self"] for s in tracer.spans) + totals["m.leaf"]["self_s"] == 13.0


def test_removed_function_reports_zero_calls():
    metrics = layer_metrics(Tracer().report())
    assert metrics["tokenizer.tokenize.calls"] == 0
    assert metrics["tokenizer.tokenize.us_per_call"] == 0.0


def _planted_t2(built, path: Path, move: int | None = None) -> None:
    """The parsed table a correct program writes, optionally with one row moved."""
    rows = []
    for k, line in enumerate(l for l in built.lines if l.fate == inputs.ACCEPTED):
        county = line.county
        if k == move:
            county = "county-00-00" if county != "county-00-00" else "county-00-01"
        rows.append(f"{line.tweet_id}\t-\t0\t0\t{inputs.COUNTRY}\t{county}\tx\n")
    path.write_text("".join(rows), encoding="utf-8")


def test_failed_lines_count_a_record_in_the_wrong_county(tmp_path):
    built = inputs.build("append-stream", 2, tmp_path / "in")
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    _planted_t2(built, good)
    _planted_t2(built, bad, move=7)
    assert checks.check_fates(built, good) == 0
    assert checks.check_fates(built, bad) == 1


def test_a_wrong_reject_reason_fails_its_line(tmp_path):
    built = inputs.build("append-stream", 2, tmp_path / "in")
    assert checks.reject_reason_failures(built) == 0
    k = next(i for i, line in enumerate(built.lines) if line.fate == inputs.NO_GEO)
    built.lines[k] = replace(built.lines[k], fate=inputs.MALFORMED)
    assert checks.reject_reason_failures(built) == 1


def test_checks_pass_real_outputs_and_catch_a_changed_count(tmp_path):
    from geosent import cli
    from run import write_config

    built = inputs.build("append-stream", 6, tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    raw = built.prefill.read_bytes() + built.stream.read_bytes()
    (out / "t1.jsonl").write_bytes(raw)
    assert cli.main(["pipeline", "--config", str(write_config(built, out, 1))]) == 0
    raw_sha256 = hashlib.sha256(raw).hexdigest()
    clean = checks.check_outputs(built, out, raw_sha256)
    assert (clean.failed_lines, clean.problems) == (0, [])

    scores = out / "t3.csv"
    header, first, *rest = scores.read_text(encoding="utf-8").splitlines()
    fields = first.split(",")
    fields[6] = str(int(fields[6]) + 1)  # one more positive count in the first cell
    scores.write_text("\n".join([header, ",".join(fields), *rest]) + "\n", encoding="utf-8")
    assert checks.check_outputs(built, out, raw_sha256).problems
