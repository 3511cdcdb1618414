"""In-memory spans around geosent's public functions, from outside the package.

The tracer replaces each target function at every module attribute the
program looks it up through (``tokenize`` lives in ``geosent.tokenizer``
but ``geosent.lexicon`` and ``geosent.classifier`` import it by name), so
no file under ``src/geosent`` changes.  Stage-level functions keep one
span per call with the id of the enclosing span; per-record functions
fold into (function, caller) totals of calls, total and self time.  A
function's self time is its duration minus the time spent in traced
functions it called.  A target a later refactor removes is skipped and
reports 0 calls.

Small hooks count work at the same boundaries (tokens returned, lexicon
hits, out-of-vocabulary features, rows out), so ratios are measured
where the work happens.  Hook time is charged to neither side's self
time; it shows in the traced-versus-untraced overhead.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from statistics import median

SPAN = "span"
FOLD = "fold"

# (layer module, function or Class.method, kind)
TARGETS = (
    ("cli", "main", SPAN),
    ("ingest", "collect", SPAN),
    ("ingest", "parse_corpus", SPAN),
    ("ingest", "parse_record", FOLD),
    ("georesolve", "load_regions", SPAN),
    ("georesolve", "resolve", FOLD),
    ("store", "RawTable.__init__", SPAN),
    ("store", "RawTable.append_bytes", FOLD),
    ("store", "format_parsed_line", FOLD),
    ("store", "parse_instant", FOLD),
    ("store", "write_scores", SPAN),
    ("store", "read_scores", SPAN),
    ("tokenizer", "tokenize", FOLD),
    ("lexicon", "load_lexicon", SPAN),
    ("lexicon", "match_token", FOLD),
    ("lexicon", "DictionaryAnalyser.tweet_counts", FOLD),
    ("classifier", "load_model", SPAN),
    ("classifier", "features", FOLD),
    ("classifier", "classify", FOLD),
    ("classifier", "ModelAnalyser.tweet_counts", FOLD),
    ("estimator", "aggregate", SPAN),
    ("visualize", "emit_kml", SPAN),
    ("visualize", "emit_tilemap", SPAN),
    ("visualize", "emit_linegraph", SPAN),
)

ROOT = "<root>"


class _Frame:
    __slots__ = ("key", "child", "span_id")

    def __init__(self, key: str, span_id: int | None):
        self.key = key
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Collects spans and folded totals for wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.folded: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.last_features: list[str] = []

    def wrap(self, key: str, fn, kind: str, hook=None):
        """A stand-in for fn that records one call per invocation."""
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            outer = caller.span_id if caller else None
            span_id = len(self.spans) if kind == SPAN else outer
            if kind == SPAN:
                self.spans.append(None)  # reserve the id; filled on return
            frame = _Frame(key, span_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            done = clock()
            self.record(key, caller.key if caller else ROOT, end - start, end - start - frame.child)
            if kind == SPAN:
                self.spans[span_id] = {"id": span_id, "parent": outer, "name": key,
                                       "start": start, "end": end,
                                       "self": end - start - frame.child}
            if caller is not None:
                caller.child += done - start
            return result

        return traced

    def record(self, key: str, caller: str, total: float, self_time: float) -> None:
        entry = self.folded[(key, caller)]
        entry[0] += 1
        entry[1] += total
        entry[2] += self_time

    def install(self) -> None:
        """Wrap every target that exists in the loaded geosent modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "geosent" or name.startswith("geosent."))]
        for layer, name, kind in TARGETS:
            module = sys.modules.get(f"geosent.{layer}")
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(f"{layer}.{name}", original, kind, HOOKS.get(name))
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for found, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, found, wrapper)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total and self seconds over all callers."""
        out: dict[str, dict[str, float]] = {}
        for (key, _), (calls, total, self_time) in self.folded.items():
            entry = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_time
        return out

    def report(self) -> dict:
        """Everything the tracer saw, in a JSON-ready shape."""
        return {
            "functions": self.totals(),
            "by_caller": [{"function": k, "caller": c, "calls": n, "total_s": t, "self_s": s}
                          for (k, c), (n, t, s) in sorted(self.folded.items())],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# hooks: counts taken at the wrapped boundary, (tracer, args, kwargs, result)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _parse_corpus(tr, args, kwargs, stats):
    tr.counts["lines_read"] += stats.lines_read
    tr.counts["accepted"] += stats.accepted
    tr.counts["rejected_no_geo"] += stats.rejected_no_geo
    tr.counts["rejected_malformed"] += stats.rejected_malformed
    tr.counts["rejected_unresolved"] += stats.rejected_unresolved
    tr.counts["t2_bytes"] += os.path.getsize(_arg(args, kwargs, 2, "parsed_path"))


def _collect(tr, args, kwargs, result):
    tr.counts["collect_lines"] += result[0].lines_read


def _resolve(tr, args, kwargs, result):
    tr.counts["unresolved"] += result is None


def _tokenize(tr, args, kwargs, tokens):
    tr.counts["tokens"] += len(tokens)


def _match_token(tr, args, kwargs, strength):
    tr.counts["lexicon_hits"] += strength is not None


def _tweet_counts(tr, args, kwargs, counts):
    tr.counts["zero_hit_tweets"] += counts == (0, 0)


def _features(tr, args, kwargs, feats):
    tr.last_features = feats


def _classify(tr, args, kwargs, result):
    vocabulary = _arg(args, kwargs, 0, "model").vocabulary
    tr.counts["features"] += len(tr.last_features)
    tr.counts["oov_features"] += sum(f not in vocabulary for f in tr.last_features)
    tr.counts["exact_ties"] += result[1] == 0.0


def _write_scores(tr, args, kwargs, written):
    tr.counts["t3_rows"] += written


def _aggregate(tr, args, kwargs, rows):
    tr.counts["rows_out"] += len(rows)
    tr.counts["na_rows"] += sum(row.pss is None for row in rows)


def _emit_file(position: int, name: str):
    def hook(tr, args, kwargs, result):
        tr.counts["bytes_out"] += os.path.getsize(_arg(args, kwargs, position, name))
    return hook


def _emit_linegraph(tr, args, kwargs, paths):
    tr.counts["bytes_out"] += sum(os.path.getsize(p) for p in paths)


HOOKS = {
    "parse_corpus": _parse_corpus,
    "collect": _collect,
    "resolve": _resolve,
    "tokenize": _tokenize,
    "match_token": _match_token,
    "DictionaryAnalyser.tweet_counts": _tweet_counts,
    "features": _features,
    "classify": _classify,
    "write_scores": _write_scores,
    "aggregate": _aggregate,
    "emit_kml": _emit_file(2, "out_path"),
    "emit_tilemap": _emit_file(1, "out_path"),
    "emit_linegraph": _emit_linegraph,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


DERIVED = (
    ("ingest.accept_ratio", "ratio"),
    ("ingest.rejected.no_geo", "count"),
    ("ingest.rejected.malformed", "count"),
    ("ingest.rejected.unresolved", "count"),
    ("georesolve.unresolved_ratio", "ratio"),
    ("store.t2_bytes", "bytes"),
    ("store.t3_rows", "count"),
    ("store.RawTable.__init__.first_decile_us", "us"),
    ("store.RawTable.__init__.last_decile_us", "us"),
    ("tokenizer.calls_per_row", "ratio"),
    ("tokenizer.tokens_per_call", "tokens"),
    ("lexicon.hit_ratio", "ratio"),
    ("lexicon.zero_hit_tweets", "count"),
    ("classifier.oov_ratio", "ratio"),
    ("classifier.exact_ties", "count"),
    ("estimator.aggregate.wall_s", "s"),
    ("estimator.rows_out", "count"),
    ("estimator.na_rows", "count"),
    ("visualize.bytes_out", "bytes"),
    ("trace_overhead_frac", "ratio"),
)

PER_LAYER = tuple(
    (f"{layer}.{name}.{suffix}", unit)
    for layer, name, _ in TARGETS
    for suffix, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
) + DERIVED


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (trace_overhead_frac aside)."""
    funcs, counts = report["functions"], report["counts"]
    out: dict[str, float] = {}
    for layer, name, _ in TARGETS:
        key = f"{layer}.{name}"
        f = funcs.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{key}.calls"] = f["calls"]
        out[f"{key}.self_s"] = f["self_s"]
        out[f"{key}.us_per_call"] = _ratio(f["total_s"] * 1e6, f["calls"])

    def calls(key: str) -> int:
        return out[f"{key}.calls"]

    inits = [s["self"] * 1e6 for s in report["spans"] if s and s["name"] == "store.RawTable.__init__"]
    tenth = max(1, len(inits) // 10)
    out.update({
        "ingest.accept_ratio": _ratio(counts.get("accepted", 0), counts.get("lines_read", 0)),
        "ingest.rejected.no_geo": counts.get("rejected_no_geo", 0),
        "ingest.rejected.malformed": counts.get("rejected_malformed", 0),
        "ingest.rejected.unresolved": counts.get("rejected_unresolved", 0),
        "georesolve.unresolved_ratio": _ratio(counts.get("unresolved", 0), calls("georesolve.resolve")),
        "store.t2_bytes": counts.get("t2_bytes", 0),
        "store.t3_rows": counts.get("t3_rows", 0),
        "store.RawTable.__init__.first_decile_us": median(inits[:tenth]) if inits else 0.0,
        "store.RawTable.__init__.last_decile_us": median(inits[-tenth:]) if inits else 0.0,
        "tokenizer.calls_per_row": _ratio(calls("tokenizer.tokenize"), counts.get("accepted", 0)),
        "tokenizer.tokens_per_call": _ratio(counts.get("tokens", 0), calls("tokenizer.tokenize")),
        "lexicon.hit_ratio": _ratio(counts.get("lexicon_hits", 0), calls("lexicon.match_token")),
        "lexicon.zero_hit_tweets": counts.get("zero_hit_tweets", 0),
        "classifier.oov_ratio": _ratio(counts.get("oov_features", 0), counts.get("features", 0)),
        "classifier.exact_ties": counts.get("exact_ties", 0),
        "estimator.aggregate.wall_s": funcs.get("estimator.aggregate", {}).get("total_s", 0.0),
        "estimator.rows_out": counts.get("rows_out", 0),
        "estimator.na_rows": counts.get("na_rows", 0),
        "visualize.bytes_out": counts.get("bytes_out", 0),
    })
    return out
