"""Distantly supervised Naive Bayes tweet classifier.

Training data comes from emoticons: a tweet whose emoticons are all from
the positive table is a positive example, all-negative means negative,
and tweets showing both polarities (or none) are discarded.  The
emoticons themselves are removed from the stored text so the classifier
cannot just memorise them.

The model is multinomial Naive Bayes over lowercased word unigrams
(hashtag bodies included, mentions and URLs excluded) with add-one
smoothing, scored in log space.  Tokens outside the vocabulary are
skipped, and an exact tie goes to Positive.  A text is scored in the
model's linear form (McCallum & Nigam 1998): its margin, log
score(Positive) minus log score(Negative), is the log prior ratio plus
one log-ratio weight per in-vocabulary feature.  The weights are built
once per model, on first use rather than at load time, so loading a
model costs nothing for a run that never classifies.

Model files are plain text:

    geosent-nb v1
    prior <class> <doc_count>
    tok <class> <token> <count>

with prior lines for both classes and tok lines sorted by class then
token, so saving is deterministic and a save/load round trip compares
equal.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import emoticons
from .store import GeosentError, _read_text, staged
from .tokenizer import Features, _scan_features

POSITIVE = "Positive"
NEGATIVE = "Negative"
LABELS = (POSITIVE, NEGATIVE)

MODEL_HEADER = "geosent-nb v1"


class ClassifierError(GeosentError):
    """Base class for training and model-file failures."""


class TrainingError(ClassifierError):
    pass


class ModelFormatError(ClassifierError):
    pass


@dataclass
class LabeledTweet:
    """A training or test example; text is already emoticon-free."""

    text: str
    label: str


@dataclass
class NBModel:
    doc_counts: dict[str, int]
    token_counts: dict[str, dict[str, int]]
    totals: dict[str, int] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    # _linear_form(), built by the first _margin: a later edit of the
    # counts does not reach it
    _linear: tuple[float, dict[str, float], float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.totals:
            self.totals = {label: sum(self.token_counts[label].values()) for label in LABELS}
        if not self.vocabulary:
            for counts in self.token_counts.values():
                self.vocabulary.update(counts)


def features(text: str) -> list[str]:
    """Lowercased unigram features: words and hashtag bodies, in order."""
    return [feature for feature, _ in _scan_features(text)]


_EMOTICON_RE = re.compile(emoticons.PATTERN)


def distant_label(texts: Iterable[str]) -> Iterator[LabeledTweet]:
    """Label raw texts by their emoticons, dropping ambiguous ones.

    A text is kept only when it contains at least one emoticon and all of
    its emoticons share one polarity; the emoticons are removed from the
    emitted text and whitespace is collapsed.  Texts left empty by the
    removal are dropped as well.
    """
    for text in texts:
        found = _EMOTICON_RE.findall(text)
        if not found:
            continue
        has_pos = any(e in emoticons.POSITIVE for e in found)
        has_neg = any(e in emoticons.NEGATIVE for e in found)
        if has_pos == has_neg:
            continue
        cleaned = " ".join(_EMOTICON_RE.sub(" ", text).split())
        if not cleaned:
            continue
        yield LabeledTweet(text=cleaned, label=POSITIVE if has_pos else NEGATIVE)


def train(corpus: Iterable[LabeledTweet]) -> NBModel:
    """Fit the unigram model; both classes must be represented."""
    doc_counts = {label: 0 for label in LABELS}
    token_counts: dict[str, dict[str, int]] = {label: {} for label in LABELS}
    for example in corpus:
        if example.label not in doc_counts:
            raise TrainingError(f"unknown label {example.label!r}")
        doc_counts[example.label] += 1
        bucket = token_counts[example.label]
        for tok in features(example.text):
            bucket[tok] = bucket.get(tok, 0) + 1
    missing = [label for label, n in doc_counts.items() if n == 0]
    if missing:
        raise TrainingError(f"no training documents for {', '.join(missing)}")
    return NBModel(doc_counts=doc_counts, token_counts=token_counts)


def classify(model: NBModel, text: str) -> tuple[str, float]:
    """Label one text; returns (label, margin).

    The margin is log score(Positive) minus log score(Negative); zero or
    better means Positive.
    """
    margin = _margin(model, features(text))
    return (POSITIVE if margin >= 0.0 else NEGATIVE), margin


# Each weight is within a few ulps of its true value and each addition
# rounds once, so a sum over n features lies within about
# (n + 1)**2 * scale * 2**-52 of the exact margin; this keeps a factor
# of 4096 to spare.
_ROUNDING = 2.0 ** -40


def _margin(model: NBModel, feats: list[str]) -> float:
    """log score(Positive) - log score(Negative) of one feature list.

    A margin within rounding distance of zero takes its sign from the
    exact scores, so an exact tie is 0.0 (Positive) in any feature order.
    """
    if model._linear is None:
        model._linear = _linear_form(model)
    margin, weights, scale = model._linear
    for feature in feats:
        margin += weights.get(feature, 0.0)
    if abs(margin) > _ROUNDING * scale * (len(feats) + 1) ** 2:
        return margin
    pos, neg = _exact_scores(model, feats)
    if pos == neg:
        return 0.0
    return math.copysign(max(abs(margin), math.ulp(0.0)), 1.0 if pos > neg else -1.0)


def _exact_scores(model: NBModel, feats: list[str]) -> tuple[int, int]:
    """Integers in the ratio score(Positive) : score(Negative)."""
    toks = [t for t in feats if t in model.vocabulary]
    vocab_size = len(model.vocabulary)
    pos = model.doc_counts[POSITIVE] * (model.totals[NEGATIVE] + vocab_size) ** len(toks)
    neg = model.doc_counts[NEGATIVE] * (model.totals[POSITIVE] + vocab_size) ** len(toks)
    pos_counts, neg_counts = model.token_counts[POSITIVE], model.token_counts[NEGATIVE]
    for tok in toks:
        pos *= pos_counts.get(tok, 0) + 1
        neg *= neg_counts.get(tok, 0) + 1
    return pos, neg


def _linear_form(model: NBModel) -> tuple[float, dict[str, float], float]:
    """The log prior ratio, each vocabulary token's log-ratio weight, and the largest of their sizes."""
    total_docs = sum(model.doc_counts.values())
    # each class's log prior over total_docs, as classify has always taken
    # them, so a text with no known feature keeps its margin bit for bit
    prior = ((math.log(model.doc_counts[POSITIVE]) - math.log(total_docs))
             - (math.log(model.doc_counts[NEGATIVE]) - math.log(total_docs)))
    vocab_size = len(model.vocabulary)
    pos_counts, neg_counts = model.token_counts[POSITIVE], model.token_counts[NEGATIVE]
    pos_denom = model.totals[POSITIVE] + vocab_size
    neg_denom = model.totals[NEGATIVE] + vocab_size
    weights = {
        tok: math.log((pos_counts.get(tok, 0) + 1) / pos_denom)
        - math.log((neg_counts.get(tok, 0) + 1) / neg_denom)
        for tok in model.vocabulary
    }
    return prior, weights, max(map(abs, (prior, *weights.values())))


@dataclass
class EvalReport:
    accuracy: float
    confusion: dict[tuple[str, str], int]  # (true, predicted) -> count
    total: int


def evaluate(model: NBModel, examples: Iterable[LabeledTweet]) -> EvalReport:
    """Accuracy and 2x2 confusion over a labelled test set."""
    confusion = {(t, p): 0 for t in LABELS for p in LABELS}
    total = hits = 0
    for example in examples:
        if example.label not in LABELS:
            raise ClassifierError(f"unknown label {example.label!r}")
        predicted, _ = classify(model, example.text)
        confusion[(example.label, predicted)] += 1
        total += 1
        hits += predicted == example.label
    if total == 0:
        raise ClassifierError("empty evaluation set")
    return EvalReport(accuracy=hits / total, confusion=confusion, total=total)


class ModelAnalyser:
    """Per-tweet positive/negative classifier for the aggregation step."""

    approach = "MachineLearning"

    def __init__(self, model: NBModel):
        self.model = model

    def counts(self, features: Features, memo: dict | None = None) -> tuple[int, int]:
        """(1, 0) when the tweet's features classify Positive, else (0, 1).

        memo is not used: the model's weights already cost one lookup
        per feature.
        """
        return (1, 0) if _margin(self.model, [text for text, _ in features]) >= 0.0 else (0, 1)


def save_model(model: NBModel, path: str | Path) -> None:
    """Write the versioned model file (deterministic ordering), whole or not at all."""
    lines = [MODEL_HEADER]
    for label in LABELS:
        lines.append(f"prior {label} {model.doc_counts[label]}")
    for label in LABELS:
        for tok, count in sorted(model.token_counts[label].items()):
            lines.append(f"tok {label} {tok} {count}")
    with staged(path) as staging:
        staging.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> NBModel:
    """Read a model file back; version or structure problems raise."""
    lines = _read_text(path, "model", ModelFormatError).split("\n")
    if not lines or lines[0] != MODEL_HEADER:
        head = lines[0] if lines else ""
        raise ModelFormatError(f"{path}: bad model header {head!r}, expected {MODEL_HEADER!r}")
    doc_counts: dict[str, int] = {}
    token_counts: dict[str, dict[str, int]] = {label: {} for label in LABELS}
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(" ")
        try:
            if parts[0] == "prior" and len(parts) == 3 and parts[1] in LABELS:
                doc_counts[parts[1]] = int(parts[2])
            elif parts[0] == "tok" and len(parts) == 4 and parts[1] in LABELS:
                token_counts[parts[1]][parts[2]] = int(parts[3])
            else:
                raise ValueError(f"unrecognised line {line!r}")
        except ValueError as exc:
            raise ModelFormatError(f"{path}: line {number}: {exc}") from None
    missing = [label for label in LABELS if label not in doc_counts]
    if missing:
        raise ModelFormatError(f"{path}: missing prior for {', '.join(missing)}")
    return NBModel(doc_counts=doc_counts, token_counts=token_counts)


def load_labeled(path: str | Path) -> list[LabeledTweet]:
    """Read a label<TAB>text corpus; labels are case-insensitive."""
    canonical = {label.lower(): label for label in LABELS}
    rows = []
    text = _read_text(path, "labelled corpus", ClassifierError)
    for number, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ClassifierError(f"{path}: line {number}: expected label<TAB>text")
        label = canonical.get(parts[0].strip().lower())
        if label is None:
            raise ClassifierError(f"{path}: line {number}: unknown label {parts[0]!r}")
        rows.append(LabeledTweet(text=parts[1], label=label))
    return rows
