"""Distantly supervised Naive Bayes tweet classifier.

Training data comes from emoticons: a tweet whose emoticons are all from
the positive table is a positive example, all-negative means negative,
and tweets showing both polarities (or none) are discarded.  The
emoticons themselves are removed from the stored text so the classifier
cannot just memorise them.

The model is multinomial Naive Bayes over lowercased word unigrams
(hashtag bodies included, mentions and URLs excluded) with add-one
smoothing, scored in log space.  Tokens outside the vocabulary are
skipped, and an exact tie goes to Positive.

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
from .lexicon import TWEETS
from .tokenizer import HASHTAG, WORD, Token, tokenize

POSITIVE = "Positive"
NEGATIVE = "Negative"
LABELS = (POSITIVE, NEGATIVE)

MODEL_HEADER = "geosent-nb v1"


class ClassifierError(Exception):
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
    totals: dict[str, int]
    vocabulary: set[str] = field(default_factory=set)

    def __post_init__(self):
        if not self.vocabulary:
            for counts in self.token_counts.values():
                self.vocabulary.update(counts)


def features(text: str) -> list[str]:
    """Lowercased unigram features: words and hashtag bodies, in order."""
    return _token_features(tokenize(text))


def _token_features(tokens: Iterable[Token]) -> list[str]:
    """The features of an already tokenized text."""
    out = []
    for token in tokens:
        if token.kind == WORD:
            out.append(token.text.lower())
        elif token.kind == HASHTAG:
            out.append(token.text[1:].lower())
    return out


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
    totals = {label: sum(token_counts[label].values()) for label in LABELS}
    return NBModel(doc_counts=doc_counts, token_counts=token_counts, totals=totals)


def classify(model: NBModel, text: str) -> tuple[str, float]:
    """Label one text; returns (label, margin).

    The margin is log score(Positive) minus log score(Negative); zero or
    better means Positive.
    """
    margin = _margin(model, features(text))
    return (POSITIVE if margin >= 0.0 else NEGATIVE), margin


def _margin(model: NBModel, feats: list[str]) -> float:
    """log score(Positive) - log score(Negative) of one feature list."""
    total_docs = sum(model.doc_counts.values())
    vocab_size = len(model.vocabulary)
    toks = [t for t in feats if t in model.vocabulary]
    scores = {}
    for label in LABELS:
        score = math.log(model.doc_counts[label]) - math.log(total_docs)
        counts = model.token_counts[label]
        denom = model.totals[label] + vocab_size
        for tok in toks:
            score += math.log((counts.get(tok, 0) + 1) / denom)
        scores[label] = score
    return scores[POSITIVE] - scores[NEGATIVE]


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
    unit = TWEETS

    def __init__(self, model: NBModel):
        self.model = model

    def counts(self, tokens: Iterable[Token]) -> tuple[int, int]:
        """(1, 0) when the tweet classifies Positive, else (0, 1)."""
        return (1, 0) if _margin(self.model, _token_features(tokens)) >= 0.0 else (0, 1)


def save_model(model: NBModel, path: str | Path) -> None:
    """Write the versioned model file (deterministic ordering)."""
    lines = [MODEL_HEADER]
    for label in LABELS:
        lines.append(f"prior {label} {model.doc_counts[label]}")
    for label in LABELS:
        for tok, count in sorted(model.token_counts[label].items()):
            lines.append(f"tok {label} {tok} {count}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> NBModel:
    """Read a model file back; version or structure problems raise."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    lines = raw.splitlines()
    if not lines or lines[0] != MODEL_HEADER:
        head = lines[0] if lines else ""
        raise ModelFormatError(f"bad model header {head!r}, expected {MODEL_HEADER!r}")
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
            raise ModelFormatError(f"model file line {number}: {exc}") from None
    missing = [label for label in LABELS if label not in doc_counts]
    if missing:
        raise ModelFormatError(f"model file missing prior for {', '.join(missing)}")
    totals = {label: sum(token_counts[label].values()) for label in LABELS}
    return NBModel(doc_counts=doc_counts, token_counts=token_counts, totals=totals)


def load_labeled(path: str | Path) -> list[LabeledTweet]:
    """Read a label<TAB>text corpus; labels are case-insensitive."""
    canonical = {label.lower(): label for label in LABELS}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ClassifierError(f"corpus line {number}: expected label<TAB>text")
            label = canonical.get(parts[0].strip().lower())
            if label is None:
                raise ClassifierError(f"corpus line {number}: unknown label {parts[0]!r}")
            rows.append(LabeledTweet(text=parts[1], label=label))
    return rows
