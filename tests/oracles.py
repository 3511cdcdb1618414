"""Independent reference implementations used only by the tests.

Most of this is written from first principles with exact arithmetic
(fractions, or high-precision decimals where a square root is needed),
deliberately sharing no code with the package, so agreement between the
two is meaningful.  The rest keeps earlier package code that a rewrite
replaced: one T2 scan per aggregation spec, the stand-alone
normalisation helper, the lexicon's linear wildcard scan, the analysers'
scoring of Token lists (match_token per token, Naive Bayes summed per
class), the region resolver's scan of every polygon, the per-chunk
tokenizer, the tile-map strip packer that re-measured every strip, the
timedelta bucket rule and the strftime instant formatter.
Those are references for differential tests; they reuse the package's
row parser, tokenizer, row type and crossing count, because what they
pin is the scan and fold, not those layers.
"""

from __future__ import annotations

import math
import re
import string
from datetime import timedelta, timezone
from decimal import Decimal, getcontext
from fractions import Fraction

from geosent.classifier import LABELS, NEGATIVE, POSITIVE
from geosent.estimator import EstimatorError, compute_pss
from geosent.georesolve import _crossings
from geosent.lexicon import DictionaryAnalyser, match_token
from geosent.store import UNASSIGNED, ScoreRow, _parse_parsed_line
from geosent import emoticons
from geosent.tokenizer import EMOTICON, HASHTAG, MENTION, PUNCT, URL, WORD, Token, tokenize
from geosent.visualize import HEIGHT, MAX_RATIO, WIDTH

getcontext().prec = 50


# ---------------------------------------------------------------------------
# point in polygon, winding number rule


def _is_left(x1, y1, x2, y2, px, py):
    return (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)


def winding_number(ring, lat, lon):
    """Winding count of a ring (list of (lon, lat)) around a point."""
    wn = 0
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if y1 <= lat:
            if y2 > lat and _is_left(x1, y1, x2, y2, lon, lat) > 0:
                wn += 1
        elif y2 <= lat and _is_left(x1, y1, x2, y2, lon, lat) < 0:
            wn -= 1
    return wn


def wn_contains(exterior, holes, lat, lon):
    """Inside the exterior and outside every hole, by winding count."""
    if winding_number(exterior, lat, lon) == 0:
        return False
    return all(winding_number(hole, lat, lon) == 0 for hole in holes)


def resolve_linear(index, lat, lon):
    """The pre-grid resolve: every county in file order, then every country."""
    for level in ("County", "Country"):
        for p in index.polygons:
            if p.level != level:
                continue
            min_lon, min_lat, max_lon, max_lat = p.bbox
            if min_lon <= lon <= max_lon and min_lat <= lat <= max_lat:
                if _crossings([p.exterior] + p.holes, lat, lon) % 2 == 1:
                    return (p.parent, p.name) if level == "County" else (p.name, UNASSIGNED)
    return None


# ---------------------------------------------------------------------------
# scores


def pss_fraction(pos: int, neg: int) -> Fraction | None:
    if pos == 0 and neg == 0:
        return None
    return Fraction(pos, max(neg, 1))


def npss_fractions(cells: dict) -> dict:
    """cells: name -> (pos, neg); returns name -> exact relative score."""
    scores = {name: pss_fraction(p, n) for name, (p, n) in cells.items()}
    defined = [s for s in scores.values() if s is not None]
    top = max(defined)
    return {name: (None if s is None else s / top) for name, s in scores.items()}


def normalize(group: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Scale a (region, pss) group by its maximum; order is preserved."""
    if not group:
        raise EstimatorError("empty normalisation group")
    if any(pss is None for _, pss in group):
        raise EstimatorError("normalisation group contains undefined scores")
    top = max(pss for _, pss in group)
    if top <= 0.0:
        raise EstimatorError("normalisation group has no positive score")
    return [(region, pss / top) for region, pss in group]


def bucket_of(ts, start, bucket_seconds) -> int:
    """The bucket of an instant in a window starting at start: the timedelta rule."""
    return int((ts - start).total_seconds()) // bucket_seconds


def format_instant_strftime(ts) -> str:
    """store.format_instant before it stopped calling strftime."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def aggregate_per_pass(spec, parsed_path, analyser) -> list[ScoreRow]:
    """One scan of a parsed table for one spec: the pre-fusion aggregate."""
    spec.validate()
    start, end = spec.window
    cells: dict = {}
    with open(parsed_path, encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                row = _parse_parsed_line(line)
            except ValueError:
                continue
            ts = row.timestamp
            if not start <= ts < end:
                continue
            bucket = bucket_of(ts, start, spec.bucket_seconds)
            if spec.level == "Country":
                key = (bucket, row.country, "")
            else:
                key = (bucket, row.county, row.country)
            pos, neg = token_counts(analyser, tokenize(row.text))
            cell = cells.setdefault(key, [0, 0, 0])
            cell[0] += pos
            cell[1] += neg
            cell[2] += 1

    delta = timedelta(seconds=spec.bucket_seconds)
    rows = []
    for (bucket, region, parent), (pos, neg, tweets) in cells.items():
        bucket_start = start + bucket * delta
        rows.append(ScoreRow(
            approach=analyser.approach,
            level=spec.level,
            region=region,
            parent=parent,
            bucket_start=bucket_start,
            bucket_end=min(bucket_start + delta, end),
            pos_count=pos,
            neg_count=neg,
            tweet_count=tweets,
            pss=compute_pss(pos, neg),
            npss=None,
        ))
    groups: dict = {}
    for row in rows:
        if row.pss is not None:
            key = (row.bucket_start, row.parent if spec.norm_scope == "siblings" else None)
            groups.setdefault(key, []).append(row)
    for members in groups.values():
        top = max(row.pss for row in members)
        if top > 0.0:
            for row in members:
                row.npss = row.pss / top
    rows.sort(key=lambda r: (r.bucket_start, r.region))
    return rows


# ---------------------------------------------------------------------------
# scoring Token lists: the analysers before they read features


def token_counts(analyser, tokens):
    """A Dictionary or MachineLearning analyser's counts of one tweet's tokens."""
    if isinstance(analyser, DictionaryAnalyser):
        pos = neg = 0
        for token in tokens:
            strength = match_token(analyser.lexicon, token, analyser.hashtag_match)
            if strength is None:
                continue
            if strength > 0:
                pos += 1
            else:
                neg += 1
        return pos, neg
    return (1, 0) if margin_per_class(analyser.model, token_features(tokens)) >= 0.0 else (0, 1)


def token_features(tokens):
    """The Naive Bayes features of a tokenized text: lowercased words and hashtag bodies."""
    out = []
    for token in tokens:
        if token.kind == WORD:
            out.append(token.text.lower())
        elif token.kind == HASHTAG:
            out.append(token.text[1:].lower())
    return out


def margin_per_class(model, feats):
    """log score(Positive) - log score(Negative), each class's log score summed on its own."""
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


# ---------------------------------------------------------------------------
# lexicon matching


def match_token_linear(lexicon, token, hashtag_match=True):
    """The pre-table match_token: exact entry, else the first wildcard in list order."""
    if token.kind == WORD:
        text = token.text
    elif token.kind == HASHTAG and hashtag_match:
        text = token.text[1:]
    else:
        return None
    text = text.lower()
    strength = lexicon.exact.get(text)
    if strength is not None:
        return strength
    for prefix, s in lexicon.wildcards:
        if text.startswith(prefix):
            return s
    return None


# ---------------------------------------------------------------------------
# the per-chunk tokenizer: split on whitespace, then peel each chunk


_ASCII_PUNCT = frozenset(string.punctuation)
_URL_PREFIXES = ("http://", "https://", "www.")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# longest first so ":-)" beats ":-" + ")"
_EMOTICONS = tuple(sorted(emoticons.ALL, key=len, reverse=True))
# longest first so "n't" wins before "'t"-like tails could confuse shorter suffixes
_CONTRACTIONS = ("n't", "'re", "'ve", "'ll", "'s", "'d", "'m")


def _entity_at(chunk):
    lowered = chunk.lower()
    if lowered.startswith(_URL_PREFIXES):
        return Token(chunk, URL)  # a URL runs to the next whitespace
    for emo in _EMOTICONS:
        if chunk.startswith(emo):
            return Token(emo, EMOTICON)
    m = _MENTION_RE.match(chunk)
    if m:
        return Token(m.group(), MENTION)
    m = _HASHTAG_RE.match(chunk)
    if m:
        return Token(m.group(), HASHTAG)
    return None


def _split_word(word):
    lowered = word.lower()
    for suffix in _CONTRACTIONS:
        if lowered.endswith(suffix) and len(word) > len(suffix):
            cut = len(word) - len(suffix)
            return [Token(word[:cut], WORD), Token(word[cut:], WORD)]
    return [Token(word, WORD)]


def _split_chunk(chunk):
    tokens = []
    rest = chunk
    while rest:
        entity = _entity_at(rest)
        if entity is not None:
            tokens.append(entity)
            rest = rest[len(entity.text):]
            continue
        if rest[0] in _ASCII_PUNCT:
            tokens.append(Token(rest[0], PUNCT))
            rest = rest[1:]
            continue
        break
    if not rest:
        return tokens
    cut = len(rest)
    while cut > 0 and rest[cut - 1] in _ASCII_PUNCT:
        cut -= 1
    core, tail = rest[:cut], rest[cut:]
    tokens.extend(_split_word(core))
    if tail:
        if tail in _EMOTICONS:
            tokens.append(Token(tail, EMOTICON))
        else:
            tokens.extend(Token(c, PUNCT) for c in tail)
    return tokens


def tokenize_per_chunk(text):
    """The pre-scanner tokenize: str.split, then each chunk peeled in turn."""
    tokens = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens


# ---------------------------------------------------------------------------
# tile-map strip packing, measuring every tile of a strip for each row


def _strip_worst_all(volumes, total):
    """Worst tile aspect ratio if these volumes share one vertical strip."""
    strip_volume = sum(volumes)
    w = strip_volume / total * WIDTH
    worst = 1.0
    for v in volumes:
        h = v / strip_volume * HEIGHT
        worst = max(worst, w / h if w > h else h / w)
    return worst


def pack_strips_quadratic(rows, total):
    """The pre-running-extremes _pack_strips: O(strip size) work per row."""
    strips = []
    current = []
    for row in rows:
        if current:
            vols = [r.tweet_count for r in current]
            if (
                _strip_worst_all(vols, total) <= MAX_RATIO
                and _strip_worst_all(vols + [row.tweet_count], total) > MAX_RATIO
            ):
                strips.append(current)
                current = [row]
                continue
        current.append(row)
    if current:
        strips.append(current)
    return strips


# ---------------------------------------------------------------------------
# add-one Naive Bayes with exact fractions


def nb_posteriors(train_docs, features):
    """train_docs: list of (label, [tokens]); returns label -> Fraction score.

    Unknown feature tokens are skipped, matching a vocabulary filter.
    """
    labels = []
    token_counts = {}
    totals = {}
    doc_counts = {}
    vocabulary = set()
    for label, tokens in train_docs:
        if label not in labels:
            labels.append(label)
        doc_counts[label] = doc_counts.get(label, 0) + 1
        for token in tokens:
            vocabulary.add(token)
            token_counts[(label, token)] = token_counts.get((label, token), 0) + 1
            totals[label] = totals.get(label, 0) + 1
    v = len(vocabulary)
    docs_total = sum(doc_counts.values())
    out = {}
    for label in labels:
        score = Fraction(doc_counts[label], docs_total)
        for token in features:
            if token not in vocabulary:
                continue
            count = token_counts.get((label, token), 0)
            score *= Fraction(count + 1, totals.get(label, 0) + v)
        out[label] = score
    return out


def nb_label(train_docs, features):
    """Winning label; a tie goes to Positive."""
    post = nb_posteriors(train_docs, features)
    if post["Positive"] >= post["Negative"]:
        return "Positive"
    return "Negative"


# ---------------------------------------------------------------------------
# Pearson correlation at 50-digit precision


def pearson_decimal(xs, ys) -> Decimal:
    n = len(xs)
    assert n == len(ys) and n >= 2
    fx = [Fraction(float(x)) for x in xs]
    fy = [Fraction(float(y)) for y in ys]
    mx = sum(fx, Fraction(0)) / n
    my = sum(fy, Fraction(0)) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    vx = sum((a - mx) ** 2 for a in fx)
    vy = sum((b - my) ** 2 for b in fy)
    assert vx > 0 and vy > 0, "constant series"
    num = Decimal(cov.numerator) / Decimal(cov.denominator)
    den = (
        (Decimal(vx.numerator) / Decimal(vx.denominator))
        * (Decimal(vy.numerator) / Decimal(vy.denominator))
    ).sqrt()
    return num / den
