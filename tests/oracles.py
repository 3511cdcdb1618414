"""Independent reference implementations used only by the tests.

Most of this is written from first principles with exact arithmetic
(fractions, or high-precision decimals where a square root is needed),
deliberately sharing no code with the package, so agreement between the
two is meaningful.  The scoring section instead keeps earlier package
code that a faster rewrite replaced: one T2 scan per aggregation spec,
the stand-alone normalisation helper, the lexicon's linear wildcard
scan and the region resolver's scan of every polygon.  Those are
references for differential tests; they reuse the package's row parser,
tokenizer, row type and crossing count, because what they pin is the
scan and fold, not those layers.
"""

from __future__ import annotations

from datetime import timedelta
from decimal import Decimal, getcontext
from fractions import Fraction

from geosent.estimator import EstimatorError, compute_pss
from geosent.georesolve import _crossings
from geosent.lexicon import SentimentCounts
from geosent.store import UNASSIGNED, ScoreRow, _parse_parsed_line
from geosent.tokenizer import HASHTAG, WORD, tokenize

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
            bucket = int((ts - start).total_seconds()) // spec.bucket_seconds
            if spec.level == "Country":
                key = (bucket, row.country, "")
            else:
                key = (bucket, row.county, row.country)
            pos, neg = analyser.counts(tokenize(row.text))
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
            pss=compute_pss(SentimentCounts(pos, neg)),
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
