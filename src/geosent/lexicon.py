"""Lexicon-based sentiment counting.

A lexicon is a TSV of pattern<TAB>strength lines: strength is an integer
in -5..-1 or 1..5, a trailing * marks a prefix wildcard, and # starts a
comment line.  Patterns may not contain whitespace: tokens never do, so
such an entry could never match.  Matching is case-insensitive against
Word tokens and hashtag bodies; an exact entry always beats a wildcard,
and among wildcards the longest prefix wins.  A token has at most one
candidate prefix of each length, so a match looks the token's own
prefixes up in a table, longest first: at most one lookup per character
of the token, however many wildcards the lexicon has.  Only the sign of
the strength feeds the counts: one matched token is one positive or one
negative word.

DictionaryAnalyser counts a tweet's features (the tokenizer's lowercased
words and hashtag bodies) rather than its tokens.  Aggregation hands it
one memo per block of tweets, which keeps the sign of every feature
matched so far: a word repeated across the block is looked up once, and
the memo goes when the block is done.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .store import GeosentError, _read_text
from .tokenizer import HASHTAG, WORD, Features, Token

log = logging.getLogger(__name__)


class LexiconError(GeosentError):
    """Raised for unreadable lexicon files; messages carry line numbers."""


@dataclass
class Lexicon:
    exact: dict[str, int]
    # (prefix, strength); load_lexicon lists the longest prefix first, but
    # matching takes the longest prefix whatever the order
    wildcards: list[tuple[str, int]]
    # prefix -> strength and the range of prefix lengths, built once from
    # wildcards: a later edit of the list does not reach them
    _prefixes: dict[str, int] = field(init=False, repr=False, compare=False)
    _shortest: int = field(init=False, repr=False, compare=False)
    _longest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._prefixes = {}
        for prefix, strength in self.wildcards:
            self._prefixes.setdefault(prefix, strength)  # a repeated prefix keeps its first entry
        lengths = [len(prefix) for prefix in self._prefixes]
        self._shortest = min(lengths, default=1)
        self._longest = max(lengths, default=0)


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a lexicon file; duplicate patterns keep the last entry."""
    exact: dict[str, int] = {}
    wild: dict[str, int] = {}
    for number, line in enumerate(_read_text(path, "lexicon", LexiconError).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconError(f"{path}: line {number}: expected pattern<TAB>strength")
        pattern, raw_strength = parts[0].strip().lower(), parts[1].strip()
        try:
            strength = int(raw_strength)
        except ValueError:
            raise LexiconError(f"{path}: line {number}: strength {raw_strength!r} is not an integer") from None
        if strength == 0 or not -5 <= strength <= 5:
            raise LexiconError(f"{path}: line {number}: strength must be in -5..-1 or 1..5")
        wildcard = pattern.endswith("*")
        if wildcard:
            pattern = pattern[:-1]
        if not pattern:
            raise LexiconError(f"{path}: line {number}: empty pattern")
        if "*" in pattern:
            raise LexiconError(f"{path}: line {number}: * is only allowed at the end of a pattern")
        if pattern.split() != [pattern]:  # the tokenizer would cut it: no token can match
            raise LexiconError(f"{path}: line {number}: pattern {pattern!r} contains whitespace, which no token has")
        table = wild if wildcard else exact
        if pattern in table:
            log.warning("lexicon line %d: duplicate pattern %r, keeping the later entry", number, pattern)
        table[pattern] = strength
    ordered = sorted(wild.items(), key=lambda kv: (-len(kv[0]), kv[0]))
    return Lexicon(exact=exact, wildcards=ordered)


def match_token(lexicon: Lexicon, token: Token, hashtag_match: bool = True) -> int | None:
    """Return the matched strength for a Word or hashtag body, else None."""
    if token.kind == WORD:
        text = token.text
    elif token.kind == HASHTAG and hashtag_match:
        text = token.text[1:]
    else:
        return None
    return _strength(lexicon, text.lower())


def _strength(lexicon: Lexicon, text: str) -> int | None:
    """The strength of a lowercased text: its exact entry, else its longest wildcard prefix."""
    strength = lexicon.exact.get(text)
    if strength is not None:
        return strength
    prefixes = lexicon._prefixes
    for k in range(min(len(text), lexicon._longest), lexicon._shortest - 1, -1):
        strength = prefixes.get(text[:k])
        if strength is not None:
            return strength
    return None


class DictionaryAnalyser:
    """Per-tweet positive/negative word counter for the aggregation step."""

    approach = "Dictionary"

    def __init__(self, lexicon: Lexicon, hashtag_match: bool = True):
        self.lexicon = lexicon
        self.hashtag_match = hashtag_match

    def counts(self, features: Features, memo: dict | None = None) -> tuple[int, int]:
        """Positive and negative lexicon matches among one tweet's features.

        memo maps each feature matched so far to the sign of its
        strength, 0 for no match; aggregation passes one per block of
        tweets, so a word repeated across the block is looked up once.
        """
        if memo is None:
            memo = {}
        lexicon, hashtag_match = self.lexicon, self.hashtag_match
        pos = neg = 0
        for text, is_hashtag in features:
            if is_hashtag and not hashtag_match:
                continue
            sign = memo.get(text)
            if sign is None:
                strength = _strength(lexicon, text)
                sign = memo[text] = 0 if strength is None else 1 if strength > 0 else -1
            if sign > 0:
                pos += 1
            elif sign:
                neg += 1
        return pos, neg
