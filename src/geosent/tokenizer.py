"""Treebank-flavoured tweet tokenizer.

Splits on whitespace, then takes each chunk apart:

 - protected entities are recognised first: URLs (http://, https://,
   www., running to the next whitespace), @mentions, #hashtags, and
   emoticons from the shared table;
 - leading and trailing ASCII punctuation comes off as one Punct token
   per character, while internal apostrophes and hyphens stay put
   ("state-of-the-art" is one word);
 - trailing contractions split into their own Word token: n't 's 're
   've 'll 'd 'm, matched case-insensitively;
 - case is never changed.

Every non-whitespace character of the input lands in exactly one token,
in order, so joining token texts and deleting spaces reproduces the
input with its whitespace removed.

>>> [t.text for t in tokenize("Can't wait!!")]
['Ca', "n't", 'wait', '!', '!']
>>> [t.kind for t in tokenize("@kate #royal http://t.co/x :)")]
['Mention', 'Hashtag', 'Url', 'Emoticon']
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass

from . import emoticons

WORD = "Word"
PUNCT = "Punct"
MENTION = "Mention"
HASHTAG = "Hashtag"
URL = "Url"
EMOTICON = "Emoticon"

KINDS = (WORD, PUNCT, MENTION, HASHTAG, URL, EMOTICON)

_ASCII_PUNCT = frozenset(string.punctuation)
_URL_PREFIXES = ("http://", "https://", "www.")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# longest first so ":-)" beats ":-" + ")"
_EMOTICONS = tuple(sorted(emoticons.ALL, key=len, reverse=True))
# longest first so "n't" wins before "'t"-like tails could confuse shorter suffixes
_CONTRACTIONS = ("n't", "'re", "'ve", "'ll", "'s", "'d", "'m")


@dataclass(frozen=True)
class Token:
    text: str
    kind: str


def _entity_at(chunk: str) -> Token | None:
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


def _split_word(word: str) -> list[Token]:
    lowered = word.lower()
    for suffix in _CONTRACTIONS:
        if lowered.endswith(suffix) and len(word) > len(suffix):
            cut = len(word) - len(suffix)
            return [Token(word[:cut], WORD), Token(word[cut:], WORD)]
    return [Token(word, WORD)]


def _split_chunk(chunk: str) -> list[Token]:
    tokens: list[Token] = []
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


def tokenize(text: str) -> list[Token]:
    """Tokenize one tweet; see the module docstring for the rules."""
    tokens: list[Token] = []
    for chunk in text.split():
        tokens.extend(_split_chunk(chunk))
    return tokens
