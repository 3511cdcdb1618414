"""Treebank-flavoured tweet tokenizer.

Whitespace separates chunks, and at each position inside a chunk the
first of these that matches makes the next token:

 - a URL (http://, https:// or www., in any case), running to the next
   whitespace;
 - an emoticon from the shared table, longest first;
 - an @mention or a #hashtag;
 - one ASCII punctuation character, as a Punct token;
 - otherwise the rest of the chunk is a word.  Its trailing run of ASCII
   punctuation is one Emoticon token if it is an emoticon, else one
   Punct token per character; internal apostrophes and hyphens stay put
   ("state-of-the-art" is one word).  A trailing contraction (n't 's
   're 've 'll 'd 'm, in any case) after a non-empty stem is a Word
   token of its own.

Case is never changed.  Every non-whitespace character of the input
lands in exactly one token, in order, so joining token texts and
deleting spaces reproduces the input with its whitespace removed.

One compiled pattern, _SCANNER, states these rules; tokenize runs it
once over the whole text.  No alternative of it matches across
whitespace and none looks behind, so a chunk scans the same on its own.

The scorers read only words and hashtags, so they take features instead
of tokens: the lowercased text of each Word token and each hashtag body,
in order, with a flag that marks the hashtags.  No Token is built on
that path.  It splits the text on whitespace first and reads the common
chunk shapes with string methods (a plain word, a word with a trailing
punctuation run, a #tag, an @user, a URL, a run of punctuation); only
the other chunks go through the scanner, one at a time.

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

# Case-insensitive parts are spelt as character classes: re.IGNORECASE
# would also take "ſ" (U+017F) for "s".  Each token kind is a named
# group; the word alternative ends with its "tail" group.
_PUNCT = f"[{re.escape(string.punctuation)}]"
_SCANNER = re.compile(
    rf"(?P<{URL}>(?:[Hh][Tt][Tt][Pp][Ss]?://|[Ww][Ww][Ww]\.)\S*)"
    rf"|(?P<{EMOTICON}>{emoticons.PATTERN})"
    rf"|(?P<{MENTION}>@\w+)"
    rf"|(?P<{HASHTAG}>#\w+)"
    rf"|(?P<{PUNCT}>{_PUNCT})"
    rf"|(?P<{WORD}>\S+?)"
    r"(?P<contraction>[Nn]'[Tt]|'(?:[Rr][Ee]|[Vv][Ee]|[Ll][Ll]|[Ss]|[Dd]|[Mm]))?"
    rf"(?P<tail>{_PUNCT}*)(?!\S)"
)


# what the scorers read of a text: (lowercased text, is_hashtag) per
# Word token and hashtag body, in order
Features = list[tuple[str, bool]]


@dataclass(frozen=True)
class Token:
    text: str
    kind: str


def tokenize(text: str) -> list[Token]:
    """Tokenize one tweet; see the module docstring for the rules."""
    tokens: list[Token] = []
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind != "tail":
            tokens.append(Token(m.group(), kind))
            continue
        word, contraction, tail = m.group(WORD, "contraction", "tail")
        tokens.append(Token(word, WORD))
        if contraction:
            tokens.append(Token(contraction, WORD))
        if tail in emoticons.ALL:
            tokens.append(Token(tail, EMOTICON))
        else:
            tokens.extend(Token(c, PUNCT) for c in tail)
    return tokens


# the chunk starts that make the whole chunk one Url token; no character
# outside ASCII lowercases to any of their letters
_URL_PREFIXES = ("http://", "https://", "www.")
# word stems that a punctuation tail can turn into a URL prefix
_URL_STEMS = frozenset(("http", "https", "www"))


def _scan_features(text: str) -> Features:
    """The Features of a text: what tokenize's Word and Hashtag tokens give.

    The text is split on whitespace first (str.split and the pattern's
    \\s test the same characters), and each chunk is read on its own,
    where tokenize scans the whole text once.  A chunk shape that string
    methods settle exactly takes a shortcut; only the other chunks go
    through _SCANNER.  The pattern's word characters are those for which
    str.isalnum() holds, plus "_".  The traps: "_" is ASCII punctuation
    but also a word character, so "#abc_" tags "abc_" and "#_" tags "_";
    and "www", "http" or "https" before "." or "://" start a URL, not a
    word.
    """
    out = []
    append = out.append
    for chunk in text.split():
        if chunk.isalnum():  # a plain word
            append((chunk.lower(), False))
            continue
        stem = chunk.rstrip(string.punctuation)
        if stem.isalnum():  # a word and its punctuation tail
            word = stem.lower()
            if word not in _URL_STEMS:
                append((word, False))
                continue
        elif not stem:  # only punctuation: a "#_" is the one feature it can hold
            if "#_" not in chunk:
                continue
        elif chunk[0] == "#":
            if stem[1:].isalnum() and "_" not in chunk:
                append((stem[1:].lower(), True))
                continue
        elif chunk[0] == "@":  # the mention takes every word character; a "#_" after it counts
            if stem[1:].replace("_", "").isalnum() and "#_" not in chunk:
                continue
        elif chunk[:8].lower().startswith(_URL_PREFIXES):
            continue
        # findall gives each match's groups in pattern order; a group that
        # took no part in the match is empty
        for _url, _emoticon, _mention, hashtag, _punct, word, contraction, _tail in _SCANNER.findall(chunk):
            if word:
                append((word.lower(), False))
                if contraction:
                    append((contraction.lower(), False))
            elif hashtag:
                append((hashtag[1:].lower(), True))
    return out
