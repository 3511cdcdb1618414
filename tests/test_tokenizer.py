import doctest
import string

import pytest
from hypothesis import given, settings, strategies as st

from geosent import emoticons, tokenizer
from geosent.tokenizer import KINDS, Token, tokenize

from oracles import tokenize_per_chunk


def texts(value):
    return [t.text for t in tokenize(value)]


def pairs(value):
    return [(t.text, t.kind) for t in tokenize(value)]


# ---------------------------------------------------------------------------
# frozen examples


def test_whitespace_splits():
    assert texts("the royal  baby\tarrives\nnow") == ["the", "royal", "baby", "arrives", "now"]


def test_empty_and_blank():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


@pytest.mark.parametrize("value,expected", [
    ("Can't", ["Ca", "n't"]),
    ("won't", ["wo", "n't"]),
    ("He's", ["He", "'s"]),
    ("they're", ["they", "'re"]),
    ("I've", ["I", "'ve"]),
    ("she'll", ["she", "'ll"]),
    ("I'd", ["I", "'d"]),
    ("I'm", ["I", "'m"]),
    ("CAN'T", ["CA", "N'T"]),
])
def test_contraction_splits(value, expected):
    assert texts(value) == expected


def test_contraction_needs_nonempty_stem():
    # nothing before the suffix, so the word stays whole
    assert texts("'s") == ["'", "s"]
    assert texts("n't") == ["n't"]


def test_internal_punctuation_stays():
    assert texts("state-of-the-art") == ["state-of-the-art"]
    assert texts("rock'n'roll") == ["rock'n'roll"]


def test_leading_and_trailing_punctuation_peel():
    assert pairs("(hello)") == [("(", "Punct"), ("hello", "Word"), (")", "Punct")]
    assert texts("''why''") == ["'", "'", "why", "'", "'"]
    assert texts("wait...") == ["wait", ".", ".", "."]
    assert texts("!!!") == ["!", "!", "!"]


def test_mention_and_hashtag():
    assert pairs("@BBC") == [("@BBC", "Mention")]
    assert pairs("#Royal") == [("#Royal", "Hashtag")]
    assert pairs(".@BBC:") == [(".", "Punct"), ("@BBC", "Mention"), (":", "Punct")]


def test_urls_protected():
    assert pairs("http://t.co/xYz") == [("http://t.co/xYz", "Url")]
    assert pairs("https://bbc.co.uk/news?id=1") == [("https://bbc.co.uk/news?id=1", "Url")]
    assert pairs("www.bbc.co.uk") == [("www.bbc.co.uk", "Url")]
    assert pairs("HTTP://T.CO/X") == [("HTTP://T.CO/X", "Url")]


def test_url_keeps_trailing_punctuation():
    # the whole whitespace chunk is the url, punctuation and all
    assert pairs("http://t.co/x,") == [("http://t.co/x,", "Url")]


def test_emoticons():
    assert pairs(":)") == [(":)", "Emoticon")]
    assert pairs(":-(") == [(":-(", "Emoticon")]
    assert pairs("good:-)") == [("good", "Word"), (":-)", "Emoticon")]
    assert pairs("great day :D") == [
        ("great", "Word"), ("day", "Word"), (":D", "Emoticon"),
    ]


def test_emoticon_longest_match_wins():
    # ":-(" must not come out as ":" "-" "("
    got = pairs("sad :-( indeed")
    assert (":-(", "Emoticon") in got


def test_emoticon_at_chunk_start():
    assert texts(":)xo") == [":)", "xo"]


def test_trailing_run_must_equal_emoticon_exactly():
    # ":((" is not in the table, so the run peels char by char
    assert pairs("sad:((") == [
        ("sad", "Word"), (":", "Punct"), ("(", "Punct"), ("(", "Punct"),
    ]


def test_mixed_sentence():
    got = pairs("Can't wait!! @bbc http://t.co/x #Royal :)")
    assert got == [
        ("Ca", "Word"), ("n't", "Word"), ("wait", "Word"),
        ("!", "Punct"), ("!", "Punct"),
        ("@bbc", "Mention"), ("http://t.co/x", "Url"),
        ("#Royal", "Hashtag"), (":)", "Emoticon"),
    ]


def test_token_kinds_are_known():
    for token in tokenize("a (b) @c #d http://e :) 'f'"):
        assert token.kind in KINDS


def test_tokens_are_frozen():
    token = tokenize("word")[0]
    with pytest.raises(AttributeError):
        token.text = "other"


# ---------------------------------------------------------------------------
# properties


@given(st.text())
def test_no_characters_invented_or_lost(value):
    joined = "".join(t.text for t in tokenize(value))
    assert joined == "".join(value.split())


@given(st.text())
def test_tokens_never_empty_or_spacey(value):
    for token in tokenize(value):
        assert token.text
        assert not any(c.isspace() for c in token.text)


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=30))
def test_case_preserved_ascii(value):
    joined = "".join(t.text for t in tokenize(value))
    assert joined == "".join(value.split())
    assert joined.lower() == "".join(value.lower().split())


# ---------------------------------------------------------------------------
# the compiled scanner against the per-chunk tokenizer it replaced

# pieces that reach every branch of the grammar and its case-folding traps:
# "ſ" lowercases to itself but matches "s" under re.IGNORECASE, "K" (Kelvin)
# lowercases to "k", and "İ" lowercases to two characters
PIECES = (
    ["http://", "HTTPS://", "hTtP://", "Www.", "wWw.", "htTpſ://", "httpſ://", "'ſ", "ſ", "K", "İ"]
    + list(emoticons.ALL)
    + ["n't", "N'T", "'re", "'RE", "'ve", "'Ll", "'s", "'S", "'d", "'M", "'t"]
    + list(string.punctuation)
    + [" ", "\t", "\n", "\x1c", "\x85", "　", "a", "B", "é", "_", "7"]
)
BIASED_TEXT = st.lists(st.sampled_from(PIECES), max_size=25).map("".join)


@settings(max_examples=500)
@given(st.one_of(st.text(), BIASED_TEXT))
def test_scanner_matches_per_chunk_tokenizer(value):
    assert tokenize(value) == tokenize_per_chunk(value)


@pytest.mark.parametrize("value", [
    "httpſ://x", "'ſ", "xn'ſ", "wwwK.x", "İn't", "aİ's", "x　n't", "a\x1cb",
    "sad:((", "ok:)", "ok:-(:)", "@@a", "##", "a.http://x", "(http://x)",
])
def test_scanner_matches_per_chunk_tokenizer_on_traps(value):
    assert tokenize(value) == tokenize_per_chunk(value)


def test_docstring_examples():
    result = doctest.testmod(tokenizer)
    assert result.attempted > 0
    assert result.failed == 0
