"""The feature path the scorers take against the Token path it replaced.

Both analysers once scored a tweet's Token list: the lexicon counter
matched every token with match_token, and Naive Bayes summed each class's
log score on its own.  They now score the scanner's lowercased features,
and Naive Bayes adds one log-ratio weight per feature.  The Token path
lives on in oracles.token_counts and oracles.margin_per_class.  The
features were once scanned in one findall over the whole text; they are
now read chunk by chunk, and oracles.scan_features_whole_text keeps the
whole-text scan.
"""
import string

import pytest
from hypothesis import given, settings, strategies as st

from geosent import emoticons
from geosent.classifier import (
    LabeledTweet,
    ModelAnalyser,
    _ROUNDING,
    classify,
    features,
    train,
)
from geosent.lexicon import DictionaryAnalyser, Lexicon
from geosent.tokenizer import HASHTAG, WORD, _scan_features, tokenize

from oracles import margin_per_class, nb_label, nb_posteriors, scan_features_whole_text, token_counts

# mixed case, hashtags, contractions, and tokens the scorers must ignore;
# "İ" lowercases to two characters
PIECES = [
    "good", "Good", "GOOD", "goodness", "bad", "Badly", "BAD", "#good", "#Bad", "#badly",
    "don't", "DON'T", "it's", "It'S", "can't", "n't", "'s", "İstanbul", "istanbul",
    "@good", "http://x.co/bad", ":)", ":(", "!", "...", "good!!", "bad:(",
]
TEXTS = st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from([" ", " ", "", "\t"])),
                 max_size=12).map(lambda parts: "".join(p + sep for p, sep in parts))
PATTERNS = ["good", "goo", "bad", "ba", "badly", "don", "do", "n't", "it", "'s", "ca",
            "istanbul", "i̇stanbul", "i̇", "x"]
LEXICONS = st.builds(
    lambda exact, wild: Lexicon(exact=exact, wildcards=sorted(wild.items(), key=lambda kv: -len(kv[0]))),
    st.dictionaries(st.sampled_from(PATTERNS), st.sampled_from([-3, -1, 1, 2]), max_size=6),
    st.dictionaries(st.sampled_from(PATTERNS), st.sampled_from([-3, -1, 1, 2]), max_size=6),
)
CORPORA = st.lists(st.tuples(TEXTS, st.sampled_from(["Positive", "Negative"])), max_size=8).map(
    lambda docs: [LabeledTweet(text, label) for text, label in
                  [("good", "Positive"), ("bad", "Negative"), *docs]])


def token_features(text):
    """(lowercased text, is_hashtag) of each Word token and hashtag body."""
    return [(t.text.lower(), False) if t.kind == WORD else (t.text[1:].lower(), True)
            for t in tokenize(text) if t.kind in (WORD, HASHTAG)]


@settings(max_examples=500)
@given(st.one_of(st.text(), TEXTS))
def test_scan_features_are_the_word_and_hashtag_tokens(text):
    assert _scan_features(text) == token_features(text)


# chunks built as head + stem + tail, from pieces that sit on the edges of
# the shortcuts: "_" is punctuation but also a word character; URL stems
# before ".", "://" and "!"; characters whose case or class is odd; and
# the whitespace that str.split and the pattern must agree on
HEADS = ["", "#", "@", "_", "#_", "@_", ":)"]
STEMS = ["", "abc", "x1", "www", "WwW", "http", "hTtPs", "don't", "\u0661", "\u017f", "\u0130", "\u212a"]
TRAP_TAILS = ["_", "#_", "#", "@", ".", "://", "!", "'s", "n't", "x"]
ALL_TAILS = [*string.punctuation, *emoticons.ALL, "n't", "N'T", "'s", "'S", "'re", "'RE", "'ve", "'ll",
             "'d", "'m", "'M", "...", "!?"]
SPACES = [" ", "\t", "\x1c", "\x85", "\xa0", "\u3000", ""]
CHUNKS = st.tuples(st.sampled_from(HEADS), st.sampled_from(STEMS),
                   st.lists(st.one_of(st.sampled_from(TRAP_TAILS), st.sampled_from(ALL_TAILS)), max_size=3)
                   ).map(lambda parts: parts[0] + parts[1] + "".join(parts[2]))
TRAP_TEXTS = st.lists(st.tuples(CHUNKS, st.sampled_from(SPACES)), max_size=6).map(
    lambda parts: "".join(chunk + space for chunk, space in parts))


@settings(max_examples=1000)
@given(st.one_of(st.text(), TRAP_TEXTS))
def test_chunk_scan_matches_the_whole_text_scan(text):
    assert _scan_features(text) == scan_features_whole_text(text)


@pytest.mark.parametrize("text, expected", [
    # a plain word, and a word with a punctuation tail, which takes "_" and "#_" too
    ("Good", [("good", False)]),
    ("Good!!", [("good", False)]),
    ("good_", [("good", False)]),
    ("good#_", [("good", False)]),
    ("good:)", [("good", False)]),
    ("\u0130stanbul", [("i\u0307stanbul", False)]),
    ("\u0661\u0662", [("\u0661\u0662", False)]),
    # a URL stem is a word unless its tail starts the URL
    ("www", [("www", False)]),
    ("www!", [("www", False)]),
    ("www.", []),
    ("http:/", [("http", False)]),
    ("https!", [("https", False)]),
    ("hTtP://x", []),
    ("WwW.x", []),
    # a hashtag body is its whole \w run
    ("#Tag!", [("tag", True)]),
    ("#abc_", [("abc_", True)]),
    ("#abc!_", [("abc", True)]),
    ("#abc!#_", [("abc", True), ("_", True)]),
    ("##tag", [("tag", True)]),
    # a mention gives nothing, but what follows its \w run is scanned
    ("@kate_1!", []),
    ("@__x", []),
    ("@kate's", [("s", False)]),
    ("@kate!#_", [("_", True)]),
    # only punctuation
    ("...", []),
    (":)", []),
    ("#_", [("_", True)]),
    ("@#_", [("_", True)]),
    # the scanner's chunks
    ("DON'T!", [("do", False), ("n't", False)]),
    ("state-of-the-art", [("state-of-the-art", False)]),
    ("a\x1cb\x85c\xa0d\u3000e", [("a", False), ("b", False), ("c", False), ("d", False), ("e", False)]),
])
def test_chunk_shortcut_boundaries(text, expected):
    assert _scan_features(text) == expected
    assert scan_features_whole_text(text) == expected


def test_classifier_features_drop_the_flags():
    assert features("Can't #Royal @kate wait!! http://t.co/x") == ["ca", "n't", "royal", "wait"]


@settings(max_examples=300, deadline=None)
@given(lexicon=LEXICONS, hashtag_match=st.booleans(), corpus=CORPORA, texts=st.lists(TEXTS, max_size=10))
def test_both_analysers_count_as_the_token_path(lexicon, hashtag_match, corpus, texts):
    dictionary = DictionaryAnalyser(lexicon, hashtag_match=hashtag_match)
    model = ModelAnalyser(train(corpus))
    docs = [(example.label, features(example.text)) for example in corpus]
    memo: dict = {}  # shared across the tweets, as within one block of a scan
    for text in texts:
        feats, tokens = _scan_features(text), tokenize(text)
        assert dictionary.counts(feats, memo) == token_counts(dictionary, tokens), text
        assert dictionary.counts(feats) == token_counts(dictionary, tokens), text
        new, old = model.counts(feats, memo), token_counts(model, tokens)
        if new != old:
            # only where the scores tie exactly, which a per-class float sum can misread
            post = nb_posteriors(docs, features(text))
            assert post["Positive"] == post["Negative"] and new == (1, 0), text


@settings(max_examples=300, deadline=None)
@given(corpus=CORPORA, texts=st.lists(TEXTS, min_size=1, max_size=10))
def test_labels_agree_with_exact_arithmetic_and_the_per_class_margin(corpus, texts):
    model = train(corpus)
    docs = [(example.label, features(example.text)) for example in corpus]
    for text in texts:
        feats = features(text)
        label, margin = classify(model, text)
        old = margin_per_class(model, feats)
        assert label == nb_label(docs, feats), text  # an exact tie is Positive
        assert (margin >= 0.0) == (label == "Positive")
        # both sums are within half this of the exact margin
        bound = 2 * _ROUNDING * model._linear[2] * (len(feats) + 1) ** 2
        assert abs(margin - old) <= bound, (text, margin, old)
        if abs(old) > bound:
            assert (old >= 0.0) == (label == "Positive"), text


def test_exact_tie_is_positive_whatever_the_rounding():
    # P: 1/3 * (2/5)**3 and N: 2/3 * (2/5)**2 * (1/5) are both 8/375; summed per
    # class in floats the margin came out -4.4e-16, which read as Negative
    model = train([LabeledTweet("c b", "Positive"), LabeledTweet("d", "Negative"),
                   LabeledTweet("c", "Negative")])
    docs = [("Positive", ["c", "b"]), ("Negative", ["d"]), ("Negative", ["c"])]
    assert nb_label(docs, ["c", "c", "b"]) == "Positive"
    assert margin_per_class(model, ["c", "c", "b"]) < 0.0
    assert classify(model, "c c b") == ("Positive", 0.0)
    assert classify(model, "b c c") == ("Positive", 0.0)
    assert ModelAnalyser(model).counts(_scan_features("C #c B")) == (1, 0)


def test_empty_and_unknown_texts_tie_when_the_priors_do():
    model = train([LabeledTweet("good", "Positive"), LabeledTweet("bad", "Negative")])
    assert classify(model, "") == ("Positive", 0.0)
    assert classify(model, "unknown words @good") == ("Positive", 0.0)


def test_weights_are_built_on_first_use():
    model = train([LabeledTweet("good", "Positive"), LabeledTweet("bad", "Negative")])
    assert model._linear is None
    classify(model, "good")
    prior, weights, scale = model._linear
    assert prior == 0.0
    assert set(weights) == model.vocabulary
    assert weights["good"] == -weights["bad"] > 0.0
    assert scale == weights["good"]
