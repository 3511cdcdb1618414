import pytest

from geosent.lexicon import (
    DictionaryAnalyser,
    LexiconError,
    load_lexicon,
    match_token,
)
from geosent.store import ParsedTweet
from geosent.tokenizer import tokenize

from conftest import utc


def make_lexicon(tmp_path, lines, name="lex.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_lexicon(path)


@pytest.fixture
def lex(tmp_path):
    return make_lexicon(tmp_path, [
        "# comment line",
        "happy\t3",
        "joy\t2",
        "sad\t-2",
        "awful\t-3",
        "delight*\t3",
        "terribl*\t-4",
        "terrible\t-1",  # exact beats the wildcard
    ])


class TestLoading:
    def test_counts(self, lex):
        assert len(lex.exact) == 5
        assert len(lex.wildcards) == 2

    def test_strength_out_of_range(self, tmp_path):
        with pytest.raises(LexiconError, match="strength"):
            make_lexicon(tmp_path, ["meh\t6"])
        with pytest.raises(LexiconError, match="strength"):
            make_lexicon(tmp_path, ["meh\t0"])

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(LexiconError, match="expected pattern"):
            make_lexicon(tmp_path, ["happy 3"])

    def test_embedded_star_rejected(self, tmp_path):
        with pytest.raises(LexiconError):
            make_lexicon(tmp_path, ["ha*py\t2"])

    def test_bare_star_rejected(self, tmp_path):
        with pytest.raises(LexiconError):
            make_lexicon(tmp_path, ["*\t2"])

    def test_duplicate_last_wins(self, tmp_path, caplog):
        lex = make_lexicon(tmp_path, ["happy\t3", "happy\t-1"])
        assert lex.exact["happy"] == -1
        assert any("duplicate" in r.message for r in caplog.records)


class TestMatching:
    def test_exact_case_insensitive(self, lex):
        word = tokenize("HAPPY")[0]
        assert match_token(lex, word) == 3

    def test_exact_beats_wildcard(self, lex):
        word = tokenize("terrible")[0]
        assert match_token(lex, word) == -1

    def test_wildcard_prefix(self, lex):
        assert match_token(lex, tokenize("terribly")[0]) == -4
        assert match_token(lex, tokenize("delightful")[0]) == 3

    def test_no_match(self, lex):
        assert match_token(lex, tokenize("neutral")[0]) is None

    def test_longest_wildcard_wins(self, tmp_path):
        lex = make_lexicon(tmp_path, ["dis*\t-1", "disco*\t2"])
        assert match_token(lex, tokenize("discovery")[0]) == 2
        assert match_token(lex, tokenize("dismal")[0]) == -1

    def test_hashtag_body_matched(self, lex):
        tag = tokenize("#happy")[0]
        assert tag.kind == "Hashtag"
        assert match_token(lex, tag) == 3

    def test_hashtag_matching_can_be_disabled(self, lex):
        tag = tokenize("#happy")[0]
        assert match_token(lex, tag, hashtag_match=False) is None

    def test_mentions_urls_emoticons_never_match(self, tmp_path):
        lex = make_lexicon(tmp_path, ["@bbc\t2", "http\t2", ":)\t2", "bbc\t1"])
        for raw in ("@bbc", "http://bbc.co.uk", ":)"):
            token = tokenize(raw)[0]
            assert match_token(lex, token) is None


class TestCounting:
    def test_word_unit_counts(self, lex):
        pos, neg = DictionaryAnalyser(lex).counts(tokenize("happy happy sad day"))
        assert (pos, neg) == (2, 1)

    def test_only_sign_matters(self, tmp_path):
        lex = make_lexicon(tmp_path, ["great\t5", "nice\t1", "bad\t-5"])
        analyser = DictionaryAnalyser(lex)
        assert analyser.counts(tokenize("great nice bad")) == (2, 1)

    def test_corpus_totals(self, lex):
        rows = [
            ParsedTweet("1", utc(2013, 7, 22), 2.0, 2.0, "mycountry", "happycounty", text)
            for text in ["happy joy", "sad awful day", "nothing here"]
        ]
        analyser = DictionaryAnalyser(lex)
        pos, neg = map(sum, zip(*(analyser.counts(tokenize(row.text)) for row in rows)))
        assert pos == 2
        assert neg == 2
        assert analyser.unit == "Words"

    def test_analyser_metadata(self, lex):
        analyser = DictionaryAnalyser(lex)
        assert analyser.approach == "Dictionary"
        assert analyser.unit == "Words"
