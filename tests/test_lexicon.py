import pickle
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from geosent.lexicon import (
    DictionaryAnalyser,
    Lexicon,
    LexiconError,
    load_lexicon,
    match_token,
)
from geosent.store import ParsedTweet
from geosent.tokenizer import HASHTAG, KINDS, WORD, Token, _scan_features, tokenize

from conftest import utc
from oracles import match_token_linear


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

    def test_strength_not_an_integer(self, tmp_path):
        path = tmp_path / "lex.tsv"
        with pytest.raises(LexiconError, match=f"^{re.escape(str(path))}: line 2: strength "
                                               "'lots' is not an integer$"):
            make_lexicon(tmp_path, ["happy\t3", "meh\tlots"])

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(LexiconError, match="expected pattern"):
            make_lexicon(tmp_path, ["happy 3"])

    def test_embedded_star_rejected(self, tmp_path):
        with pytest.raises(LexiconError):
            make_lexicon(tmp_path, ["ha*py\t2"])

    @pytest.mark.parametrize("pattern", ["very good", "very\u00a0good*"])
    def test_whitespace_in_pattern_rejected(self, tmp_path, pattern):
        with pytest.raises(LexiconError, match="line 2: .*whitespace"):
            make_lexicon(tmp_path, ["happy\t3", f"{pattern}\t2"])

    def test_bare_star_rejected(self, tmp_path):
        with pytest.raises(LexiconError):
            make_lexicon(tmp_path, ["*\t2"])

    def test_duplicate_last_wins(self, tmp_path, caplog):
        lex = make_lexicon(tmp_path, ["happy\t3", "happy\t-1"])
        assert lex.exact["happy"] == -1
        assert any("duplicate" in r.message for r in caplog.records)

    def test_byte_order_mark_is_not_part_of_the_first_pattern(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"\xef\xbb\xbfhappy\t3\nsad\t-2\n")
        lex = load_lexicon(path)
        assert lex.exact == {"happy": 3, "sad": -2}
        assert DictionaryAnalyser(lex).counts(_scan_features("so happy and sad")) == (1, 1)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"happy\t3\nsad\xff\t-2\n")
        with pytest.raises(LexiconError, match=f"^lexicon file {re.escape(str(path))} is not UTF-8 text"):
            load_lexicon(path)


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


# letters that make overlapping prefixes; "\u0130" lowers to two characters
# and "\u1e9e" lowers to "\u00df", which upper-cases to "SS"
_CHARS = "disDISco\u0130\u1e9e\u00dfi\u0307"
_ENTRIES = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(["dis", "disco", "discov", "Disco", "\u0130s", "\u1e9eo", "\u00dfo"]),
                  st.text(_CHARS, min_size=1, max_size=6)),
        st.booleans(),
        st.sampled_from([-5, -2, -1, 1, 3, 5]),
    ),
    max_size=12,
)


@st.composite
def _tokens(draw, patterns):
    """A token shorter than, as long as or longer than a drawn pattern, or unrelated text."""
    stem = draw(st.sampled_from(patterns)) if patterns and draw(st.booleans()) else ""
    text = stem[:draw(st.integers(0, len(stem)))] + draw(st.text(_CHARS, max_size=4))
    text = draw(st.sampled_from([str, str.upper, str.lower, str.swapcase]))(text)
    kind = draw(st.sampled_from(KINDS))
    return Token("#" + text if kind == HASHTAG else text, kind)


class TestAgainstLinearScan:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=_ENTRIES, hashtag_match=st.booleans(), data=st.data())
    def test_loaded_lexicons_match_the_linear_scan(self, tmp_path, entries, hashtag_match, data):
        # the file is rewritten for every example, so sharing tmp_path is safe
        lex = make_lexicon(tmp_path, [f"{p}{'*' if wild else ''}\t{s}" for p, wild, s in entries])
        tokens = data.draw(st.lists(_tokens([p for p, _, _ in entries]), min_size=1, max_size=20))
        for token in tokens:
            assert match_token(lex, token, hashtag_match) == match_token_linear(lex, token, hashtag_match)

    def test_repeated_prefix_keeps_the_first_entry(self):
        lex = Lexicon(exact={}, wildcards=[("ba", -3), ("ba", 2)])
        token = Token("bat", WORD)
        assert match_token(lex, token) == match_token_linear(lex, token) == -3

    def test_unsorted_wildcards_longest_wins(self):
        lex = Lexicon(exact={}, wildcards=[("dis", -1), ("disco", 2)])
        assert match_token(lex, Token("discovery", WORD)) == 2
        assert match_token_linear(lex, Token("discovery", WORD)) == -1  # the scan took list order
        assert match_token(lex, Token("dismal", WORD)) == -1

    def test_no_wildcards(self):
        lex = Lexicon(exact={"bat": 1}, wildcards=[])
        for text in ("bat", "batch", "b", ""):
            token = Token(text, WORD)
            assert match_token(lex, token) == match_token_linear(lex, token)

    def test_table_stays_out_of_equality_repr_and_pickle(self):
        lex = Lexicon(exact={"bat": 1}, wildcards=[("disco", 2), ("dis", -1)])
        assert lex == Lexicon(exact={"bat": 1}, wildcards=[("disco", 2), ("dis", -1)])
        assert repr(lex) == "Lexicon(exact={'bat': 1}, wildcards=[('disco', 2), ('dis', -1)])"
        copy = pickle.loads(pickle.dumps(lex))
        assert copy == lex
        assert match_token(copy, Token("discovery", WORD)) == 2


class TestCounting:
    def test_word_unit_counts(self, lex):
        pos, neg = DictionaryAnalyser(lex).counts(_scan_features("happy happy sad day"))
        assert (pos, neg) == (2, 1)

    def test_only_sign_matters(self, tmp_path):
        lex = make_lexicon(tmp_path, ["great\t5", "nice\t1", "bad\t-5"])
        analyser = DictionaryAnalyser(lex)
        assert analyser.counts(_scan_features("great nice bad")) == (2, 1)

    def test_corpus_totals(self, lex):
        rows = [
            ParsedTweet("1", utc(2013, 7, 22), 2.0, 2.0, "mycountry", "happycounty", text)
            for text in ["happy joy", "sad awful day", "nothing here"]
        ]
        analyser = DictionaryAnalyser(lex)
        pos, neg = map(sum, zip(*(analyser.counts(_scan_features(row.text)) for row in rows)))
        assert pos == 2
        assert neg == 2

    def test_analyser_metadata(self, lex):
        analyser = DictionaryAnalyser(lex)
        assert analyser.approach == "Dictionary"
