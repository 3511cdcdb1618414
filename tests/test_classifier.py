import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from geosent.bundled import model_path, training_path
from geosent.classifier import (
    ClassifierError,
    LabeledTweet,
    ModelAnalyser,
    ModelFormatError,
    NBModel,
    TrainingError,
    classify,
    distant_label,
    evaluate,
    features,
    load_labeled,
    load_model,
    save_model,
    train,
)
from geosent.store import ParsedTweet
from geosent.tokenizer import _scan_features

from conftest import utc
from oracles import nb_label, nb_posteriors

TWO_DOCS = [
    LabeledTweet("happy joy happy", "Positive"),
    LabeledTweet("sad cry", "Negative"),
]


class TestFeatures:
    def test_words_lowercased(self):
        assert features("Happy JOY day") == ["happy", "joy", "day"]

    def test_hashtag_bodies_kept(self):
        assert features("so #Royal today") == ["so", "royal", "today"]

    def test_mentions_and_urls_dropped(self):
        assert features("@bbc look http://t.co/x now") == ["look", "now"]

    def test_punctuation_dropped(self):
        assert features("wait!!") == ["wait"]

    def test_emoticons_dropped(self):
        assert features("fine :)") == ["fine"]


class TestDistantLabel:
    def test_positive_and_negative(self):
        got = list(distant_label(["lovely day :)", "bad day :("]))
        assert [x.label for x in got] == ["Positive", "Negative"]

    def test_emoticon_removed_from_text(self):
        (got,) = distant_label(["lovely :) day"])
        assert got.text == "lovely day"

    def test_no_emoticon_discarded(self):
        assert list(distant_label(["no markers here"])) == []

    def test_both_polarities_discarded(self):
        assert list(distant_label(["confused :) :("])) == []

    def test_same_polarity_twice_kept(self):
        (got,) = distant_label(["so good :) :D"])
        assert got.label == "Positive"
        assert got.text == "so good"

    def test_emoticon_only_text_discarded(self):
        assert list(distant_label([":)", " :( "])) == []

    def test_longest_emoticon_wins(self):
        # ":-(" must not be read as ":-" plus "(" or split into ":" and "-("
        (got,) = distant_label(["oh no :-("])
        assert got.label == "Negative"
        assert got.text == "oh no"


class TestTrain:
    def test_worked_example_probabilities(self):
        model = train(TWO_DOCS)
        assert model.doc_counts == {"Positive": 1, "Negative": 1}
        assert model.totals == {"Positive": 3, "Negative": 2}
        assert model.vocabulary == {"happy", "joy", "sad", "cry"}
        # add-one smoothing: seen token 3/7, unseen-in-class token 1/6
        assert (model.token_counts["Positive"]["happy"] + 1) / (3 + 4) == 3 / 7
        assert (model.token_counts["Negative"].get("happy", 0) + 1) / (2 + 4) == 1 / 6

    def test_totals_are_derived_when_not_given(self):
        model = load_model(model_path())
        explicit = {label: sum(model.token_counts[label].values()) for label in ("Positive", "Negative")}
        assert model.totals == explicit
        assert NBModel(model.doc_counts, model.token_counts) == NBModel(
            model.doc_counts, model.token_counts, explicit)

    def test_unknown_label_rejected(self):
        with pytest.raises(TrainingError, match="Neutral"):
            train([LabeledTweet("x", "Neutral")])

    def test_missing_class_rejected(self):
        with pytest.raises(TrainingError, match="Negative"):
            train([LabeledTweet("x", "Positive")])

    def test_counts_accumulate_across_documents(self):
        model = train([
            LabeledTweet("happy happy", "Positive"),
            LabeledTweet("happy joy", "Positive"),
            LabeledTweet("sad", "Negative"),
        ])
        assert model.token_counts["Positive"]["happy"] == 3
        assert model.doc_counts["Positive"] == 2


class TestClassify:
    def test_matches_exact_oracle(self):
        model = train(TWO_DOCS)
        docs = [("Positive", ["happy", "joy", "happy"]), ("Negative", ["sad", "cry"])]
        for text in ["happy", "sad", "happy sad", "cry joy", "joy joy sad"]:
            assert classify(model, text)[0] == nb_label(docs, features(text))

    def test_tie_goes_positive(self):
        model = train(TWO_DOCS)
        label, margin = classify(model, "")
        assert label == "Positive"
        assert margin == 0.0

    def test_margin_tracks_posteriors(self):
        model = train(TWO_DOCS)
        docs = [("Positive", ["happy", "joy", "happy"]), ("Negative", ["sad", "cry"])]
        post = nb_posteriors(docs, ["happy", "joy"])
        _, margin = classify(model, "happy joy")
        want = math.log(float(post["Positive"] / post["Negative"]))
        assert margin == pytest.approx(want, rel=1e-12)

    def test_out_of_vocabulary_skipped(self):
        model = train(TWO_DOCS)
        with_unknown = classify(model, "happy zzz unknownzz")
        without = classify(model, "happy")
        assert with_unknown == without

    @given(st.lists(st.sampled_from(["happy", "joy", "sad", "cry", "other"]),
                    max_size=6))
    def test_always_agrees_with_oracle(self, words):
        model = train(TWO_DOCS)
        docs = [("Positive", ["happy", "joy", "happy"]), ("Negative", ["sad", "cry"])]
        text = " ".join(words)
        assert classify(model, text)[0] == nb_label(docs, features(text))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = train(TWO_DOCS)
        path = tmp_path / "model.nb"
        save_model(model, path)
        back = load_model(path)
        assert back == model

    def test_file_shape(self, tmp_path):
        model = train(TWO_DOCS)
        path = tmp_path / "model.nb"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "geosent-nb v1"
        assert lines[1] == "prior Positive 1"
        assert lines[2] == "prior Negative 1"
        assert lines[3:] == [
            "tok Positive happy 2",
            "tok Positive joy 1",
            "tok Negative cry 1",
            "tok Negative sad 1",
        ]

    def test_save_is_deterministic(self, tmp_path):
        model = train(TWO_DOCS)
        a, b = tmp_path / "a.nb", tmp_path / "b.nb"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.nb"
        save_model(train(TWO_DOCS), path)
        old = path.read_bytes()

        def torn_write(self, text, *args, **kwargs):
            # half the file is out when the disk fills up: cut at a line, it would load as another model
            Path.write_bytes(self, text[:text.index("\ntok Negative") + 1].encode())
            raise OSError("injected write failure")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError):
            save_model(train(TWO_DOCS + [LabeledTweet("more joy", "Positive")]), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.nb"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.nb"
        path.write_text("geosent-nb v999\nprior Positive 1\n")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_missing_prior(self, tmp_path):
        path = tmp_path / "model.nb"
        path.write_text("geosent-nb v1\nprior Positive 1\n")
        with pytest.raises(ModelFormatError, match="Negative"):
            load_model(path)

    def test_garbled_line(self, tmp_path):
        path = tmp_path / "model.nb"
        path.write_text("geosent-nb v1\nprior Positive 1\nprior Negative 1\nwhat\n")
        with pytest.raises(ModelFormatError, match="line 4"):
            load_model(path)

    def test_lines_break_at_lf_only(self, tmp_path):
        path = tmp_path / "model.nb"
        path.write_text("geosent-nb v1\nprior Positive 1\nprior Negative 1\n"
                        "tok Positive caf\u2028\u0085e 1\n", encoding="utf-8")
        assert load_model(path).token_counts["Positive"] == {"caf\u2028\u0085e": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "absent.nb")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "model.nb"
        path.write_bytes(b"geosent-nb v1\nprior Positive 1\nprior Negative 1\ntok Positive caf\xe9 1\n")
        with pytest.raises(ModelFormatError, match=f"^model file {re.escape(str(path))} is not UTF-8 text"):
            load_model(path)

    def test_bundled_model_regenerates_byte_identical(self, tmp_path):
        # the shipped model file must stay in sync with the shipped
        # training table
        fresh = tmp_path / "model.nb"
        save_model(train(load_labeled(training_path())), fresh)
        assert fresh.read_bytes() == model_path().read_bytes()


class TestLabeledTables:
    def test_round_trip(self, tmp_path):
        rows = [LabeledTweet("one two", "Positive"), LabeledTweet("three", "Negative")]
        path = tmp_path / "corpus.tsv"
        path.write_text("Positive\tone two\nNegative\tthree\n", encoding="utf-8")
        assert load_labeled(path) == rows

    def test_labels_case_insensitive(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("POSITIVE\tgood\nnegative\tbad\n")
        assert [r.label for r in load_labeled(path)] == ["Positive", "Negative"]

    def test_text_may_contain_further_tabs_only_on_read(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("positive\ta\tb\n")
        assert load_labeled(path)[0].text == "a\tb"

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("meh\ttext\n")
        with pytest.raises(ClassifierError, match="meh"):
            load_labeled(path)

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("positive only\n")
        with pytest.raises(ClassifierError, match="line 1"):
            load_labeled(path)


class TestEvaluate:
    def test_perfect_split(self):
        model = train(TWO_DOCS)
        report = evaluate(model, [
            LabeledTweet("happy happy", "Positive"),
            LabeledTweet("cry sad", "Negative"),
        ])
        assert report.accuracy == 1.0
        assert report.total == 2
        assert report.confusion[("Positive", "Positive")] == 1
        assert report.confusion[("Negative", "Positive")] == 0

    def test_counts_misses(self):
        model = train(TWO_DOCS)
        report = evaluate(model, [LabeledTweet("sad cry", "Positive")])
        assert report.accuracy == 0.0
        assert report.confusion[("Positive", "Negative")] == 1

    def test_empty_set_rejected(self):
        model = train(TWO_DOCS)
        with pytest.raises(ClassifierError, match="empty"):
            evaluate(model, [])

    def test_unknown_label_rejected(self):
        model = train(TWO_DOCS)
        with pytest.raises(ClassifierError, match="^unknown label 'Neutral'$"):
            evaluate(model, [LabeledTweet("happy", "Positive"), LabeledTweet("meh", "Neutral")])


class TestAnalyser:
    def test_metadata(self):
        analyser = ModelAnalyser(train(TWO_DOCS))
        assert analyser.approach == "MachineLearning"

    def test_tweet_counts_one_hot(self):
        analyser = ModelAnalyser(train(TWO_DOCS))
        assert analyser.counts(_scan_features("happy day")) == (1, 0)
        assert analyser.counts(_scan_features("sad cry day")) == (0, 1)

    def test_count_tweets_totals(self):
        model = train(TWO_DOCS)
        tweets = [
            ParsedTweet("1", utc(2013, 7, 22, 12), 2.0, 2.0,
                        "mycountry", "happycounty", "happy joy"),
            ParsedTweet("2", utc(2013, 7, 22, 13), 2.0, 2.0,
                        "mycountry", "happycounty", "sad"),
            ParsedTweet("3", utc(2013, 7, 22, 14), 2.0, 2.0,
                        "mycountry", "happycounty", "joy joy"),
        ]
        analyser = ModelAnalyser(model)
        pos, neg = map(sum, zip(*(analyser.counts(_scan_features(t.text)) for t in tweets)))
        assert (pos, neg) == (2, 1)
