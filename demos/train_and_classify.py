"""Train the naive Bayes analyser and poke at what it learned.

    python3 demos/train_and_classify.py

Covers the supervised path end to end.  First distant labelling: raw
texts become training rows when they carry a smiley or a frowny, which
is then stripped so the model cannot just memorise it.  Then training,
a few classifications with their log-odds margins, and an evaluation
table over a held-back pair of rows.
"""

from pathlib import Path

from geosent import bundled, classify, distant_label, evaluate, load_model, save_model, train
from geosent.classifier import load_labeled

OUT = Path(__file__).resolve().parent / "out"


def main(out: Path = OUT) -> None:
    out.mkdir(exist_ok=True)

    print("== distant labelling ==")
    raw_texts = [
        "what a lovely morning :)",
        "train cancelled again :(",
        "no emoticon, no label",
        "mixed feelings :) :(",
    ]
    for row in distant_label(raw_texts):
        print(f"  {row.label:<8} {row.text!r}")
    print("  (the other two were discarded: one unlabelled, one contradictory)")

    print()
    print("== training ==")
    rows = load_labeled(bundled.training_path())
    holdout = [rows[0], rows[-1]]  # one of each label
    training = rows[1:-1]
    model = train(training)
    print(f"trained on {len(training)} rows, vocabulary of {len(model.vocabulary)} tokens")

    print()
    print("== classifying ==")
    for text in [
        "so happy about the wonderful news",
        "awful gloomy weather today",
        "the quick brown fox",
    ]:
        label, margin = classify(model, text)
        print(f"  {label:<8} margin={margin:+.3f}  {text!r}")

    print()
    print("== evaluation on the held-back rows ==")
    report = evaluate(model, holdout)
    print(f"  total={report.total} accuracy={report.accuracy:.2f}")
    for (truth, predicted), n in sorted(report.confusion.items()):
        print(f"  true={truth:<8} predicted={predicted:<8} count={n}")

    saved = out / "demo-model.nb"
    save_model(model, saved)
    again = load_model(saved)
    print()
    print(f"model saved to {saved.name}; reload equal: {again == model}")


if __name__ == "__main__":
    main()
