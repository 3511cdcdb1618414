"""Every command's declared keys hold: `key!` is required, `>key` may name no other file.

The cases come from each command's declaration in cli.build_parser, so a
key added there is tested here.  A run's written files are checked against
its `>` keys, so an output left undeclared fails too.
"""

import hashlib

import pytest

import cli_transcript
from cli_transcript import FLAGS, flags_to_config, snapshot, without
from geosent.cli import UsageError, build_parser, read_config

DECLARED = {name: p.get_default("declared") for name, p in build_parser()[1].items()}
SHARED = "shared.csv"  # empty, so it reads as a config file too


def flag(key):
    return "--" + key.replace("_", "-")


def marked(command, sign):
    keys = [key for key, mark in DECLARED[command].items() if mark[0] == sign]
    return ["config", *keys] if sign == "<" else keys  # --config is an implicit <config


def value(argv, key):
    words = argv.split()
    return words[words.index(flag(key)) + 1] if flag(key) in words else None


def with_value(argv, key, path):
    return f"{without(argv, key) if value(argv, key) else argv} {flag(key)} {path}"


def draws_line_graph(argv, key):
    return key == "line_out" or (key == "out" and value(argv, "kind") == "linegraph")


def outputs(argv):
    """The files argv's `>` keys name, worked out apart from cli._paths."""
    found = []
    for key in marked(argv.split()[0], ">"):
        path = value(argv, key)
        if key.startswith("line_") and not value(argv, "line_out"):
            continue
        if key == "line_scores":
            path = path or value(argv, "scores") + ".hourly"
        if path is not None:
            found += [path + ".svg", path + ".csv"] if draws_line_graph(argv, key) else [path]
    return found


def clashes():
    for name, argv in FLAGS.items():
        writes = marked(argv.split()[0], ">")
        for at, written in enumerate(writes):
            for read in marked(argv.split()[0], "<") + writes[:at]:
                yield name, written, read


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("declared") / "fixture"
    cli_transcript.build_fixture(directory)
    return directory


def run(fixture, tmp_path, argv, files=None, stdin=b""):
    case = dict(name=argv, argv=argv.split(), files=files or {}, stdin=stdin)
    return cli_transcript.run_case(case, fixture, tmp_path / "case")


def test_every_command_is_declared():
    assert set(DECLARED) == {argv.split()[0] for argv in FLAGS.values()}


@pytest.mark.parametrize("name, written, read", list(clashes()))
def test_output_naming_another_file_is_refused(fixture, tmp_path, name, written, read):
    stem = SHARED.removesuffix(".csv") if draws_line_graph(FLAGS[name], written) else SHARED
    argv = with_value(with_value(FLAGS[name], read, SHARED), written, stem)
    record = run(fixture, tmp_path, argv, {SHARED: ""})
    assert record["stderr"] == (f"usage error: {flag(written)} names the same file as "
                                f"{flag(read)}: {SHARED}\n")
    assert (record["exit"], record["stdout"]) == (1, "")
    assert record["files"] == {**snapshot(fixture), SHARED: hashlib.sha256(b"").hexdigest()}


@pytest.mark.parametrize("command, key", [(command, key) for command, marks in DECLARED.items()
                                          for key, mark in marks.items() if mark.endswith("!")])
def test_missing_required_key_is_refused(fixture, tmp_path, command, key):
    record = run(fixture, tmp_path, without(FLAGS[command], key))
    assert record["stderr"] == f"usage error: missing {flag(key)} (or {key}= in config)\n"
    assert (record["exit"], record["stdout"]) == (1, "")
    assert record["files"] == snapshot(fixture)


@pytest.mark.parametrize("name", list(FLAGS))
def test_a_run_writes_its_declared_outputs_and_nothing_else(fixture, tmp_path, name):
    record = run(fixture, tmp_path, FLAGS[name])
    assert record["exit"] == 0, record["stderr"]
    before = snapshot(fixture)
    changed = {path for path, digest in record["files"].items() if before.get(path) != digest}
    assert changed == set(outputs(FLAGS[name]))


def test_collect_reads_dash_as_stdin_and_writes_a_file_named_dash(fixture, tmp_path):
    record = run(fixture, tmp_path, "collect --input - --raw -", stdin=b'{"id": 1}\n')
    assert (record["exit"], record["stdout"]) == (0, "lines_read=1\nfragment_bytes=0\n")
    assert (tmp_path / "case" / "-").read_bytes() == b'{"id": 1}\n'


@pytest.mark.parametrize("key", ["func", "command", "declared", "config"])
def test_key_no_command_declares_is_refused_in_a_config_file(fixture, tmp_path, key):
    config = flags_to_config(FLAGS["parse"]) + f"{key} = x\n"
    record = run(fixture, tmp_path, "parse --config case.cfg", {"case.cfg": config})
    assert record["stderr"] == f"usage error: case.cfg: parse has no option {key!r}\n"
    assert (record["exit"], record["stdout"]) == (1, "")


def test_repeated_config_key_is_refused(fixture, tmp_path):
    # with only the last mix kept, this wrote records=2 and exited 0
    record = run(fixture, tmp_path, "gen-corpus --config case.cfg",
                 {"case.cfg": cli_transcript.REPEATED_MIX})
    assert record["stderr"] == "usage error: case.cfg: lines 5 and 6 both set 'mix'\n"
    assert (record["exit"], record["stdout"]) == (1, "")
    assert not (tmp_path / "case" / "g.jsonl").exists()


def test_read_config_names_both_lines_of_a_repeated_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("raw = a\n# note\nregions = r\n raw=b\n", encoding="utf-8")
    with pytest.raises(UsageError, match=r"run.cfg: lines 1 and 4 both set 'raw'$"):
        read_config(cfg)
