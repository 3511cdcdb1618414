"""Every invocation in cli_transcript gives the recorded exit code, output and files."""

import json

import pytest

import cli_transcript

RECORDED = {entry["name"]: entry
            for entry in json.loads(cli_transcript.TRANSCRIPT.read_text(encoding="utf-8"))}
CASES = {case["name"]: case for case in cli_transcript.cases()}


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("transcript") / "fixture"
    cli_transcript.build_fixture(directory)
    return directory


def test_every_case_is_recorded():
    assert list(CASES) == list(RECORDED)


@pytest.mark.parametrize("name", list(CASES))
def test_case_replays(tmp_path, fixture, name):
    assert cli_transcript.run_case(CASES[name], fixture, tmp_path / "case") == RECORDED[name]
