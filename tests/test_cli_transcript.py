"""Replay of the committed CLI transcript: every record's command, run through
``cli.main``, gives the recorded exit code and, byte for byte, the recorded
stdout (see ``cli_transcript.py``; regenerate with
``python tests/cli_transcript.py --write``)."""

import pytest

import cli_transcript

RECORDS = cli_transcript.load()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("transcript")
    cli_transcript.write_inputs(directory)
    return directory


def test_the_transcript_holds_every_command_in_order():
    assert [r["argv"] for r in RECORDS] == cli_transcript.COMMANDS


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert cli_transcript.run(record["argv"]) == record
