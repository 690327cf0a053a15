"""Every command of the golden CLI corpus keeps its exit code, stdout and stderr."""

from __future__ import annotations

import pytest

from golden_corpus import digest, load_commands, load_digests

STORED = load_digests()


@pytest.mark.parametrize("command", load_commands())
def test_golden_output(command):
    # a command without digests is regenerated with tests/golden_corpus.py --write
    assert command in STORED, "no stored digests"
    assert digest(command) == STORED[command]


def test_every_digest_has_a_command():
    assert sorted(STORED) == sorted(load_commands())
