"""The golden CLI corpus: committed command lines and digests of their output.

tests/golden/commands.txt lists command lines; tests/golden/digests.json
holds, for each, the exit code and the sha256 of stdout and of stderr.  Each
command runs in-process through odckit.cli.main with tests/golden as the
working directory.  Search timings (`wall_time_s` in a machine document,
`time=` on the stderr summary) are masked before hashing.

Run as a script to compare every command with its stored digests and print
the ones that changed; with --write it rewrites digests.json as well:

    PYTHONPATH=src python tests/golden_corpus.py [--write]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = GOLDEN / "commands.txt"
DIGESTS = GOLDEN / "digests.json"

_MASKS = (
    (re.compile(r'"wall_time_s": [^,\n]+'), '"wall_time_s": 0'),
    (re.compile(r"time=[0-9.]+s"), "time=0s"),
)


def load_commands() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if ln.strip() and not ln.startswith("#")]


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _sha256(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(command: str) -> dict:
    """Run one command line from tests/golden; its exit code and output digests."""
    from odckit import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(shlex.split(command))
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print("usage: golden_corpus.py [--write]", file=sys.stderr)
        return 2
    stored = load_digests() if DIGESTS.exists() else {}
    fresh = {command: digest(command) for command in load_commands()}
    changed = [c for c in fresh if stored.get(c) != fresh[c]]
    dropped = [c for c in stored if c not in fresh]
    for c in changed:
        print(f"{'new' if c not in stored else 'changed'}: {c}")
    for c in dropped:
        print(f"dropped: {c}")
    if write:
        # one command per line, so a changed output is a one-line diff
        lines = (f"{json.dumps(c)}: {json.dumps(d)}" for c, d in fresh.items())
        DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(fresh)} digests to {DIGESTS}")
        return 0
    print(f"{len(changed) + len(dropped)} of {len(fresh)} commands differ from {DIGESTS.name}")
    return 1 if changed or dropped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
