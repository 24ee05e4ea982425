"""The golden corpus of CLI output, ``cli.jsonl``, and its runner.

Each line of the corpus is one command: ``{"argv": [...], "exit": N,
"sha256": ...}``, the digest being the sha256 of
``repr((argv, exit_code, stdout, stderr))`` for the argv run through
``opalg.cli.main`` in-process.  ``tests/test_cli.py`` checks every line (the
five ``*_is_byte_identical`` tests the five groups the corpus opens with,
``test_cli_golden_corpus`` the rest); this script rewrites the digests after a declared output
change and prints each argv whose line changed, one per line:

    PYTHONPATH=src python tests/golden/regen.py

A new command is a new line holding its argv (any ``exit`` and ``sha256``),
then a run of this script.  No argv may print anything that depends on where
the checkout lies, so the corpus names presets, never rule-set files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from opalg import cli

CORPUS = Path(__file__).with_name("cli.jsonl")


def load():
    """The corpus lines, in file order."""
    with open(CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run(argv):
    """(exit code, digest) of argv run through ``cli.main`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = repr((argv, code, out.getvalue(), err.getvalue()))
    return code, hashlib.sha256(record.encode()).hexdigest()


def mismatches(lines):
    """The argv of every line whose exit code or digest is not its own."""
    return [line["argv"] for line in lines if run(line["argv"]) != (line["exit"], line["sha256"])]


def main():
    lines = load()
    changed = []
    for line in lines:
        code, digest = run(line["argv"])
        if (code, digest) != (line.get("exit"), line.get("sha256")):
            changed.append(line["argv"])
        line["exit"], line["sha256"] = code, digest
    CORPUS.write_text(
        "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8"
    )
    for argv in changed:
        print(shlex.join(argv))
    print(f"{len(changed)} of {len(lines)} lines changed", file=sys.stderr)


if __name__ == "__main__":
    main()
