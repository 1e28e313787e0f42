"""Byte-for-byte CLI transcript: stdout and exit code of fixed invocations.

The transcript in golden/cli_transcript.json holds, for each invocation, its
argument list, exit code and stdout with the `timing_ms` value zeroed.  It
covers `bound`, `chains`, `verify` and `reproduce` over every named condition
and one custom table, in all three output formats.  Regenerate it only when
an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

from chainweight.cli import THREADS_ENV_VAR, main

GOLDEN_DIR = Path(__file__).parent / "golden"
TRANSCRIPT = GOLDEN_DIR / "cli_transcript.json"

CONDITIONS = (
    "antichain",
    "erdos:k=2",
    "katona:k=3",
    "ratio:lambda=3/2",
    "intratio:c=2",
    "custom:file=custom.json",  # resolved against GOLDEN_DIR
)
FORMATS = ("json", "csv", "text")
USAGE_ERRORS = (
    ("bound", "--n", "9", "--condition", "erdos:k=0"),
    ("bound", "--n", "9", "--condition", "intratio:c=1"),
    ("bound", "--n", "9", "--condition", "ratio:lambda=3/0"),
    ("bound", "--n", "9", "--condition", "ratio:lambda=-3/-2"),
    ("bound", "--n", "10", "--condition", "custom:file=custom.json"),
)


def invocations() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        for cond in CONDITIONS:
            common = ["--format", fmt]
            out.append(common + ["bound", "--n", "9", "--condition", cond])
            out.append(common + ["chains", "--n", "8", "--condition", cond,
                                 "--ell", "2", "--levels", "0,3,6"])
            out.append(common + ["chains", "--n", "8", "--condition", cond, "--ell", "3"])
            out.append(common + ["verify", "--n", "5", "--condition", cond])
            out.append(common + ["verify", "--n", "4", "--condition", cond, "--ell", "2"])
            # Levels 1 and 3 of [5] as a hex indicator.
            out.append(common + ["verify", "--n", "5", "--condition", cond,
                                 "--family", "16696996", "--ell", "2"])
        out.append(["--format", fmt, "reproduce"])
    out.extend(list(args) for args in USAGE_ERRORS)
    return out


def strip_timing(text: str) -> str:
    # json "timing_ms":1.5, csv timing_ms,1.5 and text timing_ms: 1.5
    return re.sub(r'(timing_ms"?(?::|,|: ))[0-9.]+', r"\g<1>0", text)


def run(args: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return {"args": args, "exit": code, "stdout": strip_timing(stdout.getvalue())}


def test_cli_transcript_is_byte_identical(monkeypatch):
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    monkeypatch.chdir(GOLDEN_DIR)
    expected = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [case["args"] for case in expected] == invocations()
    for case in expected:
        assert run(case["args"]) == case


if __name__ == "__main__":
    os.environ.pop(THREADS_ENV_VAR, None)
    os.chdir(GOLDEN_DIR)
    cases = [run(args) for args in invocations()]
    TRANSCRIPT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
