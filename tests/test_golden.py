"""Golden CLI output: the stdout and exit code of each command in
``golden/commands.json`` must match the bytes stored in ``golden/outputs``.

The data was written by ``golden/make_golden.py``. A change that is meant
to alter printed output must regenerate it and say why; any other change
must leave every byte alone.
"""

import json
import os

import pytest
from click.testing import CliRunner

from gmoical.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "commands.json")) as _fh:
    COMMANDS = json.load(_fh)


def _resolve(argv):
    def one(token):
        parts = token.split(",")
        if all(p.endswith(".json") for p in parts):
            return ",".join(os.path.join(GOLDEN, "inputs", p) for p in parts)
        return token
    return [one(t) for t in argv]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    res = CliRunner().invoke(main, _resolve(COMMANDS[name]))
    got = f"exit {res.exit_code}\n".encode() + res.stdout_bytes
    with open(os.path.join(GOLDEN, "outputs", f"{name}.out"), "rb") as fh:
        want = fh.read()
    assert got == want
