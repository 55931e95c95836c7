"""Golden CLI output: the stdout and exit code of each command in
``golden/commands.json`` must match the bytes stored in ``golden/outputs``.

The data was written by ``golden/make_golden.py``. A change that is meant
to alter printed output must regenerate it and say why; any other change
must leave every byte alone.

Each float command also has an exact twin, the same argv with ``--exact``,
and its output must say the same thing within rounding: the twin test reads
no float bits, so it holds across a change that moves the last digits.
"""

import functools
import json
import os
from fractions import Fraction

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


@functools.cache
def _run(name):
    """The golden bytes of command ``name``: its exit line, then stdout."""
    res = CliRunner().invoke(main, _resolve(COMMANDS[name]))
    return f"exit {res.exit_code}\n".encode() + res.stdout_bytes


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    with open(os.path.join(GOLDEN, "outputs", f"{name}.out"), "rb") as fh:
        want = fh.read()
    assert _run(name) == want


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout_is_strict_json(name):
    """No golden output holds NaN or Infinity, which JSON does not have."""
    with open(os.path.join(GOLDEN, "outputs", f"{name}.out")) as fh:
        body = fh.read().partition("\n")[2]
    json.loads(body, parse_constant=_reject)


# At 3935b99 the float outputs agreed with their exact twins within
# 3.2e-11 of scale (the continuity residuals) and 1.2e-14 elsewhere.
TWIN_REL_TOL = 1e-9
TWINS = sorted(name[:-len("_float")] for name in COMMANDS
               if name.endswith("_float"))


def _parse(out):
    """(exit line, JSON payload or None) of a command's golden bytes."""
    exit_line, _, body = out.decode().partition("\n")
    return exit_line, json.loads(body) if body.strip() else None


def _chain_groups(payload):
    """The block positions of each eigenvalue of a ``decompose`` payload."""
    groups = {}
    for i, b in enumerate(payload.get("blocks", []) if isinstance(
            payload, dict) else []):
        groups.setdefault(json.dumps(b["eigenvalue"]), []).append(i)
    return list(groups.values())


def _number(leaf):
    """A numeric leaf as a float: exact parts print as ints or "p/q"
    strings. None for other leaves (flags, mode names, null)."""
    if isinstance(leaf, bool) or leaf is None:
        return None
    if isinstance(leaf, str):
        try:
            return float(Fraction(leaf))
        except ValueError:
            return None
    return leaf


def _entry_sum(mats):
    """The sum of JSON matrices, as float [re, im] entries."""
    return [[[sum(_number(m["entries"][i][j][k]) for m in mats)
              for k in range(2)] for j in range(len(row))]
            for i, row in enumerate(mats[0]["entries"])]


def _canonical(payload, groups):
    """The payload without its ``exact`` flag, with each block's projector
    and nilpotent part replaced by their sums over its eigenvalue's chains:
    the chains of a repeated eigenvalue are not unique, their sums are."""
    if not isinstance(payload, dict):
        return payload
    payload = {k: v for k, v in payload.items() if k != "exact"}
    if "blocks" in payload:
        blocks = [dict(b) for b in payload["blocks"]]
        for group in groups:
            for part in ("projector", "nilpotent"):
                total = _entry_sum([blocks[i][part] for i in group])
                for i in group:
                    blocks[i][part] = total
        payload["blocks"] = blocks
    return payload


def _leaves(x, path=()):
    """(path, leaf) pairs of a JSON value, dict keys in sorted order."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, path + (i,))
    else:
        yield path, x


@pytest.mark.parametrize("name", TWINS)
def test_float_output_matches_exact_twin(name):
    """Same exit code and keys as the exact twin, and every number within
    TWIN_REL_TOL of the exact output's largest value; a field that is 0 in
    exact mode (a residual) is held to the same absolute bound."""
    f_exit, f_out = _parse(_run(f"{name}_float"))
    e_exit, e_out = _parse(_run(f"{name}_exact"))
    assert f_exit == e_exit
    groups = _chain_groups(e_out)
    got = list(_leaves(_canonical(f_out, groups)))
    want = list(_leaves(_canonical(e_out, groups)))
    assert [p for p, _ in got] == [p for p, _ in want]
    scale = max((abs(_number(v)) for _, v in want
                 if _number(v) is not None), default=0.0)
    for (path, f), (_, e) in zip(got, want):
        if _number(e) is None or _number(f) is None:
            assert f == e, path
        else:
            assert abs(_number(f) - _number(e)) <= TWIN_REL_TOL * scale, path
