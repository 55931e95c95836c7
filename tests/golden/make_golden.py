"""Write the golden CLI data: input files, the command list and the stdout
and exit code of each command.

    PYTHONPATH=src python tests/golden/make_golden.py

Run it only at a commit whose output is trusted: ``tests/test_golden.py``
then requires every later commit to print the same bytes. Inputs are
exact-rational fixtures, so one file serves float and exact mode.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
OUTPUTS = os.path.join(HERE, "outputs")


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def make_inputs():
    from gmoical import QC, gen_fixture, random_matrix

    F = Fraction
    structures = {
        "p1": ([(F(1), [2]), (F(2), [1])], 1),
        "p2": ([(F(-1), [1]), (F(1), [1]), (F(2), [1])], 2),
        "p3": ([(F(2), [2, 1])], 3),
        "p4": ([(F(-2), [1]), (F(0), [1]), (F(3), [1])], 4),
        "pc": ([(QC(0, 1), [1]), (QC(0, -1), [1]), (QC(1, 1), [1])], 5),
        "c": ([(F(1), [2]), (F(3), [1])], 6),
        "d": ([(F(1), [1]), (F(-1), [2])], 7),
    }
    os.makedirs(INPUTS, exist_ok=True)
    for name, (structure, seed) in structures.items():
        mat, _ = gen_fixture(structure, seed=seed, exact=True)
        _write(os.path.join(INPUTS, f"{name}.json"), mat.to_json())
    rng = random.Random(11)
    for name in ("y1", "y2", "z1", "z2"):
        _write(os.path.join(INPUTS, f"{name}.json"),
               random_matrix(rng, 3, exact=True).to_json())
    for name in ("e1", "e2", "e3"):
        _write(os.path.join(INPUTS, f"{name}.json"),
               random_matrix(rng, 3, exact=True, span=1).to_json())
    f = {"kind": "polynomial", "coeffs": ["1/2", -1, "1/3", 1, "1/4"]}
    _write(os.path.join(INPUTS, "f.json"), f)
    for k in (1, 2):
        _write(os.path.join(INPUTS, f"beta{k}.json"),
               {"kind": "dd-lift", "base": f, "order": k})


def commands():
    """name -> argv; file arguments are names under ``inputs/``."""
    problem = ["--beta", "beta2.json", "--params", "p1.json,p3.json,p2.json",
               "--args", "y1.json,y2.json"]
    base = {
        "decompose": ["decompose", "p1.json"],
        "decompose_repeated": ["decompose", "p3.json"],
        "funcmat": ["funcmat", "--function", "beta1.json",
                    "--matrices", "p1.json,pc.json"],
        "gmoi_patterns": ["gmoi"] + problem + ["--patterns"],
        "gmoi_complex": ["gmoi", "--beta", "beta2.json",
                         "--params", "pc.json,p1.json,pc.json",
                         "--args", "y1.json,y2.json", "--patterns"],
        "bounds": ["bounds"] + problem + ["--dump-terms"],
        "lipschitz": ["lipschitz"] + problem + ["--args2", "z1.json,z2.json"],
        "perturbation_x1": ["verify-perturbation", "--function", "f.json",
                            "--c", "c.json", "--d", "d.json",
                            "--x1", "p2.json", "--args", "y1.json",
                            "--dump-terms"],
        "perturbation_params": ["verify-perturbation", "--function",
                                "f.json", "--c", "c.json", "--d", "d.json",
                                "--params", "p1.json,p2.json", "--j", "2",
                                "--args", "y1.json,y2.json", "--dump-terms"],
        "derivative": ["derivative", "--function", "f.json", "--x", "p2.json",
                       "--y", "y1.json", "--order", "2", "--verify"],
        # X + tX keeps the Jordan structure of X, so the corrections run
        "derivative_jordan": ["derivative", "--function", "f.json",
                              "--x", "p1.json", "--y", "p1.json",
                              "--order", "2", "--verify"],
        "continuity": ["continuity", "--beta", "beta2.json",
                       "--params", "p2.json,p4.json,p2.json",
                       "--args", "y1.json,y2.json",
                       "--directions", "e1.json,e2.json,e3.json",
                       "--levels", "6"],
    }
    out = {}
    for name, argv in base.items():
        out[f"{name}_float"] = argv
        out[f"{name}_exact"] = argv + ["--exact"]
    return out


def resolve(argv):
    """argv with every input-file name replaced by its path."""
    def one(token):
        parts = token.split(",")
        if all(p.endswith(".json") for p in parts):
            return ",".join(os.path.join(INPUTS, p) for p in parts)
        return token
    return [one(t) for t in argv]


def main():
    from click.testing import CliRunner

    from gmoical.cli import main as cli

    make_inputs()
    cmds = commands()
    _write(os.path.join(HERE, "commands.json"), cmds)
    os.makedirs(OUTPUTS, exist_ok=True)
    runner = CliRunner()
    for name, argv in cmds.items():
        res = runner.invoke(cli, resolve(argv))
        with open(os.path.join(OUTPUTS, f"{name}.out"), "wb") as fh:
            fh.write(f"exit {res.exit_code}\n".encode())
            fh.write(res.stdout_bytes)
        print(name, res.exit_code, file=sys.stderr)


if __name__ == "__main__":
    main()
