#!/usr/bin/env python3
"""One sha256 per report `result` for a fixed set of CLI commands.

Runs 19 `contactmono` commands (a derive, a curvature, four checks,
invariant solves on the three catalog models with and without the Reeb
constraint, two eps solves, a multi-seed solve, two sweeps and the two N=8
heis-grid solves) and prints, per command, the sha256 of its `result`
object serialized as the report serializes it, then the exit code and the
command.  Each sweep's CSV table is hashed too, as `csv_sha256`.  The grid
solves also write their final state through the checkpoint writer; its
sha256 is printed as `state_sha256`, so the grid states are compared bit
for bit.

Two source trees give byte-identical results iff their outputs match:

    python3 scripts/report_digest.py > new.txt
    (cd ../other-checkout && python3 scripts/report_digest.py) > old.txt
    diff old.txt new.txt

`--save DIR` also writes each command's argv, exit code and `result` to
DIR/NN.json; `scripts/report_diff.py OLD NEW` lists what moved between two
such directories, field by field.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from contactmono.cli import main as cli_main

LADDER_HEIS = "1/2,1/4,1/8,1/16,1/32,1/64"
LADDER_S3 = "1/2,1/4,1/8"
GRID = ["--backend", "heis-grid", "--N", "8"]

# omega = e1 + e2/2: a model with horizontal connection weights
OMEGA_E1_E2 = '{"c_0_12": "2", "c_1_12": "1", "c_2_12": "1/2"}'

COMMANDS = [
    ["derive", "--model", "round-s3", "--eps", "1/2"],
    ["curvature", "--model", "torsion", "--eps", "1/4"],
    ["check", "--model", "heisenberg"],
    ["check", "--model", "round-s3"],
    ["check", "--model", "torsion"],
    ["check", "--model", OMEGA_E1_E2],
    ["solve", "--model", "heisenberg"],
    ["solve", "--model", "heisenberg", "--reeb-constraint"],
    ["solve", "--model", "round-s3"],
    ["solve", "--model", "round-s3", "--reeb-constraint"],
    ["solve", "--model", "torsion"],
    ["solve", "--model", "torsion", "--reeb-constraint"],
    ["solve", "--model", "heisenberg", "--eps", "1/4"],
    ["solve", "--model", "heisenberg", "--eps", "1/2"],
    ["solve", "--model", "round-s3", "--seeds", "4", "--seed", "3", "--reeb-constraint"],
    ["sweep", "--model", "heisenberg", "--eps-list", LADDER_HEIS],
    ["sweep", "--model", "round-s3", "--eps-list", LADDER_S3],
    ["solve", "--model", "heisenberg", *GRID],
    ["solve", "--model", "heisenberg", *GRID, "--eps", "1/2"],
]

# grid runs read this config, so their final state is written to state-seed0.*
CHECKPOINT = "state"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv, save=None):
    """(result sha256, exit code, {label: sha256} of its files) of one command.

    The files are a sweep's CSV table and a grid solve's final state.
    With `save` a path, the argv, exit code and result are written there.
    """
    extra = []
    grid = "heis-grid" in argv
    if grid:
        with open("config.json", "w") as fh:
            json.dump({"checkpoint": CHECKPOINT}, fh)
        extra = ["--config", "config.json"]
    code = cli_main([*argv, *extra, "--output", "report.json"])
    with open("report.json") as fh:
        result = json.load(fh)["result"]
    text = json.dumps(result, sort_keys=True, indent=2)
    if save is not None:
        with open(save, "w") as fh:
            json.dump({"argv": argv, "exit": code, "result": result}, fh, indent=2)
    paths = {}
    if argv[0] == "sweep":
        paths["csv_sha256"] = "report.csv"
    if grid:
        paths["state_sha256"] = f"{CHECKPOINT}-seed0.bin"
    files = {}
    for label, path in paths.items():
        with open(path, "rb") as fh:
            files[label] = sha256(fh.read())
    return sha256(text.encode()), code, files


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="DIR", help="write each result to DIR/NN.json")
    args = parser.parse_args()
    save_dir = args.save and os.path.abspath(args.save)
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # checkpoint paths inside the result stay relative
        try:
            for k, argv in enumerate(COMMANDS):
                save = save_dir and os.path.join(save_dir, f"{k:02d}.json")
                result, code, files = digest(argv, save)
                label = " ".join(argv)
                print(f"{result}  exit={code}  {label}")
                for kind, file_sha in files.items():
                    print(f"{file_sha}  {kind}  {label}")
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
