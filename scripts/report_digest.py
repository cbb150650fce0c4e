#!/usr/bin/env python3
"""One sha256 per report `result` for a fixed set of CLI commands.

Runs 26 `contactmono` commands (a derive, a curvature, four checks,
invariant solves on the three catalog models with and without the Reeb
constraint, two eps solves, a multi-seed solve, two sweeps, the two N=8
heis-grid solves, a 3-seed N=8 heis-grid solve, and a derive, a curvature
and a check on each of two gen(p, q) models with fractional p and q) and
prints, per command, the sha256 of its `result` object serialized as the
report serializes it, then the exit code and the command.  Each sweep's
CSV table is hashed too, as `csv_sha256`.  Each grid solve is repeated
in-process the way the CLI runs it (`random_monopole_state` and `solve` per
seed, all seeds on one backend), and the final fields of each seed in
sorted-name order (a0, a1re, a2re, alpha, beta1bar), as little-endian
complex128, are hashed as `state_sha256`, so the grid states are compared
bit for bit.  The multi-seed solves check that a batch's solves, which
share their backend's equation system, give the bytes of solves alone.

After the commands come the bytes of the solver's linearisation and
residual at fixed random states: `jacobian_sha256` hashes the `indptr`,
`indices` and `data` of `_grid_jacobian` on 18 N=8 heisenberg states
(contact, eps 1/2 and 1/4; Reeb rows off and on; seeds 0-2), and the dense
`_invariant_jacobian` at one seed-1 state per invariant case (the four models
of the checks; contact, and eps 1/4 and 1/2 where the torsion vanishes; Reeb
rows off and on).  `residual_sha256` hashes `_stack_residual` at the same
states.

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

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from contactmono import solver
from contactmono.algebra import catalog_model, model_from_json
from contactmono.cli import main as cli_main
from contactmono.cli import parse_config
from contactmono.fields import HeisGridBackend, InvariantBackend
from contactmono.pseudohermitian import derive_ph_invariants

LADDER_HEIS = "1/2,1/4,1/8,1/16,1/32,1/64"
LADDER_S3 = "1/2,1/4,1/8"
GRID = ["--backend", "heis-grid", "--N", "8"]

# omega = e1 + e2/2: a model with horizontal connection weights
OMEGA_E1_E2 = '{"c_0_12": "2", "c_1_12": "1", "c_2_12": "1/2"}'

# gen(p, q) with fractional p and q: exact values with nontrivial denominators
GEN_FRACTIONAL = [
    '{"name": "g-5/4,1/3", "p": "-5/4", "q": "1/3"}',
    '{"name": "g7/3,-2/5", "p": "7/3", "q": "-2/5"}',
]

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
    ["solve", "--model", "heisenberg", *GRID, "--seeds", "3"],
    *[
        cmd
        for model in GEN_FRACTIONAL
        for cmd in (
            ["derive", "--model", model, "--eps", "2/3"],
            ["curvature", "--model", model, "--eps", "3/5"],
            ["check", "--model", model],
        )
    ],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def grid_state_sha256(config) -> str:
    """sha256 of the final states of the grid solves of a report's config.

    The solves are run in-process the way the CLI runs them, from a catalog
    model, one per seed on one backend.
    """
    cfg = parse_config(config)
    m = catalog_model(cfg.model)
    ph = derive_ph_invariants(m)
    eps = float(cfg.eps) if cfg.eps is not None else None
    backend = HeisGridBackend(m, cfg.N)
    data = []
    for seed in range(cfg.seed, cfg.seed + cfg.seeds):
        init = solver.random_monopole_state(m, backend, seed=seed, eps=eps)
        opts = solver.SolveOpts(seed=seed, constraint=cfg.constraint)
        state, _ = solver.solve(m, eps, init, opts, ph=ph)
        named = {
            "a0": state.a.a0,
            "a1re": state.a.a1re,
            "a2re": state.a.a2re,
            "alpha": state.phi.alpha,
            "beta1bar": state.phi.beta1bar,
        }
        data += [np.asarray(v, dtype="<c16").tobytes() for v in named.values()]
    return sha256(b"".join(data))


def digest(argv, save=None):
    """(result sha256, exit code, {label: sha256} of its outputs) of one command.

    The outputs are a sweep's CSV table and a grid solve's final state.
    With `save` a path, the argv, exit code and result are written there.
    """
    code = cli_main([*argv, "--output", "report.json"])
    with open("report.json") as fh:
        report = json.load(fh)
    result = report["result"]
    text = json.dumps(result, sort_keys=True, indent=2)
    if save is not None:
        with open(save, "w") as fh:
            json.dump({"argv": argv, "exit": code, "result": result}, fh, indent=2)
    files = {}
    if argv[0] == "sweep":
        with open("report.csv", "rb") as fh:
            files["csv_sha256"] = sha256(fh.read())
    if "heis-grid" in argv:
        files["state_sha256"] = grid_state_sha256(report["config"])
    return sha256(text.encode()), code, files


def state_cases():
    """(label, state, invariants, constraint) of the hashed linearisations."""
    heis = catalog_model("heisenberg")
    grid = HeisGridBackend(heis, 8)
    spaces = [("heis-grid N=8", heis, grid, (None, 0.5, 0.25), range(3))]
    for name in ("heisenberg", "round-s3", "torsion", OMEGA_E1_E2):
        m = model_from_json(json.loads(name)) if name[0] == "{" else catalog_model(name)
        flat = derive_ph_invariants(m).torsion.is_zero()  # else contact only
        eps_list = (None, 0.25, 0.5) if flat else (None,)
        spaces.append((f"invariant {name}", m, InvariantBackend(m), eps_list, [1]))
    for space, m, backend, eps_list, seeds in spaces:
        ph = derive_ph_invariants(m)
        for eps in eps_list:
            for constraint in (False, True):
                for seed in seeds:
                    s = solver.random_monopole_state(m, backend, seed=seed, eps=eps)
                    label = f"{space} eps={eps} constraint={constraint} seed={seed}"
                    yield label, s, ph, constraint


def linearisation_digests():
    """(label, kind, sha256) of each hashed Jacobian and residual."""
    for label, s, ph, constraint in state_cases():
        x, lin = solver._pack(s), solver._system(s, ph, constraint)
        if s.backend.kind == "heis-grid":
            jac = solver._grid_jacobian(x, s.backend, lin)
            data = b"".join(v.tobytes() for v in (jac.indptr, jac.indices, jac.data))
        else:
            data = solver._invariant_jacobian(x, s.backend, lin).tobytes()
        yield label, "jacobian_sha256", sha256(data)
        residual = solver._stack_residual(x, s.backend, lin)
        yield label, "residual_sha256", sha256(residual.tobytes())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="DIR", help="write each result to DIR/NN.json")
    args = parser.parse_args()
    save_dir = args.save and os.path.abspath(args.save)
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the reports are written here
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
    for label, kind, digest_sha in linearisation_digests():
        print(f"{digest_sha}  {kind}  {label}")


if __name__ == "__main__":
    main()
