"""The four contactmono benchmark workloads.

Each workload has a set-up (import contactmono, resolve the models, derive
the pseudohermitian invariants, build the backends and inputs) and a pass:
a fixed unit of work whose wall time is one sample of `wall_s`.  `ops`
lists a pass's operations, which the runner times one by one; `check`
verifies their outputs (untimed) against closed forms and independent
recomputation, never against the program's own verdicts alone.

Inputs derive from the workload seed, except those a comment marks as
held fixed.  contactmono is imported inside `setup`, so that set-up time
includes the import.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional

# gen(p, q) parameters of the named catalog models, as README states them
CATALOG = {"heisenberg": (0, 0), "round-s3": (1, 1), "torsion": (1, -1)}

# converged thresholds the README fixes: invariant sector and grid
TOL_INVARIANT = 1e-10
TOL_GRID = 1e-6
TOL_IDENTITY = 1e-9  # the sweep's energy-balance identity (acceptance 7a)

# what reading a report with missing or mistyped fields raises
MALFORMED = (KeyError, IndexError, TypeError, ValueError)


@dataclass
class OpResult:
    """Outcome of one checked operation."""

    report: str  # report bytes; equal across traced and untraced passes
    failure: Optional[str] = None
    solves: List[dict] = field(default_factory=list)  # per-solve GN records


def _import_program():
    names = ("algebra", "pseudohermitian", "fields", "solver", "cli")
    mods = {n: importlib.import_module(f"contactmono.{n}") for n in names}
    return SimpleNamespace(**mods)


def _cli_run(cm, doc):
    """One `contactmono` command through cli.run; returns (code, text, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, report = cm.cli.run(cm.cli.parse_config(doc))
    return code, buf.getvalue(), report


# --- exact-catalog --------------------------------------------------------------


class ExactCatalog:
    """derive / curvature / check on 3 catalog and 9 seeded gen(p, q) models."""

    name = "exact-catalog"
    trace_passes = 3
    speed_kernel = "exact"  # interpreter-bound: see speed.py
    commands = (("derive", Fraction(1, 2)), ("curvature", Fraction(1, 4)), ("check", None))

    def models(self, seed: int, index: int):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        out = [(name, Fraction(p), Fraction(q), name) for name, (p, q) in CATALOG.items()]
        for _ in range(9):
            p = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
            q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
            name = f"gen({p},{q})"
            out.append((name, p, q, {"name": name, "p": str(p), "q": str(q)}))
        return out

    def setup(self, seed: int):
        cm = _import_program()
        models = {}
        for name, _, _, spec in self.models(seed, 0):
            if isinstance(spec, str):
                m = cm.algebra.catalog_model(spec)
            else:
                m = cm.algebra.model_from_json(spec)
            models[name] = (m, cm.pseudohermitian.derive_ph_invariants(m))
        return SimpleNamespace(cm=cm, seed=seed, models=models)

    def ops(self, ctx, index: int):
        out = []
        for name, p, q, spec in self.models(ctx.seed, index):
            for command, eps in self.commands:
                doc = {"command": command, "model": spec, "threads": 1}
                if eps is not None:
                    doc["eps"] = str(eps)
                out.append(((name, p, q, command, eps), functools.partial(_cli_run, ctx.cm, doc)))
        return out

    def check(self, ctx, index: int, raw) -> List[OpResult]:
        results = []
        for (name, p, q, command, eps), (value, error) in raw:
            if error is not None:
                results.append(OpResult("", f"{command} {name}: {error}"))
                continue
            code, text, report = value
            try:
                problem = self._check_one(command, p, q, eps, code, report["result"])
            except MALFORMED as exc:
                problem = f"malformed report: {exc!r}"
            results.append(OpResult(text, f"{command} {name}: {problem}" if problem else None))
        return results

    @staticmethod
    def _check_one(command, p, q, eps, code, res) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        w, a_sq = p + q, (q - p) ** 2  # W = p+q, A = i(q-p)
        if command in ("derive", "curvature"):
            e2 = eps * eps
            # closed form 4W - eps^2 - eps^-2|A|^2; the structural route gives
            # 4W - 2eps^2 - 2eps^-2|A|^2 on gen(p, q), so the gap is
            # eps^2 + eps^-2|A|^2 (README, acceptance criterion 3)
            want = {
                "closed_form": 4 * w - e2 - a_sq / e2,
                "computed": 4 * w - 2 * e2 - 2 * a_sq / e2,
                "gap": e2 + a_sq / e2,
            }
            got = res["curvature_comparison"]
            for key, value in want.items():
                if Fraction(got[key]) != value:
                    return f"curvature {key} {got[key]} != {value}"
            if Fraction(res["R_scalar"]) != want["computed"]:
                return f"R_scalar {res['R_scalar']} != {want['computed']}"
        if command == "derive":
            omega = {k: Fraction(v) for k, v in res["omega"].items()}
            if omega != {"e0": -(p + q), "e1": 0, "e2": 0}:
                return f"omega {res['omega']} != -(p+q) theta"
            if [Fraction(x) for x in res["A"]] != [0, q - p]:
                return f"A {res['A']} != i(q-p)"
            if Fraction(res["W"]) != w:
                return f"W {res['W']} != p+q"
        if command == "check":
            failing = sorted(
                k for k, s in res["suites"].items() if s["asserted"] and not s["pass"]
            )
            if failing or not res["all_asserted_pass"]:
                return f"asserted suites fail: {failing}"
            if res["torsion_free"] != (p == q):
                return f"torsion_free {res['torsion_free']} for p={p}, q={q}"
        return None


# --- invariant-batch --------------------------------------------------------------


class InvariantBatch:
    """60 seeded constrained round-s3 solves with certificates, and a Heisenberg sweep."""

    name = "invariant-batch"
    trace_passes = 1
    speed_kernel = "exact"  # ExactComplex lowering dominates: see speed.py
    seeds = 60
    eps_list = ["1/2", "1/4", "1/8", "1/16", "1/32", "1/64"]

    def base_seed(self, seed: int, index: int) -> int:
        return random.Random(f"{self.name}/{seed}/{index}").randrange(1_000_000)

    def setup(self, seed: int):
        cm = _import_program()
        s3 = cm.algebra.catalog_model("round-s3")
        heis = cm.algebra.catalog_model("heisenberg")
        return SimpleNamespace(
            cm=cm,
            seed=seed,
            s3=s3,
            ph_s3=cm.pseudohermitian.derive_ph_invariants(s3),
            backend_s3=cm.fields.InvariantBackend(s3),
            heis=heis,
            ph_heis=cm.pseudohermitian.derive_ph_invariants(heis),
            backend_heis=cm.fields.InvariantBackend(heis),
            max_iter=cm.solver.SolveOpts().max_iter,
        )

    def ops(self, ctx, index: int):
        base = self.base_seed(ctx.seed, index)
        doc = {
            "command": "solve",
            "model": "round-s3",
            "seed": base,
            "seeds": self.seeds,
            "constraint": True,
            "threads": 1,
        }
        out = [(("solve", base), functools.partial(_cli_run, ctx.cm, doc))]
        # the sweep keeps the default seed 0: on other seeds (25, 689476) a
        # sweep step stalls at max_iter and the report says not converged
        doc = {
            "command": "sweep",
            "model": "heisenberg",
            "eps_list": self.eps_list,
            "seed": 0,
            "threads": 1,
        }
        out.append((("sweep", 0), functools.partial(_cli_run, ctx.cm, doc)))
        return out

    def check(self, ctx, index: int, raw) -> List[OpResult]:
        results = []
        for (command, seed), (value, error) in raw:
            if error is None:
                try:
                    if command == "solve":
                        results += self._check_solves(ctx, *value)
                    else:
                        results.append(self._check_sweep(ctx, *value))
                    continue
                except MALFORMED as exc:
                    error = f"malformed report: {exc!r}"
            count = self.seeds if command == "solve" else 1
            results += [OpResult("", f"{command} from seed {seed}: {error}")] * count
        return results

    def _check_solves(self, ctx, code, text, report) -> List[OpResult]:
        sv, fl = ctx.cm.solver, ctx.cm.fields
        runs = report["result"]["runs"]
        out = []
        for k, run in enumerate(runs):
            problem = None
            st = run["state"]
            phi = fl.SpinorField(complex(*st["alpha"]), complex(*st["beta1bar"]), ctx.backend_s3)
            a = fl.GaugeField(st["a0"], st["a1re"], st["a2re"], ctx.backend_s3)
            rr = sv.residual_contact(sv.MonopoleState(a=a, phi=phi, model=ctx.s3), ctx.ph_s3)
            verdict = run.get("certificate", {}).get("verdict")
            if not run["converged"]:
                problem = "not converged"
            elif not (rr.total <= TOL_INVARIANT and rr.r_constraint <= TOL_INVARIANT):
                problem = f"recomputed residual {rr.total:.3e}, constraint {rr.r_constraint:.3e}"
            elif verdict != "consistent-with-vanishing":
                problem = f"certificate verdict {verdict}"
            record = {
                "seed": run["seed"],
                "iterations": run["iterations"],
                "maxiter_hit": run["iterations"] >= ctx.max_iter,
            }
            # the batch is one report; its bytes ride on the first run
            out.append(
                OpResult(
                    text if k == 0 else "",
                    f"solve seed {run['seed']}: {problem}" if problem else None,
                    [record],
                )
            )
        if code != 0 or len(runs) != self.seeds:
            out[0].failure = out[0].failure or f"solve: exit code {code}, {len(runs)} runs"
        return out

    def _check_sweep(self, ctx, code, text, report) -> OpResult:
        records = report["result"]["records"]
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif len(records) != len(self.eps_list) or not all(r["converged"] for r in records):
            problem = "sweep step not converged"
        else:
            worst = max(r["identity_gap"] for r in records)
            if not worst <= TOL_IDENTITY:
                problem = f"energy-balance identity gap {worst:.3e}"
        solves = [
            {
                "eps": r["eps"],
                "iterations": r["iterations"],
                "maxiter_hit": r["iterations"] >= ctx.max_iter,
            }
            for r in records
        ]
        return OpResult(text, f"sweep: {problem}" if problem else None, solves)


# --- heis-grid solves -------------------------------------------------------------


class GridSolve:
    """One heis-grid Gauss-Newton solve from the seed-0 random initial state."""

    trace_passes = 1
    speed_kernel = "float"  # lsqr dominates: see speed.py

    def __init__(self, name: str, n: int, eps: Optional[Fraction], rotate_phase: bool):
        self.name = name
        self.n = n
        self.eps = eps
        self.rotate_phase = rotate_phase

    def setup(self, seed: int):
        import numpy as np

        cm = _import_program()
        m = cm.algebra.catalog_model("heisenberg")
        ph = cm.pseudohermitian.derive_ph_invariants(m)
        backend = cm.fields.HeisGridBackend(m, self.n)
        eps = float(self.eps) if self.eps is not None else None
        init = cm.solver.random_monopole_state(m, backend, seed=0, eps=eps)
        if self.rotate_phase:
            # a constant phase is an exact symmetry of the system: every
            # workload seed poses the same problem in different bits
            angle = random.Random(f"{self.name}/{seed}").uniform(0.0, 2 * math.pi)
            rot = np.exp(1j * angle)
            phi = cm.fields.SpinorField(init.phi.alpha * rot, init.phi.beta1bar * rot, backend)
            init = cm.solver.MonopoleState(a=init.a, phi=phi, model=m, eps=eps)
        return SimpleNamespace(
            cm=cm,
            m=m,
            ph=ph,
            eps=eps,
            init=init,
            max_iter=cm.solver.SolveOpts().max_iter,
        )

    def ops(self, ctx, index: int):
        sv = ctx.cm.solver
        return [("solve", lambda: sv.solve(ctx.m, ctx.eps, ctx.init, sv.SolveOpts(seed=0), ph=ctx.ph))]

    def check(self, ctx, index: int, raw) -> List[OpResult]:
        [(_, (value, error))] = raw
        if error is not None:
            return [OpResult("", f"{self.name}: {error}")]
        state, info = value
        sv = ctx.cm.solver
        rr = sv.residual_contact(state, ctx.ph) if ctx.eps is None else sv.residual_sw(state, ctx.ph)
        problem = None
        if not info.converged:
            problem = "not converged"
        elif not rr.total <= TOL_GRID:
            problem = f"recomputed residual {rr.total:.3e}"
        digest = hashlib.sha256()
        for arr in (state.phi.alpha, state.phi.beta1bar, state.a.a0, state.a.a1re, state.a.a2re):
            digest.update(arr.tobytes())
        report = json.dumps(
            {
                "iterations": info.iterations,
                "converged": info.converged,
                "residuals": info.report.as_dict(),
                "state_sha256": digest.hexdigest(),
            },
            sort_keys=True,
        )
        record = {"iterations": info.iterations, "maxiter_hit": info.iterations >= ctx.max_iter}
        return [OpResult(report, f"{self.name}: {problem}" if problem else None, [record])]


WORKLOADS = {
    w.name: w
    for w in (
        ExactCatalog(),
        InvariantBatch(),
        GridSolve("grid-contact", 16, None, rotate_phase=True),
        # the eps=1/2 solve's step count jumps from 24 to 77-80 under a
        # constant phase rotation (roundoff alone), so its input stays fixed
        GridSolve("grid-eps", 8, Fraction(1, 2), rotate_phase=False),
    )
}
