"""Command-line entry point and report emission.

Subcommands: derive, check, curvature, solve, sweep.  Reports are JSON
documents (plus a CSV table for sweeps) that embed the effective config,
the seed, and the package version; repeated runs with the same config are
byte-identical.  Exact rationals cross the JSON boundary as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import List, Mapping, Optional

import numpy as np

from . import __version__
from .algebra import (
    InvariantForm,
    ModelStructure,
    catalog_model,
    CATALOG_PARAMS,
    is_heisenberg,
    model_from_json,
)
from .clifford import (
    clifford_axiom_check,
    compatibility_check,
    conn_coeffs,
    gamma_can,
    gamma_from_wedge_interior,
    rho_eps,
    unitarity_diagnostic,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    JacobiError,
    PreconditionError,
    TorsionError,
    WrongModel,
)
from .exact import ExactComplex, parse_rational, rational_str
from .fields import HeisGridBackend, InvariantBackend
from .pseudohermitian import (
    compare_scalar_curvature,
    derive_ph_invariants,
    frame_bracket_check,
)
from .solver import (
    HeisenbergFamily,
    SolveOpts,
    loglog_slope,
    random_monopole_state,
    solve,
    sweep,
    vanishing_certificate,
)

# errors in the input: main reports them in one line and exits with INPUT_ERROR
INPUT_ERRORS = (
    ConfigError,
    AdmissibilityError,
    JacobiError,
    TorsionError,
    WrongModel,
    PreconditionError,
)
INPUT_ERROR = 3

COMMANDS = ("derive", "check", "curvature", "solve", "sweep")


def _key(default, read=None, kind=None):
    """A config key whose value parse_config takes of exactly type `kind`
    (a bool is no int), and reads with `read`."""
    return field(default=default, metadata={"read": read, "kind": kind})


@dataclass
class RunConfig:
    """One run.  Each field is a config key of the same name and a flag.

    A key that is absent or null takes the field's default; any other value
    must have the field's JSON type.
    """

    command: str
    model: object = "heisenberg"  # catalog name or structure-constant mapping
    eps: Optional[Fraction] = _key(None, parse_rational)
    eps_list: Optional[List[Fraction]] = _key(None, lambda v: [parse_rational(e) for e in v], list)
    backend: str = _key("invariant", kind=str)
    N: int = _key(16, kind=int)
    seed: int = _key(0, kind=int)
    seeds: int = _key(1, kind=int)
    constraint: bool = _key(False, kind=bool)
    output: Optional[str] = _key(None, kind=str)

    def effective(self) -> dict:
        doc = asdict(self)
        doc["eps"] = rational_str(self.eps) if self.eps is not None else None
        doc["eps_list"] = [rational_str(e) for e in self.eps_list] if self.eps_list else None
        return doc


def parse_config(doc: Mapping) -> RunConfig:
    """Validate a config mapping; unknown fields are rejected.

    "threads" is accepted as 1 only, and sets nothing: BLAS threads follow
    the environment, and OPENBLAS_NUM_THREADS=1 gives grid reports that do
    not depend on the host (README).
    """
    keys = fields(RunConfig)
    extra = set(doc) - {key.name for key in keys} - {"threads"}
    if extra:
        raise ConfigError(f"unknown config fields: {sorted(extra)}")
    threads = doc.get("threads", 1)
    if type(threads) is not int or threads != 1:
        raise ConfigError("threads must be 1")
    if doc.get("command") not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {doc.get('command')!r}")
    values = {}
    for key in keys:
        value = doc.get(key.name)
        if value is None:
            continue
        read, kind = key.metadata.get("read"), key.metadata.get("kind")
        try:
            if kind is not None and type(value) is not kind:
                raise TypeError(f"not a {kind.__name__}")
            values[key.name] = read(value) if read else value
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read {key.name} from {value!r}") from exc
    cfg = RunConfig(**values)
    if cfg.backend not in ("invariant", "heis-grid"):
        raise ConfigError(f"backend must be invariant or heis-grid, got {cfg.backend!r}")
    if cfg.backend == "heis-grid" and (cfg.N < 4 or cfg.N % 2):
        # HeisGridBackend: at N = 2 every frame stencil vanishes
        raise ConfigError(f"N must be even and at least 4 for the grid backend, got {cfg.N}")
    if cfg.eps is not None and cfg.eps <= 0:
        raise ConfigError("eps must be positive")
    if cfg.eps_list is not None:
        if any(e <= 0 for e in cfg.eps_list):
            raise ConfigError("eps_list entries must be positive")
        if any(b >= a for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
    # solve and sweep run in floats; derive and curvature stay exact
    if cfg.command == "solve" and cfg.eps is not None and not _is_float_eps(cfg.eps):
        raise ConfigError("eps does not lower to a positive finite float")
    if cfg.command == "sweep" and cfg.eps_list is not None:
        for k, e in enumerate(cfg.eps_list):
            if not _is_float_eps(e):
                raise ConfigError(f"eps_list entry {k} does not lower to a positive finite float")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {cfg.seeds}")
    # a sweep writes its table beside the report, with the suffix .csv
    if cfg.command == "sweep" and cfg.output and os.path.splitext(cfg.output)[1] == ".csv":
        raise ConfigError(f"sweep output {cfg.output!r} would be overwritten by its CSV table")
    return cfg


def _is_float_eps(eps: Fraction) -> bool:
    """eps lowers to a positive finite float."""
    try:
        return 0.0 < float(eps) < math.inf
    except OverflowError:
        return False


def _resolve_model(spec) -> ModelStructure:
    """A catalog name, a JSON file, inline JSON or a mapping, as a model."""
    if isinstance(spec, str) and spec in CATALOG_PARAMS:
        return catalog_model(spec)
    try:
        if isinstance(spec, str):
            if spec.strip().startswith("{"):
                spec = json.loads(spec)
            elif os.path.exists(spec):
                with open(spec) as fh:
                    spec = json.load(fh)
        if isinstance(spec, Mapping):
            return model_from_json(spec)
    except INPUT_ERRORS:
        raise
    except (OSError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot read model: {exc}") from exc
    raise ConfigError(f"unknown model {spec!r}")


def _form_table(form: InvariantForm) -> dict:
    out = {}
    labels = {(0,): "e0", (1,): "e1", (2,): "e2"}
    for key, label in labels.items():
        c = form.coeff(*key)
        out[label] = rational_str(c) if c.is_rational() else repr(c)
    return out


def _exact_pair(z: ExactComplex):
    return [rational_str(z.re), rational_str(z.im)]


# --- command implementations ---------------------------------------------------


def _comparison(cmp) -> dict:
    """The closed-form against the computed scalar curvature."""
    return {
        "closed_form": rational_str(cmp.closed_form),
        "computed": rational_str(cmp.oracle),
        "gap": rational_str(cmp.gap),
    }


def _cmd_derive(cfg: RunConfig) -> dict:
    m = _resolve_model(cfg.model)
    eps = cfg.eps or Fraction(1)
    ph = derive_ph_invariants(m)
    cmp = compare_scalar_curvature(m, ph, eps)
    return {
        "model": m.name,
        "omega": _form_table(ph.omega),
        "A": _exact_pair(ph.torsion),
        "W": rational_str(ph.tw_curv),
        "eps": rational_str(eps),
        "R_scalar": rational_str(cmp.oracle),
        "curvature_comparison": _comparison(cmp),
    }


def _cmd_curvature(cfg: RunConfig) -> dict:
    m = _resolve_model(cfg.model)
    eps = cfg.eps or Fraction(1)
    cmp = compare_scalar_curvature(m, derive_ph_invariants(m), eps)
    rd = cmp.riemann
    forms = {}
    for (j, i) in ((0, 1), (0, 2), (1, 2)):
        forms[f"omega_{j}{i}"] = _form_table(rd.form(j, i))
    return {
        "model": m.name,
        "eps": rational_str(eps),
        "connection_forms": forms,
        "R_scalar": rational_str(rd.scalar),
        "curvature_comparison": _comparison(cmp),
    }


def _suite(asserted: bool, failures: List[str]) -> dict:
    """One check suite: it passes when it lists no failure."""
    return {"asserted": asserted, "pass": not failures, "failures": failures}


def _cmd_check(cfg: RunConfig) -> dict:
    m = _resolve_model(cfg.model)
    ph = derive_ph_invariants(m)
    torsion_free = ph.torsion.is_zero()
    eps_set = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
    zero = InvariantForm.zero(1)
    suites = {}

    suites["clifford_axioms_gamma"] = _suite(True, clifford_axiom_check(gamma_can()).failures)
    rho_fail = []
    for e in eps_set:
        rho_fail += [f"eps={e}: {x}" for x in clifford_axiom_check(rho_eps(e)).failures]
    suites["clifford_axioms_rho"] = _suite(True, rho_fail)

    match = gamma_from_wedge_interior().mats == gamma_can().mats
    suites["gamma_wedge_interior_match"] = _suite(True, [] if match else ["matrix mismatch"])

    rep = compatibility_check(m, ph, 1, zero, "pseudohermitian", "rotation")
    suites["compat_pseudohermitian"] = _suite(True, rep.failures)

    lc_fail = []
    for e in eps_set:
        r = compatibility_check(m, ph, e, zero, "levi-civita", "rotation")
        lc_fail += [f"eps={e}: {x}" for x in r.failures]
    suites["compat_levicivita_rotation"] = _suite(torsion_free, lc_fail)

    # diagnostic: the displayed connection is not compatible with the
    # literal metric connection
    hm = compatibility_check(m, ph, 1, zero, "levi-civita", "h-metric")
    suites["compat_levicivita_hmetric"] = _suite(False, hm.failures)

    cc = conn_coeffs(ph, Fraction(1, 2), zero, "levi-civita")
    ok_unitary, _ = unitarity_diagnostic(cc)
    suites["unitarity_diagnostic"] = _suite(
        torsion_free, [] if ok_unitary else ["base + base^dagger != 0"]
    )

    br = frame_bracket_check(m, ph)
    suites["frame_brackets"] = _suite(
        True,
        [
            name
            for name, ok in (("horizontal", br.horizontal_ok), ("reeb", br.reeb_ok))
            if not ok
        ],
    )

    all_ok = all(s["pass"] for s in suites.values() if s["asserted"])
    return {
        "model": m.name,
        "torsion_free": torsion_free,
        "suites": {k: suites[k] for k in sorted(suites)},
        "all_asserted_pass": all_ok,
    }


def _backend(cfg: RunConfig, m: ModelStructure):
    if cfg.backend == "invariant":
        return InvariantBackend(m)
    return HeisGridBackend(m, cfg.N)


def _solve_one(cfg: RunConfig, m, ph, backend, seed: int) -> dict:
    eps = float(cfg.eps) if cfg.eps is not None else None
    init = random_monopole_state(m, backend, seed=seed, eps=eps)
    opts = SolveOpts(constraint=cfg.constraint)
    state, info = solve(m, eps, init, opts, ph=ph)
    if not info.converged:
        # why the run exits 2, on stderr: the report keeps its bytes
        sys.stderr.write(f"contactmono: seed {seed} did not converge: {info.stop_reason}\n")
    out = {
        "seed": seed,
        "eps": rational_str(cfg.eps) if cfg.eps is not None else None,
        "iterations": info.iterations,
        "converged": info.converged,
        "residuals": info.report.as_dict(),
    }
    if backend.kind == "invariant":
        out["state"] = {
            "alpha": [state.phi.alpha.real, state.phi.alpha.imag],
            "beta1bar": [state.phi.beta1bar.real, state.phi.beta1bar.imag],
            "a0": float(np.real(state.a.a0)),
            "a1re": float(np.real(state.a.a1re)),
            "a2re": float(np.real(state.a.a2re)),
        }
        if is_heisenberg(m) and cfg.eps is None:
            out["family_membership"] = HeisenbergFamily(m).membership(state).as_dict()
    if cfg.eps is None and ph.tw_curv.is_real() and ph.tw_curv.real_sign() > 0:
        out["certificate"] = vanishing_certificate(state, info.report, ph).as_dict()
    return out


def _cmd_solve(cfg: RunConfig) -> dict:
    m = _resolve_model(cfg.model)
    ph = derive_ph_invariants(m)
    backend = _backend(cfg, m)
    runs = [_solve_one(cfg, m, ph, backend, cfg.seed + k) for k in range(cfg.seeds)]
    all_converged = all(r["converged"] for r in runs)
    return {"model": m.name, "runs": runs, "all_converged": all_converged}


def _cmd_sweep(cfg: RunConfig) -> dict:
    if not cfg.eps_list:
        raise ConfigError("sweep requires eps_list")
    m = _resolve_model(cfg.model)
    ph = derive_ph_invariants(m)
    records = sweep(
        m, [float(e) for e in cfg.eps_list], seed=cfg.seed, backend=_backend(cfg, m), ph=ph
    )
    for eps, r in zip(cfg.eps_list, records):
        if not r.converged:
            # why the run exits 2, on stderr: the report keeps its bytes
            sys.stderr.write(
                f"contactmono: seed {cfg.seed} eps {rational_str(eps)} did not converge:"
                f" {r.stop_reason}\n"
            )
    eps_vals = [r.eps for r in records]
    slopes = {
        key: loglog_slope(eps_vals, [getattr(r, key) for r in records], floor=1e-12)
        for key in ("norm_T_deriv_sq", "norm_Xi_deriv_sq", "sup_phi_sq")
    }
    return {
        "model": m.name,
        "records": [r.as_dict() for r in records],
        "slopes": slopes,
        "limit_candidate": {
            "residual": records[-1].residual_limit,
            "constraint": records[-1].constraint_limit,
        },
        "all_converged": all(r.converged for r in records),
    }


# (column, record key) of the sweep CSV table
SWEEP_CSV_COLUMNS = (
    ("eps", "eps"),
    ("sup_phi_sq", "sup_phi_sq"),
    ("norm_T_deriv_sq", "norm_T_deriv_sq"),
    ("norm_Xi_deriv_sq", "norm_Xi_deriv_sq"),
    ("cross_term", "norm_alpha_beta_cross"),
    ("residual_limit", "residual_limit"),
)


def sweep_csv(records: List[dict]) -> str:
    """The sweep table; an empty cell stands for a value that is None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([column for column, _ in SWEEP_CSV_COLUMNS])
    for r in records:
        writer.writerow(
            ["" if r[key] is None else repr(r[key]) for _, key in SWEEP_CSV_COLUMNS]
        )
    return buf.getvalue()


def _output_paths(cfg: RunConfig) -> List[str]:
    """The files a run writes: the report, and beside a sweep's its CSV table."""
    if not cfg.output:
        return []
    if cfg.command == "sweep":
        return [cfg.output, os.path.splitext(cfg.output)[0] + ".csv"]
    return [cfg.output]


def _check_writable(path: str):
    """Raise ConfigError unless path opens for writing; a file that the
    check creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from exc
    if not existed:
        os.remove(path)


def run(cfg: RunConfig):
    """Execute a config; returns (exit_code, report dict).

    The output paths are checked before the computation, so a path that
    cannot be written fails at once, not after a long grid solve.
    """
    impl = {
        "derive": _cmd_derive,
        "check": _cmd_check,
        "curvature": _cmd_curvature,
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
    }[cfg.command]
    paths = _output_paths(cfg)
    for path in paths:
        _check_writable(path)
    body = impl(cfg)
    report = {
        "version": __version__,
        "config": cfg.effective(),
        "result": body,
    }
    exit_code = 0
    if cfg.command == "check" and not body["all_asserted_pass"]:
        exit_code = 1
    if cfg.command in ("solve", "sweep") and not body.get("all_converged", True):
        exit_code = 2

    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if paths:
        texts = [text] + ([sweep_csv(body["records"])] if cfg.command == "sweep" else [])
        try:
            for path, content in zip(paths, texts):
                with open(path, "w") as fh:
                    fh.write(content)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)
    return exit_code, report


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The command line; each flag's dest is its config key."""
    parser = _Parser(
        prog="contactmono",
        description="workbench for monopole equations on homogeneous contact 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", help="catalog name, JSON file, or inline JSON")
        p.add_argument("--output", help="write the JSON report here")
        p.add_argument("--seed", type=int)
        if name in ("derive", "curvature", "solve"):
            p.add_argument("--eps", help="rational, e.g. 1/2")
        if name == "sweep":
            p.add_argument(
                "--eps-list",
                type=lambda text: [e.strip() for e in text.split(",")],
                help="comma separated rationals, decreasing",
            )
        if name in ("solve", "sweep"):
            p.add_argument("--backend", choices=["invariant", "heis-grid"])
            p.add_argument("--N", type=int)
        if name == "solve":
            p.add_argument("--seeds", type=int, help="number of seeded runs")
            p.add_argument(
                "--reeb-constraint",
                action="store_const",
                const=True,
                dest="constraint",
                help="impose vanishing Reeb derivatives as part of the residual",
            )
    return parser


def main(argv=None) -> int:
    """Run the command line; exit codes 0, 1 and 2 as in run, INPUT_ERROR on bad
    input, a grid too large for memory included."""
    args = build_parser().parse_args(argv)
    try:
        code, _ = run(parse_config(_flags_over_config(args)))
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"contactmono: error: {exc}\n")
        return INPUT_ERROR
    except MemoryError as exc:
        sys.stderr.write(f"contactmono: error: out of memory: {exc}\n")
        return INPUT_ERROR
    return code


def _flags_over_config(args) -> dict:
    """The --config document with the given flags written over it."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    path = flags.pop("config", None)
    doc = {}
    if path:
        try:
            with open(path) as fh:
                doc.update(json.load(fh))
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc.update(flags)
    return doc


if __name__ == "__main__":
    sys.exit(main())
