"""Layer tracer for the contactmono benchmark.

The tracer wraps the public functions of each contactmono layer from the
outside: it replaces every binding a caller looks up (the defining module's
attribute, each `from .x import f` copy in other contactmono modules, and
class attributes for methods) with a timing wrapper, and puts the original
objects back on `uninstall`.  Nothing in the program is edited.

A layer's time is its self time: the duration of its spans minus the time
covered by nested wrapped calls.  Spans of the coarse layers are kept in
memory and written out by the caller; the fine-grained leaf layers (exact
arithmetic, algebra accessors, float lowering, field operators) are called
hundreds of thousands of times per pass, so they are aggregated into counts
and self time only.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) — "Cls.name" names a method on a class.
TARGETS = [
    *[
        ("exact", "contactmono.exact", f"ExactComplex.{name}")
        for name in (
            "__add__",
            "__neg__",
            "__sub__",
            "__rsub__",
            "__mul__",
            "inverse",
            "__truediv__",
            "__rtruediv__",
            "__pow__",
            "conjugate",
            "abs_sq",
            "__eq__",
            "to_complex",
        )
    ],
    ("algebra", "contactmono.algebra", "exterior_d"),
    ("algebra", "contactmono.algebra", "wedge"),
    ("algebra", "contactmono.algebra", "interior"),
    ("algebra", "contactmono.algebra", "hodge_star_eps"),
    ("algebra", "contactmono.algebra", "InvariantForm.coeff"),
    ("algebra", "contactmono.algebra", "ModelStructure.c_float"),
    ("pseudohermitian.derive", "contactmono.pseudohermitian", "derive_ph_invariants"),
    ("pseudohermitian.derive", "contactmono.pseudohermitian", "riemannian_connection"),
    ("pseudohermitian.derive", "contactmono.pseudohermitian", "scalar_curvature"),
    ("pseudohermitian.derive", "contactmono.pseudohermitian", "compare_scalar_curvature"),
    ("pseudohermitian.derive", "contactmono.pseudohermitian", "frame_bracket_check"),
    ("pseudohermitian.lower", "contactmono.pseudohermitian", "PhInvariants.omega_float"),
    ("pseudohermitian.lower", "contactmono.pseudohermitian", "PhInvariants.webster_float"),
    ("clifford", "contactmono.clifford", "clifford_axiom_check"),
    ("clifford", "contactmono.clifford", "compatibility_check"),
    ("clifford", "contactmono.clifford", "conn_coeffs"),
    ("clifford", "contactmono.clifford", "unitarity_diagnostic"),
    ("clifford", "contactmono.clifford", "gamma_from_wedge_interior"),
    ("fields", "contactmono.fields", "cov_deriv"),
    ("fields", "contactmono.fields", "dirac_xi"),
    ("fields", "contactmono.fields", "dirac_eps"),
    ("fields", "contactmono.fields", "gauge_curvature_components"),
    ("fields", "contactmono.fields", "b_curvature_components"),
    ("solver.residual", "contactmono.solver", "_stack_residual"),
    ("solver.jacobian", "contactmono.solver", "_grid_jacobian"),
    ("solver.jacobian", "contactmono.solver", "_invariant_jacobian"),
    ("solver.linsolve", "scipy.sparse.linalg", "lsqr"),
    ("solver.linsolve", "numpy.linalg", "lstsq"),
    ("solver.gauge", "contactmono.solver", "_coulomb_project_grid"),
    ("solver.gauge", "contactmono.solver", "_phase_fix_invariant"),
    ("solver.gauge", "scipy.sparse.linalg", "cg"),
    ("solver.gn", "contactmono.solver", "solve"),
    ("cli", "contactmono.cli", "run"),
]

LEAF_LAYERS = {"exact", "algebra", "pseudohermitian.lower", "fields"}

# lsqr's istop when it stops at iter_lim
LSQR_ISTOP_ITER_LIM = 7


def _owners(module, obj):
    """Every (namespace, name) under which callers find `obj`.

    The defining module plus each loaded contactmono module that bound the
    same object by `from ... import`.
    """
    spaces = [module] + [
        m
        for name, m in list(sys.modules.items())
        if m is not None
        and m is not module
        and (name == "contactmono" or name.startswith("contactmono."))
    ]
    found = []
    for space in spaces:
        for name, value in list(vars(space).items()):
            if value is obj:
                found.append((space, name))
    return found


class Tracer:
    """Spans, self time and counts of one traced pass."""

    def __init__(self, pass_index: int = 0):
        self.pass_index = pass_index
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.calls = Counter()  # "layer:function" -> calls
        self.counts = Counter()  # named counters recorded by hooks
        self.lin_rel_resid = []  # achieved |Ax - b| / |b| per linear solve
        self.solves = []  # per-solve records
        self.spans = []  # (id, parent id, layer, function, start, end)
        self._stack = []  # open frames: [child seconds, span id, child counts by layer]
        self._next_id = 0
        self._bindings = []  # (namespace, name, original)
        self.restored = None  # set on exit: every binding is the original again

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, layer, fn, after=None):
        key = f"{layer}:{fn.__name__}"
        keep_span = layer not in LEAF_LAYERS
        count_children = layer == "solver.gn"  # the line-search hook reads them
        stack = self._stack
        self_s, calls, spans = self.self_s, self.calls, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id, Counter() if count_children else None]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                calls[key] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                    if parent[2] is not None:
                        parent[2][layer] += 1
                if keep_span:
                    spans.append(
                        (span_id, parent[1] if parent else None, layer, fn.__name__, t0, t1)
                    )
            if after is not None:
                h0 = clock()
                after(args, kwargs, out, frame)
                if stack:  # hook time is tracer overhead, not the caller's
                    stack[-1][0] += clock() - h0
            return out

        return wrapper

    def _hooks(self):
        import numpy as np

        counts = self.counts

        def lin_resid(args, out):
            a, b, x = args[0], np.asarray(args[1]), out[0]
            nb = float(np.linalg.norm(b))
            if nb > 0:
                self.lin_rel_resid.append(float(np.linalg.norm(a @ x - b)) / nb)

        def after_lsqr(args, kwargs, out, frame):
            counts["solver.linsolve.iters"] += int(out[2])
            counts["solver.linsolve.lsqr_calls"] += 1
            counts["solver.linsolve.capped"] += int(out[1] == LSQR_ISTOP_ITER_LIM)
            lin_resid(args, out)

        def after_lstsq(args, kwargs, out, frame):
            lin_resid(args, out)

        def after_cg(args, kwargs, out, frame):
            counts["solver.gauge.cg_failed"] += int(out[1] != 0)

        def after_solve(args, kwargs, out, frame):
            from contactmono.solver import SolveOpts

            opts = kwargs.get("opts", args[3] if len(args) > 3 else SolveOpts())
            info = out[1]
            hit = info.iterations >= opts.max_iter
            counts["solver.gn.iters"] += info.iterations
            counts["solver.gn.maxiter_hits"] += int(hit)
            rec = {"iterations": info.iterations, "maxiter_hit": hit, "converged": info.converged}
            if opts.gauge_fix:
                # solve() evaluates the residual once at the start, once per
                # trial step and once more after each accepted (re-gauged)
                # step; it gauges once at the start and once per accepted step.
                children = frame[2]
                accepted = max(children["solver.gauge"] - 1, 0)
                trials = children["solver.residual"] - 1 - accepted
                counts["solver.linesearch.trials"] += trials
                counts["solver.linesearch.accepted"] += accepted
                rec.update(trials=trials, accepted=accepted)
            self.solves.append(rec)

        return {
            "lsqr": after_lsqr,
            "lstsq": after_lstsq,
            "cg": after_cg,
            "solve": after_solve,
        }

    def _counting_cg(self, cg):
        counts = self.counts

        @functools.wraps(cg)
        def cg_counted(*args, **kwargs):
            user_cb = kwargs.get("callback")

            def cb(xk):
                counts["solver.gauge.cg_iters"] += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = cb
            return cg(*args, **kwargs)

        return cg_counted

    def install(self):
        """Wrap every target on every binding its callers look up."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        try:
            for layer, modname, attr in TARGETS:
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, name = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = vars(cls)[name]
                    owners = [(cls, n) for n, v in list(vars(cls).items()) if v is orig]
                else:
                    name = attr
                    orig = vars(module)[name]
                    owners = _owners(module, orig)
                fn = self._counting_cg(orig) if name == "cg" else orig
                wrapper = self._wrap(layer, fn, hooks.get(name))
                for space, bound_name in owners:
                    self._bindings.append((space, bound_name, orig))
                    setattr(space, bound_name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for space, name, orig in reversed(self._bindings):
            setattr(space, name, orig)
        bindings, self._bindings = self._bindings, []
        return bindings

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restored = all(vars(space)[name] is orig for space, name, orig in self.uninstall())
        return False

    # -- results ------------------------------------------------------------
    def layer_counts(self) -> dict:
        """The deterministic per-layer counts of this pass."""
        c = self.calls
        return {
            "exact.mul_calls": c["exact:__mul__"],
            "algebra.exterior_d_calls": c["algebra:exterior_d"],
            "pseudohermitian.lower_calls": c["pseudohermitian.lower:omega_float"]
            + c["pseudohermitian.lower:webster_float"],
            "clifford.calls": sum(v for k, v in c.items() if k.startswith("clifford:")),
            "fields.cov_deriv_calls": c["fields:cov_deriv"],
            "solver.residual.calls": c["solver.residual:_stack_residual"],
            "solver.jacobian.calls": c["solver.jacobian:_grid_jacobian"]
            + c["solver.jacobian:_invariant_jacobian"],
            "solver.linsolve.calls": c["solver.linsolve:lsqr"] + c["solver.linsolve:lstsq"],
            "solver.linsolve.iters": self.counts["solver.linsolve.iters"],
            "solver.gauge.calls": c["solver.gauge:_coulomb_project_grid"]
            + c["solver.gauge:_phase_fix_invariant"],
            "solver.gauge.cg_iters": self.counts["solver.gauge.cg_iters"],
            "solver.gauge.cg_failed": self.counts["solver.gauge.cg_failed"],
            "solver.linesearch.trials": self.counts["solver.linesearch.trials"],
            "solver.gn.iters": self.counts["solver.gn.iters"],
            "solver.gn.maxiter_hits": self.counts["solver.gn.maxiter_hits"],
        }


# counts that must repeat exactly when the same pass runs twice
DETERMINISTIC = (
    "exact.mul_calls",
    "solver.gn.iters",
    "solver.linsolve.iters",
    "solver.residual.calls",
)

SELF_TIME_METRICS = {
    "exact.s": "exact",
    "algebra.s": "algebra",
    "pseudohermitian.derive_s": "pseudohermitian.derive",
    "pseudohermitian.lower_s": "pseudohermitian.lower",
    "clifford.s": "clifford",
    "fields.s": "fields",
    "solver.residual.s": "solver.residual",
    "solver.jacobian.s": "solver.jacobian",
    "solver.linsolve.s": "solver.linsolve",
    "solver.gauge.s": "solver.gauge",
    "solver.gn.s": "solver.gn",
    "cli.s": "cli",
}


def per_layer_metrics(tracers, overhead_frac):
    """Per-pass means over the traced passes: {name: (value, unit)}, notes.

    The notes say why a ratio has no data on this workload and reads 0.
    """
    n = len(tracers)
    out, notes = {}, {}
    totals = Counter()
    for t in tracers:
        totals.update(t.layer_counts())
    for name, value in totals.items():
        out[name] = (value / n, "count")
    for name, layer in SELF_TIME_METRICS.items():
        out[name] = (sum(t.self_s[layer] for t in tracers) / n, "s")

    def ratio(name, num, den, why):
        out[name] = (num / den if den else 0.0, "ratio")
        if not den:
            notes[name] = why

    count = lambda key: sum(t.counts[key] for t in tracers)  # noqa: E731
    ratio(
        "solver.linsolve.capped_frac",
        count("solver.linsolve.capped"),
        count("solver.linsolve.lsqr_calls"),
        "no lsqr calls on this workload",
    )
    ratio(
        "solver.linesearch.accept_ratio",
        count("solver.linesearch.accepted"),
        count("solver.linesearch.trials"),
        "no line-search trials on this workload",
    )
    rel = [r for t in tracers for r in t.lin_rel_resid]
    out["solver.linsolve.rel_resid_p50"] = (statistics.median(rel) if rel else 0.0, "ratio")
    if not rel:
        notes["solver.linsolve.rel_resid_p50"] = "no linear solves on this workload"
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out, notes
