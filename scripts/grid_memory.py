#!/usr/bin/env python3
"""Memory of one heis-grid solve on the Heisenberg model, phase by phase.

    python3 scripts/grid_memory.py --N 16 [--eps 1/2] [--seed 0]

Sets up the backend and the state of `random_monopole_state(seed)`, then
runs the phases of a solve one at a time, as the first Gauss-Newton step
meets them:

- compile: the system's compiled Jacobian (`_Linearisation._compile`);
- preconditioner: P's factors, built from J (none on an eps system);
- jacobian: the first J and J^T at the state;
- laplacian: the Coulomb Laplacian's factors, built at the first projection;
- solve: the whole solve with default `SolveOpts`, which reuses all of the
  above.

Each line gives, in MiB, the memory that `tracemalloc` traces after the
phase and its peak during the phase, the change of the resident set over
the phase (`/proc/self/statm`), the resident set after it and the process's
peak resident set (`ru_maxrss`).  numpy and scipy's sparse modules are
loaded before the first phase.  The first line gives J's nonzeros and the
bytes per nonzero of the compiled arrays, P's factors excluded.  Tracing
slows the allocations it records; the numbers of two trees are comparable
when both run the same command on one machine.
"""

import argparse
import os
import resource
import sys
import tracemalloc
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

# loaded before the first phase, so that no phase counts the libraries
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg  # noqa: E402,F401

from contactmono import solver  # noqa: E402
from contactmono.algebra import catalog_model  # noqa: E402
from contactmono.fields import HeisGridBackend  # noqa: E402
from contactmono.pseudohermitian import derive_ph_invariants  # noqa: E402

MIB = 2.0**20


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_resident_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def array_bytes(obj, seen) -> int:
    """Bytes of the arrays in obj (an array, a sparse matrix, a sequence or a
    namespace of them), each buffer counted once."""
    if sp.issparse(obj):
        return sum(array_bytes(a, seen) for a in (obj.data, obj.indices, obj.indptr))
    if isinstance(obj, np.ndarray):
        owner = obj if obj.base is None else obj.base
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--N", type=int, default=16, help="grid size (even, at least 4)")
    ap.add_argument("--eps", default=None, help="eps of the eps family, e.g. 1/2; contact if absent")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    eps = float(Fraction(args.eps)) if args.eps is not None else None
    model = catalog_model("heisenberg")
    ph = derive_ph_invariants(model)
    tracemalloc.start()
    backend = HeisGridBackend(model, args.N)
    init = solver.random_monopole_state(model, backend, seed=args.seed, eps=eps)
    lin = solver._system(init, ph, False)
    x = solver._pack(init)
    rows = []

    def phase(name, run):
        tracemalloc.reset_peak()
        before = resident_bytes()
        out = run()
        traced, peak = tracemalloc.get_traced_memory()
        after = resident_bytes()
        # ru_maxrss may lag the resident set just read
        rows.append((name, traced, peak, after - before, after, max(after, peak_resident_bytes())))
        return out

    comp = phase("compile", lambda: lin._compiled_on(backend))
    phase("preconditioner", lambda: lin.preconditioner(backend))
    phase("jacobian", lambda: lin.transpose(solver._grid_jacobian(x, backend, lin)))
    phase("laplacian", lambda: solver._coulomb_project_grid(x, backend))
    _, info = phase("solve", lambda: solver.solve(model, eps, init, solver.SolveOpts(), ph=ph))
    tracemalloc.stop()

    nnz = comp.jac.nnz
    seen = set()
    compiled = sum(array_bytes(v, seen) for k, v in vars(comp).items() if k != "precond")
    system = "contact" if eps is None else f"eps {args.eps}"
    print(
        f"# heis-grid N={args.N} {system} seed {args.seed}: J has {nnz} nonzeros, "
        f"compiled arrays {compiled / nnz:.2f} bytes per nonzero; solve "
        f"{info.stop_reason} in {info.steps} steps"
    )
    print(f"{'phase':<15}{'traced':>10}{'traced_peak':>13}{'rss_delta':>11}{'rss':>9}{'peak_rss':>10}")
    for name, *values in rows:
        print(f"{name:<15}" + "".join(f"{v / MIB:>{w}.1f}" for v, w in zip(values, (10, 13, 11, 9, 10))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
