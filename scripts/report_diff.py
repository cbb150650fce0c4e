#!/usr/bin/env python3
"""Field-by-field comparison of two directories of saved report results.

Each directory holds JSON files with a `result` object: written by
`scripts/report_digest.py --save DIR` (with `argv` and `exit`), or report
files written by `contactmono ... --output FILE`.  Files pair by name.  Per
pair the script prints

- a changed exit code, and every changed field that is not a float
  (iterations, converged flags, verdicts, `member`, strings, nulls, missing
  keys), with its full path;
- per field path, list indices folded to [], how many floats moved and their
  largest absolute and relative move.

It exits 1 when an exit code or a non-float field changed, else 0:

    python3 scripts/report_digest.py --save old     # in the old tree
    python3 scripts/report_digest.py --save new     # in the new tree
    python3 scripts/report_diff.py old new
"""

import json
import math
import os
import re
import sys

MISSING = "<missing>"


def leaves(node, path="result"):
    """(path, value) of every scalar in a JSON tree."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def compare(old, new):
    """(changed non-float fields, {folded path: [moved, max abs, max rel]})."""
    a, b = dict(leaves(old)), dict(leaves(new))
    changed, moved = [], {}
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path, MISSING), b.get(path, MISSING)
        floats = isinstance(x, float) and isinstance(y, float)
        if floats and math.isfinite(x) and math.isfinite(y):
            if x != y:
                move = abs(x - y)
                folded = re.sub(r"\[\d+\]", "[]", path)
                entry = moved.setdefault(folded, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] = max(entry[1], move)
                entry[2] = max(entry[2], move / max(abs(x), abs(y)))
        elif type(x) is not type(y) or x != y:
            if not (floats and math.isnan(x) and math.isnan(y)):
                changed.append((path, x, y))
    return changed, moved


def load(path):
    """The saved document at path, or {} when that side has no such file."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    old_dir, new_dir = argv
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    failed = False
    for name in names:
        old, new = (load(os.path.join(directory, name)) for directory in (old_dir, new_dir))
        label = " ".join(new.get("argv") or old.get("argv") or [name])
        changed, moved = compare(old.get("result"), new.get("result"))
        if old.get("exit") != new.get("exit"):
            changed.insert(0, ("exit", old.get("exit"), new.get("exit")))
        failed = failed or bool(changed)
        print(f"== {label}" + ("" if changed or moved else ": identical"))
        for path, x, y in changed:
            print(f"  changed {path}: {x!r} -> {y!r}")
        for path, (count, move, rel) in sorted(moved.items()):
            print(f"  moved {path}: {count} float(s), max abs {move:.3g}, max rel {rel:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
