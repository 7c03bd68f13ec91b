"""How far two trees' outputs are apart, line by line of `output_hashes.py`.

    PYTHONPATH=src python tests/output_hashes.py --dump A    # in one tree
    PYTHONPATH=src python tests/output_hashes.py --dump B    # in the other
    python tests/output_diff.py A B

For each hash line it prints one row:

    <line> <equal|differs> max_abs <a> max_rel <r> classes_changed <k>/<n> mask_cells_changed <s>

`equal` or `differs` compares the two hashes. Over the line's floating
arrays, `max_abs` is the largest absolute difference and `max_rel` the
largest of each array's max |A - B| / max |A|, so a value near zero does
not blow it up. `classes_changed` counts the entries of its integer arrays
that differ, and `mask_cells_changed` is the share of the cells of its
boolean arrays that differ. A line without arrays of a kind prints `-`
there. NaN in the same place on both sides counts as equal. An array
missing on one side, or of another shape, is named on its own row.
Given two dumps, it reports and exits 0 whatever it finds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


def hash_lines(root: Path) -> dict:
    """line -> digest, in the order `output_hashes.py` printed them."""
    rows = (row.split() for row in (root / "hashes.txt").read_text().splitlines())
    return {line: digest for line, digest in rows}


def line_rows(a: Path, b: Path, line: str) -> list:
    """The summary row of one line, then one row per array that cannot be compared."""
    names = sorted({p.stem for p in (a / line).glob("*.npy")} |
                   {p.stem for p in (b / line).glob("*.npy")})
    max_abs = max_rel = None
    changed = classes = 0
    cells_changed = cells = 0
    problems = []
    for name in names:
        pa, pb = a / line / f"{name}.npy", b / line / f"{name}.npy"
        if not (pa.is_file() and pb.is_file()):
            problems.append(f"{line}/{name} missing in {b if pa.is_file() else a}")
            continue
        x, y = np.load(pa), np.load(pb)
        if x.shape != y.shape or x.dtype.kind != y.dtype.kind:
            problems.append(f"{line}/{name} is {x.dtype}{list(x.shape)} in A, "
                            f"{y.dtype}{list(y.shape)} in B")
        elif x.dtype.kind == "f":
            x, y = x.astype(np.float64), y.astype(np.float64)
            d = np.where(np.isnan(x) & np.isnan(y), 0.0, np.abs(x - y))
            worst = float(d.max()) if d.size else 0.0
            scale = float(np.nanmax(np.abs(x))) if d.size else 0.0
            rel = worst / scale if scale > 0 else (0.0 if worst == 0 else float("inf"))
            max_abs = worst if max_abs is None else max(max_abs, worst)
            max_rel = rel if max_rel is None else max(max_rel, rel)
        elif x.dtype.kind == "b":
            cells_changed += int((x != y).sum())
            cells += x.size
        else:
            changed += int((x != y).sum())
            classes += x.size
    summary = [
        "max_abs", "-" if max_abs is None else f"{max_abs:.3g}",
        "max_rel", "-" if max_rel is None else f"{max_rel:.3g}",
        "classes_changed", f"{changed}/{classes}" if classes else "-",
        "mask_cells_changed", f"{cells_changed / cells:.3g}" if cells else "-",
    ]
    return [" ".join(summary)] + problems


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: output_diff.py A B  (two output_hashes.py --dump directories)")
    a, b = Path(args[0]), Path(args[1])
    ha, hb = hash_lines(a), hash_lines(b)
    for line in list(ha) + [line for line in hb if line not in ha]:
        if line not in ha or line not in hb:
            print(f"{line} missing in {a if line not in ha else b}")
            continue
        summary, *problems = line_rows(a, b, line)
        print(f"{line} {'equal' if ha[line] == hb[line] else 'differs'} {summary}")
        for problem in problems:
            print(f"  {problem}")


if __name__ == "__main__":
    main()
