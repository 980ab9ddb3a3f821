"""Batch-export plot-ready lattice point data for low-dimensional examples.

For every partition in the requested box (at most --n rows, parts at most
--max-part) this writes one CSV through the same code path as the
``figure-data`` subcommand: one line per lattice point of each polytope in
the partition chain, columns ``x,y,z,degree``, with ``-`` in unused
coordinate columns when n = 2. Each chain contributes its base polytope at
the degree of the starting partition and one polytope per added box above
it, so the union of rows plots the full stack of nested permutahedra.

A ``manifest.json`` written alongside the CSVs records, per shape, the file
name, the number of lattice points, and the degree range, so downstream
plotting can be driven from the manifest alone.

Exit status is 0 on success, and 2 on a usage error, an --out-dir that
cannot be created or written, or an interrupt (Ctrl-C), each reported on one
stderr line.

Example:

    python3 scripts/export_figure_data.py --n 3 --max-part 3 --out-dir figures/
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from grothsnp import Partition, partitions_in_box
from grothsnp.cli import RunConfig, run


def export_shape(lam: Partition, n: int, out_dir: str) -> dict:
    """Write one CSV and return its manifest entry."""
    status, text = run(RunConfig(command="figure-data", lam=lam, n=n))
    if status != 0:
        raise RuntimeError(f"figure export failed for {lam.parts} with n={n}")
    label = "-".join(str(part) for part in lam.parts) or "empty"
    filename = f"lam_{label}_n{n}.csv"
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8") as handle:
        handle.write("x,y,z,degree\n")
        handle.write(text)
    lines = text.splitlines()
    degrees = sorted({int(line.rsplit(",", 1)[1]) for line in lines})
    return {
        "lambda": list(lam.parts),
        "n": n,
        "file": filename,
        "lattice_points": len(lines),
        "degree_min": degrees[0],
        "degree_max": degrees[-1],
    }


def fail(message: str) -> int:
    """Report an error on one stderr line; returns exit status 2."""
    print(f"export_figure_data.py: error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3, choices=(2, 3),
                        help="number of variables, 2 or 3 (default 3)")
    parser.add_argument("--max-part", type=int, default=3,
                        help="largest allowed part (default 3)")
    parser.add_argument("--out-dir", type=str, required=True,
                        help="directory for the CSVs and manifest")
    args = parser.parse_args(argv)
    if args.max_part < 0:
        parser.error("--max-part must be nonnegative")

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        entries = [
            export_shape(lam, args.n, args.out_dir)
            for lam in partitions_in_box(args.n, args.max_part)
        ]
        manifest = {
            "n": args.n,
            "max_part": args.max_part,
            "shapes": len(entries),
            "entries": entries,
        }
        path = os.path.join(args.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        return fail(f"cannot write {exc.filename}: {exc.strerror or exc}")
    except KeyboardInterrupt:
        return fail("interrupted")
    print(f"wrote {len(entries)} CSVs and manifest.json to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
