"""Batch-export plot-ready lattice point data for low-dimensional examples.

For every partition in the requested box (at most --n rows, parts at most
--max-part) this writes one CSV from ``grothsnp.cli.figure_data``, the
function behind the ``figure-data`` subcommand: one line per lattice point
of each polytope in the partition chain, columns ``x,y,z,degree``, with
``-`` in unused coordinate columns when n = 2. Each chain contributes its base polytope at
the degree of the starting partition and one polytope per added box above
it, so the union of rows plots the full stack of nested permutahedra.

A ``manifest.json`` written alongside the CSVs records, per shape, the file
name, the number of lattice points, and the degree range, so downstream
plotting can be driven from the manifest alone.

The work runs under grothsnp.battery.deliver. Exit status is 0 on success,
and 2 on a usage error, an --out-dir or file in it that cannot be written
(the line names it), a stdout that cannot be written, exhausted memory or
an interrupt (Ctrl-C), each reported on one stderr line.

Example:

    python3 scripts/export_figure_data.py --n 3 --max-part 3 --out-dir figures/
"""

from __future__ import annotations

import argparse
import os
from typing import TYPE_CHECKING

from grothsnp.battery import ArgumentParser, deliver, dump_json, size, write_file

if TYPE_CHECKING:
    from grothsnp import Partition


def export_shape(lam: Partition, n: int, out_dir: str) -> dict:
    """Write one CSV and return its manifest entry."""
    from grothsnp.cli import figure_data  # after parsing: --help needs no math

    text = figure_data(lam, n)
    label = "-".join(str(part) for part in lam.parts) or "empty"
    filename = f"lam_{label}_n{n}.csv"
    write_file(os.path.join(out_dir, filename), "x,y,z,degree\n" + text)
    lines = text.splitlines()
    degrees = sorted({int(line.rsplit(",", 1)[1]) for line in lines})
    return {
        "lambda": lam.parts,
        "n": n,
        "file": filename,
        "lattice_points": len(lines),
        "degree_min": degrees[0],
        "degree_max": degrees[-1],
    }


def directory(text: str) -> str:
    """The argparse type of --out-dir; an empty path names no directory."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3, choices=(2, 3),
                        help="number of variables, 2 or 3 (default 3)")
    parser.add_argument("--max-part", type=size, default=3,
                        help="largest allowed part (default 3)")
    parser.add_argument("--out-dir", type=directory, required=True,
                        help="directory for the CSVs and manifest")
    args = parser.parse_args(argv)

    def produce() -> tuple[int, str, None]:
        from grothsnp import partitions_in_box  # after parsing: --help needs no math

        os.makedirs(args.out_dir, exist_ok=True)
        shapes = partitions_in_box(args.n, args.max_part)
        entries = [export_shape(lam, args.n, args.out_dir) for lam in shapes]
        manifest = {"n": args.n, "max_part": args.max_part, "shapes": len(entries),
                    "entries": entries}
        write_file(os.path.join(args.out_dir, "manifest.json"), dump_json(manifest))
        return 0, f"wrote {len(entries)} CSVs and manifest.json to {args.out_dir}\n", None

    return deliver(produce, None, "export_figure_data.py")


if __name__ == "__main__":
    raise SystemExit(main())
