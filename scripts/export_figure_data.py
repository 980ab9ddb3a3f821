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

Exit status is 0 on success, and 2 on a usage error, an --out-dir that
cannot be created or written, a stdout that cannot be written, or an
interrupt (Ctrl-C), each reported on one stderr line by the helpers of
grothsnp.battery.

Example:

    python3 scripts/export_figure_data.py --n 3 --max-part 3 --out-dir figures/
"""

from __future__ import annotations

import json
import os

from grothsnp import Partition, partitions_in_box
from grothsnp.battery import ArgumentParser, fail, write_stdout
from grothsnp.cli import figure_data


def export_shape(lam: Partition, n: int, out_dir: str) -> dict:
    """Write one CSV and return its manifest entry."""
    text = figure_data(lam, n)
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


def main(argv: list[str] | None = None) -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
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
        return fail(
            f"cannot write {exc.filename}: {exc.strerror or exc}", "export_figure_data.py"
        )
    except KeyboardInterrupt:
        return fail("interrupted", "export_figure_data.py")
    summary = f"wrote {len(entries)} CSVs and manifest.json to {args.out_dir}\n"
    return write_stdout(summary, "export_figure_data.py") or 0


if __name__ == "__main__":
    raise SystemExit(main())
