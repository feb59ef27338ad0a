"""Rebuild reference-table cells from the recipes the catalog picks.

Usage: python3 perfbench/rebuild_cells.py OUT_JSON MODEL:M:N ...

For each cell, asks chogen's catalog for its entry and builds the entry's
recipe.  Writes a JSON list with the recipe description and the design's
sets as bit strings, for the benchmark to check with its own certifier.
"""

import json
import sys


def main() -> int:
    from chogen.catalog import catalog_lookup
    from chogen.constructions import build
    from chogen.designs import bits_string

    out = []
    for cell in sys.argv[2:]:
        model, m, n = cell.split(":")
        entry = catalog_lookup(model, int(m), int(n))
        design = build(entry.recipe)
        out.append({"cell": cell, "recipe": entry.recipe.describe(),
                    "sets": [[bits_string(t) for t in s] for s in design.sets]})
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
