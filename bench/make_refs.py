"""Regenerate bench/refs.json, the stored references the benchmark checks against.

    PYTHONPATH=src python3 bench/make_refs.py

* ``bounds``: for every stored input (each slot, quick ones too, and each
  probe input) the exact permanent of its integer matrix, from the
  benchmark's own integer Ryser, plus a digest of the input so a changed
  generator is caught at load time.
* ``certificate``: the failing cells of each full grid, decided cell by cell
  by the program's bigint ``verify_cell``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import betheperm as bp  # noqa: E402
from betheperm.phi import loop_bound  # noqa: E402
import workloads as w  # noqa: E402


def main() -> None:
    slots = set(w.slot_keys(w.BOUNDS_SLOTS)) | set(w.slot_keys(w.BOUNDS_QUICK))
    slots |= {(family, n, v) for _, family, n, v, _ in w.BOUNDS_PROBES}
    bounds = {}
    for family, n, v in sorted(slots):
        rows, scale = w.pool_matrix(family, n, v)
        bounds[f"{family}-{n}-{v}"] = {"per": str(w.ryser_int(rows)),
                                      "scale": scale, "sha": w.digest(rows)}
    certificate = {}
    for n_grid in w.CERT_REF_GRIDS:
        m = loop_bound(n_grid)
        certificate[str(n_grid)] = [[i, j] for i in range(m + 1) for j in range(m + 1)
                                    if not bp.verify_cell(i, j, n_grid)]
    w.REFS_PATH.write_text(json.dumps({"bounds": bounds, "certificate": certificate},
                                      indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
