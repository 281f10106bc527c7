#!/usr/bin/env python3
"""Write golden_oracle.json: the oracle's answers on the benchmark's query
grid, as the current sources give them.

    python3 bench/freeze_golden.py

The table is frozen: regenerate it only when a deliberate change of the
oracle's results has been verified by other means, and say so in the
change log.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from turanp import oracle, patterns  # noqa: E402
from workloads import GOLDEN_ORACLE, ORACLE_GRID, oracle_key  # noqa: E402


def main() -> None:
    table = {}
    for text, n, p in ORACLE_GRID:
        rep = oracle.max_ep(n, patterns.parse_pattern(text), p, threads=1)
        table[oracle_key(text, n, p)] = {
            "max_value": rep.max_value,
            "maximizers": [g6 for g6, _ in rep.maximizers],
            "unique": rep.unique,
        }
    GOLDEN_ORACLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
