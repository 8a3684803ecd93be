#!/usr/bin/env python3
"""Write ``reference.json``: every benchmark cell's statistics digest,
produced by the scalar oracle (``kernel="scalar"``).

Usage, from the repository root::

    python3 hostbench/make_reference.py [--workload NAME ...]
        [--seed N ...] [--jobs 2]

Defaults cover every workload at every seed of ``REFERENCE_SEEDS``.
Entries for other workloads/seeds already in the file are kept.  Run it
only when the simulated statistics are meant to change; a performance
change must leave this file untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from run import prepare_environment


def main(argv: list[str] | None = None) -> int:
    prepare_environment()
    import suite
    from repro.runtime.engine import Engine

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    path = suite.REFERENCE_PATH
    data = (json.loads(path.read_text(encoding="utf-8"))
            if path.exists() else {})
    data["oracle"] = "kernel=scalar"
    data["reference_seeds"] = list(suite.REFERENCE_SEEDS)
    data["held_out_seed"] = suite.HELD_OUT_SEED
    entries = data.setdefault("workloads", {})
    for name in args.workload or sorted(suite.WORKLOADS):
        workload = suite.WORKLOADS[name]
        for seed in args.seed or suite.REFERENCE_SEEDS:
            scale = workload.scale(seed)
            jobs = [dataclasses.replace(job, kernel="scalar")
                    for job in workload.sweep(scale).jobs]
            unique = list(dict.fromkeys(jobs))
            if len({suite.cell_id(job) for job in unique}) != len(unique):
                raise SystemExit(f"error: {name} cell ids are not unique")
            results = Engine(jobs=args.jobs, cache=None).run_jobs(unique)
            # Only stream-cell runs a non-scalar kernel, and it renders
            # no tables, so the grids render from their own jobs here.
            entries.setdefault(name, {})[str(seed)] = {
                "cells": suite.cell_digests(results, unique),
                "tables": suite.tables_digest(workload.render(results, scale)),
            }
            path.write_text(json.dumps(data, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {len(jobs)} cells", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
