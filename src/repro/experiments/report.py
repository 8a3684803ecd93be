"""The experiment registry and the batch entry point over it.

:data:`MODULES` lists every reproduced table/figure in the paper's
presentation order.  ``run_sweep`` is the batch entry point behind
``python -m repro sweep``: it concatenates every experiment's job grid
into one :class:`~repro.runtime.sweep.Sweep`, executes it once (cells
shared between experiments — every ladder's baseline, Table 1's reuse
of the Figure 3 scenarios — run a single time), then renders all tables
from the shared results.  ``python -m repro report`` assembles
EXPERIMENTS.md from the same registry through
:class:`repro.service.reporter.IncrementalReporter`.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablations,
    compare,
    fig2,
    fig3,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    mt,
    scaling,
    table1,
    table2,
    table6,
)
from repro.runtime.engine import Engine
from repro.runtime.progress import SweepReport
from repro.runtime.sweep import Sweep
from repro.sim.runner import Scale

#: (name, module) in the paper's presentation order.  Every module exposes
#: ``jobs(scale)``, ``tables(results, scale)`` and ``run(scale, engine)``.
MODULES = (
    ("Table 1", table1),
    ("Table 2", table2),
    ("Figure 2", fig2),
    ("Figure 3", fig3),
    ("Figure 8", fig8),
    ("Figure 9", fig9),
    ("Figure 10", fig10),
    ("Table 6", table6),
    ("Figure 11 + Table 7", fig11),
    ("Figure 12", fig12),
    ("Ablations", ablations),
    ("Compare", compare),
    ("Multi-tenant", mt),
    ("Scaling", scaling),
)


def _tables(result) -> list:
    if isinstance(result, (list, tuple)):
        return list(result)
    return [result]


def sweep_jobs(scale: Scale, only: list[str] | None = None) -> Sweep:
    """Every selected experiment's grid as one batch."""
    selected = _select(only)
    grids = [module.jobs(scale) for _, module in selected]
    return Sweep.build("report", *grids)


def _select(only: list[str] | None) -> list[tuple[str, object]]:
    if not only:
        return list(MODULES)
    wanted = {_canonical(token) for token in only}
    selected = [(name, module) for name, module in MODULES
                if _canonical(name) in wanted]
    known = {_canonical(name) for name, _ in MODULES}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {sorted(unknown)}; one of {sorted(known)}"
        )
    return selected


def _canonical(name: str) -> str:
    """Map 'Figure 8', 'fig8', 'table7', ... onto one canonical token."""
    token = name.lower().replace(" ", "")
    token = token.replace("figure", "fig").replace("+table7", "")
    if token in ("fig11", "table7"):
        return "fig11"
    if token in ("mt", "multitenant"):
        return "multi-tenant"
    return token


def run_sweep(scale: Scale, engine: Engine, out=None,
              only: list[str] | None = None) -> SweepReport:
    """Execute every experiment as one deduplicated parallel batch."""
    out = out if out is not None else sys.stdout
    results = engine.run_jobs(sweep_jobs(scale, only))
    for _name, module in _select(only):
        for table in _tables(module.tables(results, scale)):
            print(table.render(), file=out)
            print(file=out)
        out.flush()
    report = engine.last_report
    print(f"[sweep] {report.summary()}", file=out)
    return report
