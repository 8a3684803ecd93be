"""One module per reproduced table/figure of the paper's evaluation (§5).

Each module exposes ``jobs(scale)`` (its grid as declarative
:class:`~repro.runtime.job.Job` specs), ``tables(results, scale)`` and
``run(scale=None, engine=None)`` returning one or more
:class:`~repro.stats.tables.Table` objects (the structured cell model
shared with the service layer) that render in the paper's layout.
``repro.experiments.report`` holds the registry of all of them:
``python -m repro sweep`` batches every grid through one engine call and
``python -m repro report`` assembles EXPERIMENTS.md from it.

Paper cross-references: Tables 1/2 and Figures 2/3 (§1-2 motivation),
Figures 8-10 (§5.1-5.2 ASAP ladders), Table 6 (§5.3 projection),
Figure 11/Table 7 (§5.4.1 Clustered TLB), Figure 12 (§5.4.2 2MB host
pages), ablations (§5.1.1 PWC capacity, §3.5 five-level, §3.7.2 holes).
``compare`` goes beyond the paper: it races the translation schemes of
`repro.schemes` head-to-head on the same substrate.
"""

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
    table1,
    table2,
    table6,
)
from repro.experiments.common import DEFAULT_SCALE, ExperimentTable, Table

__all__ = [
    "DEFAULT_SCALE",
    "ExperimentTable",
    "Table",
    "ablations",
    "compare",
    "fig10",
    "fig11",
    "fig12",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table6",
]
