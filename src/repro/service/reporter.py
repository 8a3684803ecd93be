"""Incremental report regeneration.

A full report pass renders fourteen sections; between two passes almost
nothing changes — the cache satisfies every cell and every table comes
out identical.  This module makes that observation structural (the
FuzzBench measurer→reporter pattern): a **manifest** under
``<cache_dir>/service/report/`` records, per section, the *signature* of
the cells that feed it — ``sha256`` over the ordered ``(spec hash,
result-pickle digest)`` pairs of the section's job grid.  On the next
pass a section whose signature is unchanged is served from its stored
form without unpickling a single result; only sections whose cells
changed (new code version, changed scale, evicted entry) are re-rendered.

What is stored per section is the **cell model**, not rendered strings:
``sections/<slug>.json`` holds each table's
:meth:`~repro.stats.tables.Table.payload` — values, per-seed samples,
confidence intervals, significance verdicts — and the manifest records
a digest over that model.  Text is produced on demand through the one
shared renderer (:meth:`Table.render`), so the reporter, the HTTP
endpoint (``/tables`` serves the models directly) and a live
``tables()`` call can never disagree on formatting.

Parity is structural, not asserted: the assembled document goes through
:func:`repro.service.assemble.build` — the same code path as
``tools/build_experiments_md.py`` — and the raw text uses one section
format (tables, then a ``[{section}: {N}s]`` timing line), so a
fully-incremental pass and a full rebuild emit byte-identical documents
(the timing separator lines are stripped by the assembler).  A pass restricted with ``--only`` updates
its selected sections and merges every other section's stored model
into the written document, so a partial refresh never degrades
EXPERIMENTS.md to placeholders.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.report import MODULES, _select, _tables
from repro.runtime.cache import ResultCache
from repro.runtime.engine import Engine
from repro.runtime.job import Job
from repro.runtime.sweep import Sweep
from repro.service import assemble
from repro.service.queue import service_dir
from repro.sim.runner import Scale
from repro.stats.tables import Table

REPORT_SUBDIR = "report"
MANIFEST_NAME = "manifest.json"


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _model_json(payloads: list[dict[str, Any]]) -> str:
    """Canonical JSON of a section's table payloads."""
    return json.dumps(payloads, indent=1, sort_keys=True)


def _model_digest(payloads: list[dict[str, Any]]) -> str:
    canonical = json.dumps(payloads, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _render_section(payloads: list[dict[str, Any]]) -> str:
    """A stored cell model back to raw-report section text."""
    rendered: list[str] = []
    for payload in payloads:
        rendered.append(Table.from_payload(payload).render())
        rendered.append("")
    return "\n".join(rendered) + "\n" if rendered else ""


def section_signature(jobs: list[Job], cache: ResultCache) -> str | None:
    """Signature of a section's feeding cells, or ``None`` on any miss."""
    digest = hashlib.sha256()
    for job in jobs:
        cell = cache.digest(job)
        if cell is None:
            return None
        digest.update(job.spec_hash().encode())
        digest.update(b":")
        digest.update(cell.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class ReportUpdate:
    """Outcome of one incremental pass.

    ``raw`` covers the *selected* sections (the parity contract with
    :meth:`IncrementalReporter.full_raw_equivalent` over the same
    selection); ``sections``
    maps each selected section's name to its rendered text so
    :meth:`IncrementalReporter.write_outputs` can merge unselected
    sections' stored models into the published document.
    """

    raw: str
    rebuilt: list[str] = field(default_factory=list)
    reused: list[str] = field(default_factory=list)
    executed: int = 0
    sections: dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        return (f"{len(self.rebuilt)} section(s) rebuilt, "
                f"{len(self.reused)} reused, "
                f"{self.executed} cold cell(s) executed")


class IncrementalReporter:
    """Regenerates only the report sections whose cells changed.

    State layout under ``<cache_dir>/service/report/``::

        manifest.json       {section: {signature, model_digest, file,
                                       title, seconds}}
        sections/<slug>.json  the section's cell model (table payloads)
        experiments_raw.txt  last assembled raw report text
        EXPERIMENTS.md       last assembled document
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache
        self.root = service_dir(cache.root) / REPORT_SUBDIR
        self.sections_dir = self.root / "sections"
        self.manifest_path = self.root / MANIFEST_NAME

    # ------------------------------------------------------------------
    def _load_manifest(self) -> dict[str, Any]:
        try:
            return json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return {}

    def _save_manifest(self, manifest: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        tmp.replace(self.manifest_path)

    # ------------------------------------------------------------------
    def update(self, scale: Scale, engine: Engine,
               only: list[str] | None = None) -> ReportUpdate:
        """One incremental pass over the selected sections.

        Cold cells (anything the cache cannot digest) are executed
        through ``engine`` first — a first run degenerates to a full
        report pass, a warm rerun touches nothing but file hashes.
        """
        selected = _select(only)
        grids = {name: list(dict.fromkeys(module.jobs(scale)))
                 for name, module in selected}
        cold = [job
                for jobs in grids.values()
                for job in jobs
                if self.cache.digest(job) is None]
        executed = 0
        if cold:
            sweep = Sweep.build("report", cold)
            engine.run_jobs(sweep)
            executed = engine.last_report.executed

        manifest = self._load_manifest()
        update = ReportUpdate(raw="", executed=executed)
        raw_parts: list[str] = []
        for name, module in selected:
            jobs = grids[name]
            signature = section_signature(jobs, self.cache)
            slug = _slug(name)
            entry = manifest.get(slug)
            section_file = self.sections_dir / f"{slug}.json"
            text: str | None = None
            model_digest = None
            if (entry is not None and signature is not None
                    and entry.get("signature") == signature):
                payloads = self._load_section(slug)
                if payloads is not None:
                    text = _render_section(payloads)
                    model_digest = entry.get("model_digest")
            if text is not None:
                update.reused.append(name)
                seconds = float(entry.get("seconds", 0.0))
            else:
                started = time.time()
                results = {job: self.cache.get(job) for job in jobs}
                payloads = [table.payload()
                            for table in _tables(module.tables(results,
                                                               scale))]
                text = _render_section(payloads)
                model_digest = _model_digest(payloads)
                seconds = time.time() - started
                self.sections_dir.mkdir(parents=True, exist_ok=True)
                tmp = section_file.with_suffix(".tmp")
                tmp.write_text(_model_json(payloads))
                tmp.replace(section_file)
                update.rebuilt.append(name)
            manifest[slug] = {
                "title": name,
                "signature": signature,
                "model_digest": model_digest,
                "file": f"sections/{slug}.json",
                "seconds": round(seconds, 3),
            }
            update.sections[name] = text
            raw_parts.append(text)
            raw_parts.append(f"[{name}: {seconds:.0f}s]\n\n")
        self._save_manifest(manifest)
        update.raw = "".join(raw_parts)
        return update

    def _load_section(self, slug: str) -> list[dict[str, Any]] | None:
        """The stored cell model of one section, or ``None``."""
        try:
            payloads = json.loads(
                (self.sections_dir / f"{slug}.json").read_text())
        except (OSError, ValueError):
            return None
        return payloads if isinstance(payloads, list) else None

    # ------------------------------------------------------------------
    def document_raw(self, update: ReportUpdate) -> str:
        """The full-document raw text for ``update``: selected sections
        from the pass itself, every other section from its stored cell
        model — so a ``--only`` refresh never publishes a document with
        placeholder sections."""
        manifest = self._load_manifest()
        parts: list[str] = []
        for name, _module in MODULES:
            slug = _slug(name)
            if name in update.sections:
                text = update.sections[name]
                seconds = float(manifest.get(slug, {}).get("seconds", 0.0))
            else:
                payloads = self._load_section(slug)
                if payloads is None:
                    continue  # never built; assemble() reports it missing
                text = _render_section(payloads)
                seconds = float(manifest.get(slug, {}).get("seconds", 0.0))
            parts.append(text)
            parts.append(f"[{name}: {seconds:.0f}s]\n\n")
        if not parts:
            return update.raw
        return "".join(parts)

    def write_outputs(self, update: ReportUpdate,
                      markdown_path: str | Path | None = None) -> Path:
        """Persist the raw text and the assembled document.

        Returns the path of the written markdown (default: the state
        directory's own copy; pass ``markdown_path`` to update the
        repository's EXPERIMENTS.md).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        raw = self.document_raw(update)
        (self.root / "experiments_raw.txt").write_text(raw)
        built = assemble.build(raw)
        target = Path(markdown_path) if markdown_path is not None \
            else self.root / "EXPERIMENTS.md"
        target.write_text(built)
        return target

    def full_raw_equivalent(self, scale: Scale,
                            only: list[str] | None = None) -> str:
        """The raw text a non-incremental pass over the same cached
        cells would produce, with zeroed timings (test/parity helper)."""
        selected = _select(only)
        parts: list[str] = []
        for name, module in selected:
            jobs = list(dict.fromkeys(module.jobs(scale)))
            results = {job: self.cache.get(job) for job in jobs}
            for table in _tables(module.tables(results, scale)):
                parts.append(table.render())
                parts.append("")
            parts.append(f"[{name}: 0s]")
            parts.append("")
        return "\n".join(parts) + "\n" if parts else ""


__all__ = [
    "IncrementalReporter",
    "MODULES",
    "ReportUpdate",
    "section_signature",
]
