"""Whole-program rule families: SIM1xx, RNG1xx, EXA0xx.

Thin adapters: the analyses live in :mod:`repro.analysis.taint` and
:mod:`repro.analysis.contracts`; each rule filters the shared cached
result down to its own id so ``--rules SIM101`` works and per-rule
counts stay meaningful.
"""

from __future__ import annotations

from typing import Iterator

from ..diagnostics import Diagnostic
from ..project import ProjectContext
from .base import ProjectRule

__all__ = [
    "TimeUnitMixRule",
    "WallClockSinkRule",
    "SeedNonRootRule",
    "SeedFanoutRule",
    "ExactnessContractRule",
    "ContractTagRule",
]


class TimeUnitMixRule(ProjectRule):
    id = "SIM101"
    summary = "expression mixes simulated-seconds and host-seconds operands"
    rationale = (
        "Simulated seconds (advanced by the disk/CPU cost models) and host\n"
        "seconds (read from the wall clock) are different units that happen\n"
        "to share a float type.  Adding or comparing across them produces a\n"
        "number that means nothing — and because both are 'seconds', the\n"
        "bug reads naturally and survives review.  The analyzer classifies\n"
        "every float-returning function by propagating units from known\n"
        "sources (time.monotonic, PipelineSimulator charges,\n"
        "chunk_read_time_s) through calls, returns, parameters and stored\n"
        "attributes, then flags any +, -, comparison, min() or max() whose\n"
        "operands disagree.  Fix by converting at an explicit boundary, or\n"
        "suppress with '# repro-lint: disable=SIM101' where the mix is\n"
        "intentional (e.g. a calibration report)."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for diagnostic in project.time_diagnostics():
            if diagnostic.rule == self.id:
                yield diagnostic


class WallClockSinkRule(ProjectRule):
    id = "SIM102"
    summary = "simulated-seconds value reaches a wall-clock sink (time.sleep)"
    rationale = (
        "A simulated timestamp fed to time.sleep() stalls the process for\n"
        "model-seconds and ties the run's wall time to the cost model:\n"
        "simulated time must stay a pure function of the seed and the\n"
        "workload, never something the host waits out.  The analyzer\n"
        "tracks units inter-procedurally and flags arguments whose unit\n"
        "contradicts the sink's declared unit (config.TIME_UNIT_SINKS)."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for diagnostic in project.time_diagnostics():
            if diagnostic.rule == self.id:
                yield diagnostic


class SeedNonRootRule(ProjectRule):
    id = "RNG101"
    summary = "generator seeded from non-root entropy (another generator or the clock)"
    rationale = (
        "Every random stream must be derivable from the run's root seed:\n"
        "that is what makes servesim/faultsim reruns byte-identical.\n"
        "Seeding a generator from another generator's *output*\n"
        "(default_rng(rng.integers(...))) couples the child stream to how\n"
        "many draws the parent made before — a refactor that adds one draw\n"
        "upstream silently reshuffles everything downstream.  Seeding from\n"
        "the wall clock or an entropy-less SeedSequence() is nondeterminism\n"
        "by construction.  Derive child seeds with SeedSequence.spawn() or\n"
        "keyed entropy tuples instead."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for diagnostic in project.seed_diagnostics():
            if diagnostic.rule == self.id:
                yield diagnostic


class SeedFanoutRule(ProjectRule):
    id = "RNG102"
    summary = "one seed fans out to two entropy consumers without spawn()"
    rationale = (
        "Passing the same seed value to two consumers creates two\n"
        "*identical* streams, not two independent ones: faults correlate\n"
        "with arrivals, two shards draw the same 'random' chunk order, and\n"
        "quality numbers quietly stop meaning what they claim.  The\n"
        "analyzer tracks which function parameters (transitively) feed\n"
        "generator constructions and flags a bare seed name reaching two\n"
        "such consumers in one function.  Fork child seeds with\n"
        "SeedSequence(seed).spawn(n), or derive keyed entropy tuples\n"
        "((seed, stream_id) as faults.plan does) so each consumer gets its\n"
        "own stream."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for diagnostic in project.seed_diagnostics():
            if diagnostic.rule == self.id:
                yield diagnostic


class ExactnessContractRule(ProjectRule):
    id = "EXA001"
    summary = "exact-marked code reaches an approximate API without a waiver"
    rationale = (
        "PR 5's pruned/routed/cached paths are proven bit-identical to the\n"
        "exact engine; functions carrying '# repro: exact' advertise that\n"
        "guarantee.  If such a function calls — directly or through any\n"
        "chain of unmarked helpers — something marked '# repro:\n"
        "approximate' (epsilon/PAC stop rules, degraded execution), the\n"
        "guarantee is broken while the marker still claims it.  The\n"
        "analyzer walks the call graph from every exact function and flags\n"
        "the crossing call site, with the witness path.  If the crossing\n"
        "is intended (an exact driver that *optionally* takes approximate\n"
        "stop rules), annotate the call line with '# repro:\n"
        "allow-approximate'."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        from ..contracts import check_exactness

        yield from check_exactness(project.symbols, project.callgraph)


class ContractTagRule(ProjectRule):
    id = "EXA002"
    summary = "malformed '# repro:' contract comment"
    rationale = (
        "A misspelled contract ('# repro: exactt') parses as a comment and\n"
        "enforces nothing — strictly worse than no contract, because the\n"
        "reader believes the checker is watching.  Any '# repro:' tag\n"
        "outside {exact, approximate, allow-approximate} is flagged, as is\n"
        "a def marked both exact and approximate."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        from ..contracts import check_contract_tags

        yield from check_contract_tags(project.symbols)
