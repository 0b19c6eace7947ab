"""Shared analysis context.

Every step of the flow (cost estimation, assignment search, time
extensions, simulation) needs the same pre-computed facts about a
(program, platform) pair: the reference groups, their candidate chains,
the dependence information and the stmt-to-group mapping.  Computing
them once in :class:`AnalysisContext` keeps the steps consistent and the
search fast.

Those facts depend on the program only, so they live in a
:class:`ProgramAnalysis` that every context of one program may share;
the context adds what depends on the platform: the step-1 evaluator and
the step-2 table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import ValidationError
from repro.ir.dependences import DependenceInfo, analyze_dependences
from repro.ir.program import Program, StmtContext
from repro.lifetime.intervals import Interval
from repro.lifetime.occupancy import OccupancyMap, SpaceClaim, build_occupancy
from repro.memory.presets import Platform
from repro.reuse.candidates import (
    CandidateChainSpec,
    CopyCandidate,
    RefGroup,
    enumerate_candidates,
)
from repro.reuse.chains import CopyChain, chain_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.incremental import IncrementalEvaluator


@dataclass
class Assignment:
    """A placement decision: array homes plus selected copies.

    Assignments are treated as **immutable** by the search engines:
    every move helper returns a new instance and the two dicts must not
    be mutated in place.  Because of that, the move helpers share every
    untouched structure with the source assignment — ``with_copy`` and
    ``without_copy`` reuse the ``array_home`` dict and all other groups'
    selection tuples, ``with_home`` reuses the whole ``copies`` dict —
    so a trial move is O(changed entry), not O(program).

    Attributes
    ----------
    array_home:
        Layer name per array.  Every array of the program must appear.
    copies:
        Per group key, the selected ``(candidate_uid, layer_name)``
        pairs.  Order is irrelevant here; chains are re-sorted by level
        when materialised.
    """

    array_home: dict[str, str]
    copies: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    def clone(self) -> "Assignment":
        """Independent copy (for callers that want to mutate freely)."""
        return Assignment(
            array_home=dict(self.array_home),
            copies=dict(self.copies),
        )

    def with_copy(self, group_key: str, candidate_uid: str, layer_name: str) -> "Assignment":
        """New assignment with one more selected copy."""
        existing = self.copies.get(group_key, ())
        if any(uid == candidate_uid for uid, _layer in existing):
            raise ValidationError(f"candidate {candidate_uid!r} already selected")
        copies = dict(self.copies)
        copies[group_key] = existing + ((candidate_uid, layer_name),)
        return Assignment(array_home=self.array_home, copies=copies)

    def without_copy(self, group_key: str, candidate_uid: str) -> "Assignment":
        """New assignment with one copy removed."""
        existing = self.copies.get(group_key, ())
        remaining = tuple(
            (uid, layer) for uid, layer in existing if uid != candidate_uid
        )
        if len(remaining) == len(existing):
            raise ValidationError(f"candidate {candidate_uid!r} is not selected")
        copies = dict(self.copies)
        if remaining:
            copies[group_key] = remaining
        else:
            copies.pop(group_key, None)
        return Assignment(array_home=self.array_home, copies=copies)

    def with_home(self, array_name: str, layer_name: str) -> "Assignment":
        """New assignment with an array's home layer changed."""
        if array_name not in self.array_home:
            raise ValidationError(f"unknown array {array_name!r}")
        array_home = dict(self.array_home)
        array_home[array_name] = layer_name
        return Assignment(array_home=array_home, copies=self.copies)

    def selected_uids(self) -> tuple[str, ...]:
        """All selected candidate uids (sorted, deterministic)."""
        uids = []
        for selections in self.copies.values():
            uids.extend(uid for uid, _layer in selections)
        return tuple(sorted(uids))

    def copy_count(self) -> int:
        """Number of selected copies."""
        return sum(len(selections) for selections in self.copies.values())


class ProgramAnalysis:
    """The platform-independent analyses of one program.

    The reference groups with their candidate chains
    (:func:`~repro.reuse.candidates.enumerate_candidates`), the
    dependence information, the statement-to-group table and the
    compute cycles depend on the program alone.  A layer-size sweep
    evaluates one program on many platforms, so every
    :class:`AnalysisContext` of that program can share one analysis.
    Everything in it is immutable once built.
    """

    def __init__(self, program: Program):
        self.program = program
        self.specs: dict[str, CandidateChainSpec] = enumerate_candidates(program)
        self.deps: DependenceInfo = analyze_dependences(program)

    @cached_property
    def compute_cycles(self) -> float:
        """The program's compute cycles, walked once per program."""
        return float(self.program.compute_cycles())

    @cached_property
    def groups(self) -> tuple[RefGroup, ...]:
        """All reference groups, deterministic order."""
        return tuple(spec.group for spec in self.specs.values())

    @cached_property
    def _group_key_by_stmt_signature(self) -> dict[tuple, str]:
        table: dict[tuple, str] = {}
        for spec in self.specs.values():
            group = spec.group
            table[
                (group.nest_index, group.array_name, str(group.ref), group.loop_names)
            ] = group.key
        return table

    def group_key_of(self, context: StmtContext) -> str:
        """Group key serving a given statement context."""
        signature = (
            context.nest_index,
            context.stmt.array_name,
            str(context.stmt.ref),
            context.loop_names,
        )
        try:
            return self._group_key_by_stmt_signature[signature]
        except KeyError:
            raise ValidationError(
                f"statement {context.stmt} has no reference group"
            ) from None

    def candidate(self, uid: str) -> CopyCandidate:
        """Candidate lookup by uid."""
        group_key, _at, _level = uid.partition("@")
        spec = self.specs.get(group_key)
        if spec is None or uid not in spec.by_uid:
            raise ValidationError(f"unknown candidate uid {uid!r}")
        return spec.by_uid[uid]


class AnalysisContext:
    """Pre-computed analyses for one (program, platform) pair.

    The program-level part is :attr:`analysis`, a
    :class:`ProgramAnalysis`; pass one already built for *program* to
    share it, or leave it out to build a fresh one.  The context
    re-exports its ``specs``, ``deps``, ``groups``, ``compute_cycles``,
    ``group_key_of`` and ``candidate``.

    The platform-level part fills on demand.  :attr:`evaluator` is
    the context's one :class:`~repro.core.incremental.IncrementalEvaluator`,
    which holds the three step-1 tables: contributions, links and
    greedy's scored rounds.
    ``step2_table`` belongs to :func:`~repro.core.scenarios.step_two`:
    it maps ``(sort_factor, array_home items, copies items)`` to the
    ``(TeSchedule, mhla_te CostReport, ideal CostReport)`` of that
    assignment.  Both are pure functions of the context, so every cell
    evaluated on it — one per objective of a sweep — shares them, and
    they live exactly as long as the context.
    """

    def __init__(
        self,
        program: Program,
        platform: Platform,
        analysis: ProgramAnalysis | None = None,
    ):
        if analysis is None:
            analysis = ProgramAnalysis(program)
        elif analysis.program is not program:
            raise ValidationError(
                f"analysis of program {analysis.program.name!r} passed "
                f"for program {program.name!r}"
            )
        self.program = program
        self.platform = platform
        self.analysis = analysis
        self.specs = analysis.specs
        self.deps = analysis.deps
        self.group_key_of = analysis.group_key_of
        self.candidate = analysis.candidate
        self.step2_table: dict = {}

    @cached_property
    def evaluator(self) -> IncrementalEvaluator:
        """The context's :class:`~repro.core.incremental.IncrementalEvaluator`.

        Built on first use; every search on the context scores through
        it, so they share its tables.
        """
        from repro.core.incremental import IncrementalEvaluator

        return IncrementalEvaluator(self)

    @property
    def compute_cycles(self) -> float:
        """The program's compute cycles (see :class:`ProgramAnalysis`)."""
        return self.analysis.compute_cycles

    @property
    def groups(self) -> tuple[RefGroup, ...]:
        """All reference groups, deterministic order."""
        return self.analysis.groups

    # ------------------------------------------------------------------
    # assignments
    # ------------------------------------------------------------------

    def out_of_box_assignment(self) -> Assignment:
        """The paper's baseline: every array off-chip, no copies."""
        offchip = self.platform.hierarchy.offchip.name
        return Assignment(
            array_home={name: offchip for name in self.program.arrays}
        )

    def chain_for(self, assignment: Assignment, group_key: str) -> CopyChain:
        """Materialise and validate the copy chain of one group."""
        spec = self.specs[group_key]
        home = assignment.array_home[spec.group.array_name]
        selections = tuple(
            (self.candidate(uid), layer_name)
            for uid, layer_name in assignment.copies.get(group_key, ())
        )
        return chain_of(spec.group, home, selections, self.platform.hierarchy)

    def chains(self, assignment: Assignment) -> dict[str, CopyChain]:
        """All chains of an assignment."""
        return {
            group_key: self.chain_for(assignment, group_key)
            for group_key in self.specs
        }

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------

    def space_claims(
        self,
        assignment: Assignment,
        extra_buffer_uids: frozenset[str] = frozenset(),
    ) -> tuple[SpaceClaim, ...]:
        """Space claims implied by an assignment.

        *extra_buffer_uids* lists copies that the TE step double-buffers;
        they claim twice their size for the duration of their nest.
        """
        claims: list[SpaceClaim] = []
        for array_name, layer_name in assignment.array_home.items():
            first, last = self.program.live_interval(array_name)
            claims.append(
                SpaceClaim(
                    layer_name=layer_name,
                    interval=Interval(first, last),
                    bytes=self.program.array(array_name).bytes,
                    tag=f"array:{array_name}",
                )
            )
        for group_key, selections in assignment.copies.items():
            nest = self.specs[group_key].group.nest_index
            for uid, layer_name in selections:
                claims.append(
                    SpaceClaim(
                        layer_name=layer_name,
                        interval=Interval(nest, nest),
                        bytes=self.candidate(uid).size_bytes,
                        tag=f"copy:{uid}",
                    )
                )
        return double_buffered(tuple(claims), extra_buffer_uids)

    def occupancy(
        self,
        assignment: Assignment,
        extra_buffer_uids: frozenset[str] = frozenset(),
    ) -> OccupancyMap:
        """Occupancy map of an assignment (optionally with TE doubling)."""
        return build_occupancy(self.space_claims(assignment, extra_buffer_uids))

    def fits(
        self,
        assignment: Assignment,
        extra_buffer_uids: frozenset[str] = frozenset(),
    ) -> bool:
        """Capacity feasibility of an assignment."""
        return self.occupancy(assignment, extra_buffer_uids).fits(
            self.platform.hierarchy
        )


def double_buffered(
    claims: tuple[SpaceClaim, ...], extra_buffer_uids: frozenset[str]
) -> tuple[SpaceClaim, ...]:
    """*claims* with the claim of each listed copy at twice its size.

    The TE step builds an assignment's claims once and re-doubles only
    its extras for each capacity probe.
    """
    if not extra_buffer_uids:
        return claims
    doubled = {f"copy:{uid}" for uid in extra_buffer_uids}
    return tuple(
        replace(claim, bytes=2 * claim.bytes) if claim.tag in doubled else claim
        for claim in claims
    )
