"""Copy-candidate enumeration.

A *copy candidate* (Brockmeyer et al., DATE 2003; reused by this paper's
step 1) is a potential on-chip buffer holding the part of an array that a
reference touches below some loop level:

* **level k** fixes the k outermost enclosing loops and lets the rest
  range.  Level 0 is one buffer filled once per nest execution; level n
  (the full nesting depth) is a small window re-filled every innermost
  iteration.
* The candidate must be **re-filled** every time one of the fixed loops
  steps.  When consecutive iterations of the innermost fixed loop touch
  overlapping data (sliding windows), only the *delta* is transferred in
  steady state — the classic motion-estimation search-window
  optimisation.

Candidates are enumerated per :class:`RefGroup` — the statements of one
array inside one nest that share an identical reference and enclosing
path.  Distinct references get distinct chains (their footprints differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ValidationError
from repro.ir.loops import Loop
from repro.ir.program import Program, StmtContext
from repro.ir.refs import AffineRef
from repro.reuse.footprint import delta_elements, footprint_elements


@dataclass(frozen=True)
class RefGroup:
    """Statements of one array in one nest sharing a reference and path.

    Attributes
    ----------
    key:
        Program-unique identifier (stable across runs; used as the
        assignment-table key).
    array_name / nest_index / ref / path:
        The shared context.
    reads / writes:
        Total CPU read/write accesses issued by the grouped statements.
    """

    key: str
    array_name: str
    nest_index: int
    ref: AffineRef
    path: tuple[Loop, ...]
    reads: int
    writes: int

    @property
    def total_accesses(self) -> int:
        """All CPU accesses this group issues."""
        return self.reads + self.writes

    @property
    def loop_names(self) -> tuple[str, ...]:
        """Enclosing loop names, outermost first."""
        return tuple(loop.name for loop in self.path)

    @property
    def depth(self) -> int:
        """Nesting depth of the grouped statements."""
        return len(self.path)


@dataclass(frozen=True)
class CopyCandidate:
    """One possible copy buffer for a :class:`RefGroup`.

    Attributes
    ----------
    uid:
        Program-unique identifier (``<group key>@L<level>``).
    level:
        Number of fixed outer loops (0 .. group depth).
    size_elements / size_bytes:
        Buffer capacity needed for one instance of the copy.
    fill_sweeps:
        How many times the fill sequence restarts (product of trip
        counts *above* the fill loop).  Each sweep begins with a full
        fill.
    steady_fills_per_sweep:
        Fills after the first within one sweep (``trips(fill loop) - 1``;
        0 for level 0).
    first_fill_elements / steady_fill_elements:
        Elements moved by the initial fill of a sweep and by each
        steady-state (delta) fill.
    reads_served / writes_served:
        CPU accesses redirected to this copy if it is selected.
    fill_loop_name:
        Name of the loop whose iterations trigger fills (``None`` for
        level 0 — filled at nest entry).
    """

    uid: str
    group_key: str
    array_name: str
    nest_index: int
    level: int
    size_elements: int
    size_bytes: int
    fill_sweeps: int
    steady_fills_per_sweep: int
    first_fill_elements: int
    steady_fill_elements: int
    reads_served: int
    writes_served: int
    fill_loop_name: str | None
    fill_path_names: tuple[str, ...]

    @property
    def total_fills(self) -> int:
        """Total number of fill events."""
        return self.fill_sweeps * (1 + self.steady_fills_per_sweep)

    @property
    def transfer_in_elements(self) -> int:
        """Total elements loaded into the copy from its parent.

        Zero for write-only groups: a pure gather buffer does not need
        its previous contents fetched (write-allocate without fetch).
        """
        if self.reads_served == 0:
            return 0
        return self.fill_sweeps * (
            self.first_fill_elements
            + self.steady_fills_per_sweep * self.steady_fill_elements
        )

    @property
    def transfer_out_elements(self) -> int:
        """Total elements written back from the copy to its parent.

        Zero for read-only groups; for written groups every fill period
        flushes the freshly produced data.
        """
        if self.writes_served == 0:
            return 0
        return self.fill_sweeps * (
            self.first_fill_elements
            + self.steady_fills_per_sweep * self.steady_fill_elements
        )


@dataclass(frozen=True)
class CandidateChainSpec:
    """All candidates of one :class:`RefGroup`, ordered by level."""

    group: RefGroup
    candidates: tuple[CopyCandidate, ...]

    def candidate_at_level(self, level: int) -> CopyCandidate:
        """Candidate with the given level (raises if pruned/absent)."""
        for candidate in self.candidates:
            if candidate.level == level:
                return candidate
        raise ValidationError(
            f"group {self.group.key!r} has no candidate at level {level}"
        )

    @cached_property
    def by_uid(self) -> dict[str, CopyCandidate]:
        """Candidates indexed by uid."""
        return {candidate.uid: candidate for candidate in self.candidates}


def _ref_signature(ref: AffineRef) -> str:
    """Stable textual key for a reference (used in group keys)."""
    return str(ref)


def group_statements(program: Program) -> tuple[RefGroup, ...]:
    """Group access statements by (nest, array, reference, path).

    Statement order inside the program does not affect grouping; the
    returned groups are sorted by (nest, array, signature) so group keys
    are deterministic.
    """
    buckets: dict[tuple[int, str, str, tuple[str, ...]], list[StmtContext]] = {}
    for context in program.statement_contexts:
        key = (
            context.nest_index,
            context.stmt.array_name,
            _ref_signature(context.stmt.ref),
            context.loop_names,
        )
        buckets.setdefault(key, []).append(context)

    groups: list[RefGroup] = []
    for ordinal, (key, contexts) in enumerate(sorted(buckets.items())):
        nest_index, array_name, _signature, _names = key
        reads = sum(c.total_accesses for c in contexts if c.stmt.is_read)
        writes = sum(c.total_accesses for c in contexts if c.stmt.is_write)
        first = contexts[0]
        groups.append(
            RefGroup(
                key=f"n{nest_index}.{array_name}.g{ordinal}",
                array_name=array_name,
                nest_index=nest_index,
                ref=first.stmt.ref,
                path=first.path,
                reads=reads,
                writes=writes,
            )
        )
    return tuple(groups)


def candidates_for_group(group: RefGroup, program: Program) -> CandidateChainSpec:
    """Enumerate and prune the copy candidates of one group.

    Pruning applies one dominance rule: a candidate is dropped when an
    outer (lower-level) candidate has the same size — the outer one
    serves the same accesses with fewer fills.  The full-array case is
    intentionally kept at level 0 (it models "copy the whole table
    on-chip once", profitable for small coefficient arrays).
    """
    array = program.array(group.array_name)
    trips = program.trips
    loop_names = group.loop_names
    depth = group.depth

    candidates: list[CopyCandidate] = []
    seen_sizes: set[int] = set()
    for level in range(0, depth + 1):
        ranging = loop_names[level:]
        size_elements = footprint_elements(group.ref, ranging, trips, array.shape)
        if size_elements in seen_sizes:
            continue
        seen_sizes.add(size_elements)

        fill_sweeps = 1
        for name in loop_names[: max(0, level - 1)]:
            fill_sweeps *= trips[name]
        if level == 0:
            fill_loop_name = None
            steady_fills = 0
            steady_elements = 0
        else:
            fill_loop_name = loop_names[level - 1]
            steady_fills = trips[fill_loop_name] - 1
            steady_elements = delta_elements(
                group.ref, fill_loop_name, ranging, trips, array.shape
            )

        candidates.append(
            CopyCandidate(
                uid=f"{group.key}@L{level}",
                group_key=group.key,
                array_name=group.array_name,
                nest_index=group.nest_index,
                level=level,
                size_elements=size_elements,
                size_bytes=size_elements * array.element_bytes,
                fill_sweeps=fill_sweeps,
                steady_fills_per_sweep=steady_fills,
                first_fill_elements=size_elements,
                steady_fill_elements=steady_elements,
                reads_served=group.reads,
                writes_served=group.writes,
                fill_loop_name=fill_loop_name,
                fill_path_names=loop_names[:level],
            )
        )
    return CandidateChainSpec(group=group, candidates=tuple(candidates))


def enumerate_candidates(program: Program) -> dict[str, CandidateChainSpec]:
    """Candidate chains for every reference group of *program*."""
    return {
        group.key: candidates_for_group(group, program)
        for group in group_statements(program)
    }
