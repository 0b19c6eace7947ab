"""Whole-program container.

A :class:`Program` is a validated, frozen unit of work: a declared set of
arrays plus a top-level sequence of loop nests.  The top-level sequence
positions double as the *program timeline* used by the lifetime/in-place
analysis — nest ``k`` executes strictly before nest ``k+1``, matching the
single-threaded scope of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from repro.errors import ValidationError
from repro.ir.arrays import Array
from repro.ir.loops import (
    Block,
    Loop,
    Node,
    executions_of,
    iter_loops,
    iter_statements,
    loop_path_to,
    validate_tree,
)
from repro.ir.statements import AccessStmt


@dataclass(frozen=True)
class StmtContext:
    """An access statement together with its structural position.

    Attributes
    ----------
    stmt:
        The statement itself.
    nest_index:
        Index of the top-level nest containing the statement (the
        program-timeline step).
    path:
        Enclosing loops, outermost first.
    """

    stmt: AccessStmt
    nest_index: int
    path: tuple[Loop, ...]

    @property
    def executions(self) -> int:
        """How many times the statement's body runs in total."""
        return executions_of(self.path)

    @property
    def total_accesses(self) -> int:
        """Total memory accesses issued by this statement."""
        return self.executions * self.stmt.count

    @property
    def loop_names(self) -> tuple[str, ...]:
        """Names of enclosing loops, outermost first."""
        return tuple(loop.name for loop in self.path)


class Program:
    """A validated application model.

    Construct via :class:`~repro.ir.builder.ProgramBuilder` in normal
    use; direct construction is supported for tests and generated
    programs.

    Parameters
    ----------
    name:
        Application name (used in reports).
    arrays:
        All arrays the program touches.
    nests:
        Top-level nodes in execution order.  Each entry is typically a
        :class:`~repro.ir.loops.Loop` (one loop nest); bare statements
        and :class:`~repro.ir.loops.Block` groups are also accepted.
    """

    def __init__(self, name: str, arrays: Mapping[str, Array], nests: tuple[Node, ...]):
        if not name:
            raise ValidationError("program name must be non-empty")
        if not nests:
            raise ValidationError(f"program {name!r} has no loop nests")
        self.name = name
        self.arrays: dict[str, Array] = dict(arrays)
        self.nests: tuple[Node, ...] = tuple(nests)
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        root = Block(body=self.nests, label="<program>")
        validate_tree(root)
        self._check_unique_loop_names()
        for context in self.statements():
            self._check_statement(context)

    def _check_unique_loop_names(self) -> None:
        seen: set[str] = set()
        for nest in self.nests:
            for loop in iter_loops(nest):
                if loop.name in seen:
                    raise ValidationError(
                        f"loop name {loop.name!r} is used in more than one nest; "
                        "loop names must be unique program-wide"
                    )
                seen.add(loop.name)

    def _check_statement(self, context: StmtContext) -> None:
        stmt = context.stmt
        array = self.arrays.get(stmt.array_name)
        if array is None:
            raise ValidationError(
                f"statement {stmt} references undeclared array {stmt.array_name!r}"
            )
        if stmt.ref.rank != array.rank:
            raise ValidationError(
                f"reference rank {stmt.ref.rank} does not match array "
                f"{array.name!r} rank {array.rank}"
            )
        enclosing = set(context.loop_names)
        missing = stmt.ref.loop_names - enclosing
        if missing:
            raise ValidationError(
                f"statement {stmt} indexes with loops {sorted(missing)} that do "
                "not enclose it"
            )

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------

    @cached_property
    def trips(self) -> dict[str, int]:
        """Trip count per (program-unique) loop name."""
        table: dict[str, int] = {}
        for nest in self.nests:
            for loop in iter_loops(nest):
                table[loop.name] = loop.trips
        return table

    @cached_property
    def loops_by_name(self) -> dict[str, Loop]:
        """Loop node per name."""
        table: dict[str, Loop] = {}
        for nest in self.nests:
            for loop in iter_loops(nest):
                table[loop.name] = loop
        return table

    def statements(self) -> Iterator[StmtContext]:
        """Yield every access statement with its context, program order."""
        for nest_index, nest in enumerate(self.nests):
            for stmt in iter_statements(nest):
                path = loop_path_to(nest, stmt)
                assert path is not None  # stmt came from this nest
                yield StmtContext(stmt=stmt, nest_index=nest_index, path=path)

    @cached_property
    def statement_contexts(self) -> tuple[StmtContext, ...]:
        """All statement contexts, cached."""
        return tuple(self.statements())

    def array(self, name: str) -> Array:
        """Look up an array declaration by name."""
        try:
            return self.arrays[name]
        except KeyError:
            raise ValidationError(f"unknown array {name!r}") from None

    # ------------------------------------------------------------------
    # aggregate queries used by cost models and reports
    # ------------------------------------------------------------------

    def total_accesses(self) -> int:
        """Total memory accesses across the whole program."""
        return sum(context.total_accesses for context in self.statement_contexts)

    def compute_cycles(self) -> int:
        """Pure CPU work cycles (excluding all memory access time)."""

        def cycles_of(node: Node) -> int:
            if isinstance(node, Loop):
                inner = sum(cycles_of(child) for child in node.body)
                return node.trips * (inner + node.work_cycles)
            if isinstance(node, Block):
                return sum(cycles_of(child) for child in node.body)
            return 0

        return sum(cycles_of(nest) for nest in self.nests)

    def nests_accessing(self, array_name: str) -> tuple[int, ...]:
        """Indices of nests that read or write *array_name*, ascending."""
        hits = sorted(
            {
                context.nest_index
                for context in self.statement_contexts
                if context.stmt.array_name == array_name
            }
        )
        return tuple(hits)

    def nests_writing(self, array_name: str) -> tuple[int, ...]:
        """Indices of nests that write *array_name*, ascending."""
        hits = sorted(
            {
                context.nest_index
                for context in self.statement_contexts
                if context.stmt.array_name == array_name and context.stmt.is_write
            }
        )
        return tuple(hits)

    def live_interval(self, array_name: str) -> tuple[int, int]:
        """(first, last) nest index where *array_name* is accessed.

        Arrays of kind ``INPUT`` are considered live from nest 0 (their
        data exists before the program starts); ``OUTPUT`` arrays stay
        live to the final nest (their data must survive the program).
        """
        array = self.array(array_name)
        touched = self.nests_accessing(array_name)
        if not touched:
            raise ValidationError(f"array {array_name!r} is never accessed")
        first, last = touched[0], touched[-1]
        from repro.ir.arrays import ArrayKind  # local import avoids cycle at module load

        if array.kind is ArrayKind.INPUT:
            first = 0
        if array.kind is ArrayKind.OUTPUT:
            last = len(self.nests) - 1
        return first, last

    def __str__(self) -> str:
        return (
            f"Program({self.name!r}, arrays={len(self.arrays)}, "
            f"nests={len(self.nests)}, accesses={self.total_accesses()})"
        )
