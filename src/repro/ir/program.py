"""IR program container.

An :class:`IRProgram` is an ordered list of :class:`~repro.ir.instructions.Instruction`
plus the persistent-state declarations and the header fields the program
parses.  IR programs are sequentially executed — there is no goto/jump — which
matches the single-pass pipeline constraint of programmable switches
(paper §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import IRError
from repro.ir.instructions import Instruction, Opcode, StateDecl


@dataclass
class HeaderField:
    """A packet-header field the program reads or writes.

    ``name`` is referenced from instructions as ``hdr.<name>``; ``width`` is
    the field's bit width.  Fields are grouped into a per-application INC
    header by the synthesis layer.
    """

    name: str
    width: int
    is_vector: bool = False
    length: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise IRError(f"header field {self.name!r} must have positive width")
        if self.length <= 0:
            raise IRError(f"header field {self.name!r} must have positive length")

    @property
    def total_bits(self) -> int:
        return self.width * self.length


class IRProgram:
    """Container for a platform-independent ClickINC IR program.

    Parameters
    ----------
    name:
        Program name; also used as the default owner annotation.
    instructions:
        Optional initial instruction sequence.
    states:
        Optional initial persistent state declarations.
    header_fields:
        Optional packet header fields used by the program.
    """

    def __init__(
        self,
        name: str,
        instructions: Optional[Iterable[Instruction]] = None,
        states: Optional[Iterable[StateDecl]] = None,
        header_fields: Optional[Iterable[HeaderField]] = None,
    ) -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._states: Dict[str, StateDecl] = {}
        self._header_fields: Dict[str, HeaderField] = {}
        self._next_uid = 0
        for state in states or ():
            self.declare_state(state)
        for fld in header_fields or ():
            self.declare_header_field(fld)
        for instr in instructions or ():
            self.append(instr)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def append(self, instr: Instruction) -> Instruction:
        """Append *instr*, assigning it a unique uid, and return it."""
        if instr.state is not None and instr.state not in self._states:
            raise IRError(
                f"instruction references undeclared state {instr.state!r} "
                f"in program {self.name!r}"
            )
        instr.uid = self._next_uid
        self._next_uid += 1
        if instr.owner is None:
            instr.owner = self.name
        instr.annotations.add(instr.owner)
        self._instructions.append(instr)
        return instr

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for instr in instructions:
            self.append(instr)

    def emit(self, opcode: Opcode, dst: Optional[str] = None, *operands, **kwargs) -> Instruction:
        """Convenience builder: create, append and return an instruction."""
        instr = Instruction(opcode=opcode, dst=dst, operands=tuple(operands), **kwargs)
        return self.append(instr)

    def declare_state(self, state: StateDecl) -> StateDecl:
        if state.name in self._states:
            raise IRError(f"duplicate state declaration {state.name!r}")
        if state.owner is None:
            state = StateDecl(
                name=state.name,
                kind=state.kind,
                rows=state.rows,
                size=state.size,
                width=state.width,
                key_width=state.key_width,
                owner=self.name,
            )
        self._states[state.name] = state
        return state

    def declare_header_field(self, fld: HeaderField) -> HeaderField:
        if fld.name in self._header_fields:
            existing = self._header_fields[fld.name]
            if existing.width != fld.width or existing.length != fld.length:
                raise IRError(
                    f"conflicting redeclaration of header field {fld.name!r}"
                )
            return existing
        self._header_fields[fld.name] = fld
        return fld

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    @property
    def states(self) -> Dict[str, StateDecl]:
        return dict(self._states)

    @property
    def header_fields(self) -> Dict[str, HeaderField]:
        return dict(self._header_fields)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def get_state(self, name: str) -> StateDecl:
        try:
            return self._states[name]
        except KeyError as exc:
            raise IRError(f"unknown state {name!r} in program {self.name!r}") from exc

    # ------------------------------------------------------------------ #
    # analysis helpers
    # ------------------------------------------------------------------ #
    def temporary_variables(self) -> frozenset:
        """Packet-lifetime variables (everything written that is not state)."""
        written = {instr.dst for instr in self._instructions if instr.dst}
        return frozenset(name for name in written if name not in self._states)

    def loc(self) -> int:
        """Lines of IR code — the instruction count (used in LoC benchmarks)."""
        return len(self._instructions)

    # ------------------------------------------------------------------ #
    # transformation helpers
    # ------------------------------------------------------------------ #
    def copy(self, new_name: Optional[str] = None) -> "IRProgram":
        """Deep-copy the program (instructions, states and header fields)."""
        clone = IRProgram(new_name or self.name)
        for state in self._states.values():
            clone.declare_state(state)
        for fld in self._header_fields.values():
            clone.declare_header_field(fld)
        for instr in self._instructions:
            clone.append(instr.copy())
        return clone

    def rebrand(self, new_name: str) -> "IRProgram":
        """Return a copy re-owned by *new_name*.

        Unlike :meth:`copy`, every owner annotation that pointed at the old
        program name — instruction owners/annotations and state owners — is
        rewritten to *new_name*.  This is how the artifact cache hands one
        compiled template out to many tenants: the instruction stream is
        shared content, the ownership metadata is per-tenant.
        """
        old_name = self.name
        clone = IRProgram(new_name)
        for state in self._states.values():
            if state.owner == old_name:
                state = replace(state, owner=new_name)
            clone.declare_state(state)
        for fld in self._header_fields.values():
            clone.declare_header_field(fld)
        for instr in self._instructions:
            # built in one step (not copy-then-patch): this runs on every
            # program-cache hit, once per instruction
            clone.append(Instruction(
                instr.opcode, instr.dst, instr.operands, instr.state,
                instr.guard, instr.guard_negated, instr.width,
                new_name if instr.owner == old_name else instr.owner,
                instr.uid,
                {new_name if a == old_name else a for a in instr.annotations},
            ))
        return clone

    def prefix_mapping(self, prefix: str) -> Dict[str, str]:
        """``name -> prefix_name`` for every state and temporary."""
        return {
            name: f"{prefix}_{name}"
            for names in (self._states, self.temporary_variables())
            for name in names
        }

    def renamed(self, prefix: str) -> "IRProgram":
        """Return a copy with every state and temporary prefixed by *prefix*.

        This is the isolation step of the synthesis layer (paper §6): each
        user's variables are rewritten (e.g. ``mtb`` → ``kvs_0_mtb``) so two
        programs never share a memory region after merging.
        """
        mapping = self.prefix_mapping(prefix)
        clone = IRProgram(self.name)
        for state in self._states.values():
            clone.declare_state(state.renamed(mapping[state.name]))
        for fld in self._header_fields.values():
            clone.declare_header_field(fld)
        for instr in self._instructions:
            clone.append(instr.rename_vars(mapping))
        return clone

    def pretty(self) -> str:
        """Human-readable multi-line dump of the program."""
        lines = [f"; IR program {self.name!r}"]
        for state in self._states.values():
            lines.append(
                f"decl {state.kind.value} {state.name} "
                f"rows={state.rows} size={state.size} width={state.width}"
            )
        for instr in self._instructions:
            lines.append(f"{instr.uid:4d}: {instr}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"IRProgram(name={self.name!r}, instructions={len(self)})"
