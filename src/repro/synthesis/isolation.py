"""Per-user isolation of program snippets (paper §6, compiler backend).

Two mechanisms:

* **Memory isolation** — every state and temporary of a user snippet is
  renamed with the user's prefix (``mtb`` → ``kvs_0_mtb``) so snippets from
  different users never touch the same memory region.
* **Control-flow isolation** — a user-ID gate is prepended to the snippet so
  only that user's traffic (identified by the INC header's user/app id)
  executes the snippet.
"""

from __future__ import annotations

from typing import Tuple

from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import IRProgram

#: Header field carrying the user / application id in the INC header.
USER_ID_FIELD = "inc.user_id"


def user_gate_instruction(user_id: int, owner: str) -> Tuple[Instruction, str]:
    """Build the gate comparison for a user: ``gate = (inc.user_id == id)``.

    Returns the instruction and the name of the gate variable; every snippet
    instruction is then guarded by the gate (combined with its own guard).
    """
    gate_var = f"{owner}__gate"
    instr = Instruction(
        opcode=Opcode.CMP_EQ,
        dst=gate_var,
        operands=(USER_ID_FIELD, int(user_id)),
        width=1,
        owner=owner,
    )
    instr.annotations.add(owner)
    return instr, gate_var


def isolate_program(snippet: IRProgram, owner: str, user_id: int,
                    add_gate: bool = True) -> IRProgram:
    """Return an isolated copy of *snippet* for *owner*.

    The copy has all states and temporaries prefixed with ``owner`` and, when
    ``add_gate`` is True, a user-ID gate guarding every instruction that does
    not already have a guard (guarded instructions keep their own guard —
    their guard variable is itself gated transitively through renaming, and
    the gate is AND-ed in by the merge step for top-level instructions).
    *snippet* is only read: every instruction is copied once, renamed and
    re-owned in the same pass.
    """
    mapping = snippet.prefix_mapping(owner)
    result = IRProgram(snippet.name)
    for state in snippet.states.values():
        result.declare_state(state.renamed(mapping[state.name]))
    for fld in snippet.header_fields.values():
        result.declare_header_field(fld)
    gate_var = None
    if add_gate:
        gate_instr, gate_var = user_gate_instruction(user_id, owner)
        result.append(gate_instr)
    # every destination emitted so far: one AND per distinct guard
    emitted = {gate_var}
    for instr in snippet:
        clone = instr.rename_vars(mapping)
        # a snippet instruction keeps its previous owner as an annotation
        clone.annotations.add(
            clone.owner if clone.owner is not None else snippet.name)
        clone.owner = owner
        clone.annotations.add(owner)
        if gate_var is not None:
            if clone.guard is None:
                clone.guard = gate_var
            else:
                # combine the existing guard with the user gate:  g' = g & gate
                combined = f"{clone.guard}__gated"
                if combined not in emitted:
                    and_instr = Instruction(
                        opcode=Opcode.AND,
                        dst=combined,
                        operands=(clone.guard, gate_var),
                        width=1,
                        owner=owner,
                    )
                    and_instr.annotations.add(owner)
                    result.append(and_instr)
                    emitted.add(combined)
                clone.guard = combined
        result.append(clone)
        emitted.add(clone.dst)
    return result
