"""IR instruction set, operand model and device-capability classification.

The ClickINC IR (paper §4.2, Appendix A.4) is a flat, sequentially executed
instruction list without control-flow transfer: branches are lowered to
guarded (predicated) instructions by the frontend, and loops are unrolled.

Each instruction belongs to exactly one *capability class* (paper Table 9).
Devices declare the set of classes they support, which rules out impossible
placements before any resource accounting happens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.exceptions import IRError


class Opcode(str, enum.Enum):
    """Operation codes of the platform-independent IR.

    The set merges the per-platform functional units of paper Table 8 with
    the arithmetic / logic operations of the IR syntax (paper Fig. 17).
    """

    # -- arithmetic / logic on stateless operands ------------------------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    FADD = "fadd"          # floating point addition
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    SLICE = "slice"        # bit slicing
    MOV = "mov"            # register-to-register / immediate move
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    CMP_EQ = "cmp_eq"
    CMP_NE = "cmp_ne"
    SELECT = "select"      # ternary select: dst = pred ? a : b

    # -- stateful array / register operations ----------------------------
    REG_READ = "reg_read"
    REG_WRITE = "reg_write"
    REG_ADD = "reg_add"        # read-modify-write accumulate
    REG_CLEAR = "reg_clear"
    REG_DELETE = "reg_delete"

    # -- match tables ------------------------------------------------------
    EMT_LOOKUP = "emt_lookup"      # stateless exact-match table
    SEMT_LOOKUP = "semt_lookup"    # stateful exact-match table (data-plane write)
    SEMT_WRITE = "semt_write"
    TMT_LOOKUP = "tmt_lookup"      # ternary match
    STMT_LOOKUP = "stmt_lookup"    # stateful ternary match
    STMT_WRITE = "stmt_write"
    LPM_LOOKUP = "lpm_lookup"      # longest-prefix match
    DMT_LOOKUP = "dmt_lookup"      # direct (index) match

    # -- hashing / checksum / crypto --------------------------------------
    HASH_CRC = "hash_crc"
    HASH_IDENTITY = "hash_identity"
    CHECKSUM = "checksum"
    RANDINT = "randint"
    CRYPTO_AES = "crypto_aes"
    CRYPTO_ECS = "crypto_ecs"

    # -- packet-flow primitives -------------------------------------------
    DROP = "drop"
    FORWARD = "forward"
    SEND_BACK = "send_back"      # reflect packet to its sender
    COPY_TO = "copy_to"          # copy to CPU / control plane
    MIRROR = "mirror"
    MULTICAST = "multicast"

    # -- header / metadata ---------------------------------------------------
    HDR_READ = "hdr_read"
    HDR_WRITE = "hdr_write"
    HDR_INSERT = "hdr_insert"
    HDR_REMOVE = "hdr_remove"
    PARSE = "parse"

    # -- declaration pseudo-instructions -----------------------------------
    DECL_STATE = "decl_state"
    NOP = "nop"


class InstrClass(str, enum.Enum):
    """Device-capability class of an instruction (paper Table 9)."""

    BIN = "BIN"      # integer add/sub, bit & logic ops, slicing
    BIC = "BIC"      # integer multiply, divide, modulus
    BCA = "BCA"      # floating point and other complex arithmetic
    BSO = "BSO"      # stateful array (register) operations
    BEM = "BEM"      # stateless exact-match table
    BSEM = "BSEM"    # stateful exact-match table
    BNEM = "BNEM"    # ternary / LPM match table
    BSNEM = "BSNEM"  # stateful ternary / LPM match table
    BDM = "BDM"      # direct (index) match table
    BBPF = "BBPF"    # basic packet flow: drop, send, copy-to
    BAPF = "BAPF"    # advanced packet flow: mirror, multicast
    BAF = "BAF"      # auxiliary functions: hash, checksum, random
    BCF = "BCF"      # crypto functions
    META = "META"    # declarations, parsing, header access, nop


#: Mapping from opcode to its capability class.
_OPCODE_CLASS: dict[Opcode, InstrClass] = {
    Opcode.ADD: InstrClass.BIN,
    Opcode.SUB: InstrClass.BIN,
    Opcode.AND: InstrClass.BIN,
    Opcode.OR: InstrClass.BIN,
    Opcode.XOR: InstrClass.BIN,
    Opcode.NOT: InstrClass.BIN,
    Opcode.SHL: InstrClass.BIN,
    Opcode.SHR: InstrClass.BIN,
    Opcode.SLICE: InstrClass.BIN,
    Opcode.MOV: InstrClass.BIN,
    Opcode.MIN: InstrClass.BIN,
    Opcode.MAX: InstrClass.BIN,
    Opcode.ABS: InstrClass.BIN,
    Opcode.CMP_LT: InstrClass.BIN,
    Opcode.CMP_LE: InstrClass.BIN,
    Opcode.CMP_GT: InstrClass.BIN,
    Opcode.CMP_GE: InstrClass.BIN,
    Opcode.CMP_EQ: InstrClass.BIN,
    Opcode.CMP_NE: InstrClass.BIN,
    Opcode.SELECT: InstrClass.BIN,
    Opcode.MUL: InstrClass.BIC,
    Opcode.DIV: InstrClass.BIC,
    Opcode.MOD: InstrClass.BIC,
    Opcode.FADD: InstrClass.BCA,
    Opcode.FSUB: InstrClass.BCA,
    Opcode.FMUL: InstrClass.BCA,
    Opcode.FDIV: InstrClass.BCA,
    Opcode.REG_READ: InstrClass.BSO,
    Opcode.REG_WRITE: InstrClass.BSO,
    Opcode.REG_ADD: InstrClass.BSO,
    Opcode.REG_CLEAR: InstrClass.BSO,
    Opcode.REG_DELETE: InstrClass.BSO,
    Opcode.EMT_LOOKUP: InstrClass.BEM,
    Opcode.SEMT_LOOKUP: InstrClass.BSEM,
    Opcode.SEMT_WRITE: InstrClass.BSEM,
    Opcode.TMT_LOOKUP: InstrClass.BNEM,
    Opcode.LPM_LOOKUP: InstrClass.BNEM,
    Opcode.STMT_LOOKUP: InstrClass.BSNEM,
    Opcode.STMT_WRITE: InstrClass.BSNEM,
    Opcode.DMT_LOOKUP: InstrClass.BDM,
    Opcode.HASH_CRC: InstrClass.BAF,
    Opcode.HASH_IDENTITY: InstrClass.BAF,
    Opcode.CHECKSUM: InstrClass.BAF,
    Opcode.RANDINT: InstrClass.BAF,
    Opcode.CRYPTO_AES: InstrClass.BCF,
    Opcode.CRYPTO_ECS: InstrClass.BCF,
    Opcode.DROP: InstrClass.BBPF,
    Opcode.FORWARD: InstrClass.BBPF,
    Opcode.SEND_BACK: InstrClass.BBPF,
    Opcode.COPY_TO: InstrClass.BBPF,
    Opcode.MIRROR: InstrClass.BAPF,
    Opcode.MULTICAST: InstrClass.BAPF,
    Opcode.HDR_READ: InstrClass.META,
    Opcode.HDR_WRITE: InstrClass.META,
    Opcode.HDR_INSERT: InstrClass.META,
    Opcode.HDR_REMOVE: InstrClass.META,
    Opcode.PARSE: InstrClass.META,
    Opcode.DECL_STATE: InstrClass.META,
    Opcode.NOP: InstrClass.META,
}

#: Opcodes whose class is "stateful" — they read or write persistent state.
STATEFUL_OPCODES: frozenset[Opcode] = frozenset(
    {
        Opcode.REG_READ,
        Opcode.REG_WRITE,
        Opcode.REG_ADD,
        Opcode.REG_CLEAR,
        Opcode.REG_DELETE,
        Opcode.SEMT_LOOKUP,
        Opcode.SEMT_WRITE,
        Opcode.STMT_LOOKUP,
        Opcode.STMT_WRITE,
    }
)

#: Opcodes that terminate or redirect a packet.
PACKET_FLOW_OPCODES: frozenset[Opcode] = frozenset(
    {
        Opcode.DROP,
        Opcode.FORWARD,
        Opcode.SEND_BACK,
        Opcode.COPY_TO,
        Opcode.MIRROR,
        Opcode.MULTICAST,
    }
)


def classify(opcode: Opcode) -> InstrClass:
    """Return the capability class of *opcode*.

    Raises :class:`~repro.exceptions.IRError` for unknown opcodes so that an
    incomplete mapping is caught during testing rather than silently treated
    as unconstrained.
    """
    try:
        return _OPCODE_CLASS[opcode]
    except KeyError as exc:  # pragma: no cover - defensive
        raise IRError(f"opcode {opcode!r} has no capability class") from exc


class StateKind(str, enum.Enum):
    """Kind of persistent state object a :class:`StateDecl` declares."""

    REGISTER_ARRAY = "register_array"   # stateful array / register file
    EXACT_TABLE = "exact_table"         # exact-match table
    TERNARY_TABLE = "ternary_table"     # ternary / LPM match table
    DIRECT_TABLE = "direct_table"       # index-addressed table
    COUNTER = "counter"
    METER = "meter"


@dataclass(frozen=True)
class StateDecl:
    """Declaration of a persistent (inter-packet) state object.

    Attributes
    ----------
    name:
        Globally unique variable name (after per-user renaming).
    kind:
        What hardware structure backs the state.
    rows:
        Number of parallel arrays/tables (e.g. 3 for a 3-row count-min sketch).
    size:
        Entries per row.
    width:
        Bit width of each entry value.
    key_width:
        Bit width of the match key (match tables only).
    owner:
        Annotation of the owning user program (used by synthesis/isolation).
    """

    name: str
    kind: StateKind
    rows: int = 1
    size: int = 1
    width: int = 32
    key_width: int = 0
    owner: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.size <= 0 or self.width <= 0:
            raise IRError(
                f"state {self.name!r}: rows/size/width must be positive "
                f"(got rows={self.rows}, size={self.size}, width={self.width})"
            )

    @property
    def total_bits(self) -> int:
        """Total storage requirement of this state object in bits."""
        return self.rows * self.size * (self.width + self.key_width)

    def renamed(self, new_name: str) -> "StateDecl":
        """Return a copy with a different name (used for user isolation)."""
        return replace(self, name=new_name)


@dataclass
class Instruction:
    """A single IR instruction.

    IR instructions are executed sequentially.  Conditionals are expressed via
    the optional ``guard``: the instruction only takes effect when the guard
    variable evaluates to a truthy value at runtime (the frontend lowers
    ``if c: x = e`` into a comparison producing ``c`` plus a guarded
    assignment).

    Attributes
    ----------
    opcode:
        The operation to perform.
    dst:
        Destination variable name (``None`` for pure side-effect opcodes such
        as ``drop``).
    operands:
        Source operand names or integer/float immediates.
    state:
        Name of the persistent state object read/written, if any.
    guard:
        Name of the predicate variable guarding this instruction, if any.
    guard_negated:
        When True the instruction executes only if the guard is falsy.
    width:
        Bit width of the destination value.
    owner:
        User-program annotation (set by synthesis for incremental removal).
    uid:
        Stable per-program instruction id assigned by :class:`IRProgram`.
    """

    opcode: Opcode
    dst: Optional[str] = None
    operands: Tuple[object, ...] = ()
    state: Optional[str] = None
    guard: Optional[str] = None
    guard_negated: bool = False
    width: int = 32
    owner: Optional[str] = None
    uid: int = -1
    annotations: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if not isinstance(self.opcode, Opcode):
            raise IRError(f"opcode must be an Opcode, got {self.opcode!r}")
        self.operands = tuple(self.operands)

    # -- classification helpers -------------------------------------------
    @property
    def instr_class(self) -> InstrClass:
        """Capability class of this instruction (paper Table 9)."""
        return classify(self.opcode)

    @property
    def is_stateful(self) -> bool:
        """True if the instruction touches persistent (inter-packet) state."""
        return self.opcode in STATEFUL_OPCODES

    # -- dataflow helpers ----------------------------------------------------
    def reads(self) -> Tuple[str, ...]:
        """Variable names read by this instruction (operands + guard)."""
        names = [op for op in self.operands if isinstance(op, str)]
        if self.guard is not None:
            names.append(self.guard)
        return tuple(names)

    def writes(self) -> Tuple[str, ...]:
        """Variable names written by this instruction."""
        return (self.dst,) if self.dst is not None else ()

    def copy(self) -> "Instruction":
        """Return an independent copy of this instruction."""
        return Instruction(
            opcode=self.opcode,
            dst=self.dst,
            operands=tuple(self.operands),
            state=self.state,
            guard=self.guard,
            guard_negated=self.guard_negated,
            width=self.width,
            owner=self.owner,
            uid=self.uid,
            annotations=set(self.annotations),
        )

    def rename_vars(self, mapping: dict) -> "Instruction":
        """Return a copy with variable names substituted per *mapping*.

        Both operands, destination, guard and state references are renamed.
        Names missing from *mapping* are kept as-is.
        """
        clone = self.copy()
        clone.dst = mapping.get(self.dst, self.dst) if self.dst else self.dst
        clone.operands = tuple(
            mapping.get(op, op) if isinstance(op, str) else op for op in self.operands
        )
        clone.guard = mapping.get(self.guard, self.guard) if self.guard else self.guard
        clone.state = mapping.get(self.state, self.state) if self.state else self.state
        return clone

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        parts = []
        if self.guard is not None:
            neg = "!" if self.guard_negated else ""
            parts.append(f"[{neg}{self.guard}]")
        if self.dst is not None:
            parts.append(f"{self.dst} =")
        parts.append(self.opcode.value)
        if self.state is not None:
            parts.append(f"@{self.state}")
        if self.operands:
            parts.append(", ".join(str(op) for op in self.operands))
        return " ".join(parts)


def resource_footprint(instr: Instruction) -> dict:
    """Coarse per-instruction resource demand used by placement.

    Returns a dict with keys understood by the device models:
    ``alu`` (stateless ALUs), ``salu`` (stateful ALUs), ``hash`` (hash units),
    ``tcam_bits``, ``sram_bits``, ``gateway`` (predicate resources),
    ``dsp`` (complex arithmetic units).
    """
    cls = instr.instr_class
    demand = {
        "alu": 0,
        "salu": 0,
        "hash": 0,
        "tcam_bits": 0,
        "sram_bits": 0,
        "gateway": 1 if instr.guard is not None else 0,
        "dsp": 0,
    }
    if cls in (InstrClass.BIN, InstrClass.BIC):
        demand["alu"] = 1
        if cls is InstrClass.BIC:
            demand["dsp"] = 1
    elif cls is InstrClass.BCA:
        demand["dsp"] = 2
    elif cls is InstrClass.BSO:
        demand["salu"] = 1
    elif cls in (InstrClass.BEM, InstrClass.BSEM, InstrClass.BDM):
        demand["sram_bits"] = instr.width
        demand["hash"] = 1
    elif cls in (InstrClass.BNEM, InstrClass.BSNEM):
        demand["tcam_bits"] = instr.width
    elif cls is InstrClass.BAF:
        demand["hash"] = 1
    elif cls is InstrClass.BCF:
        demand["dsp"] = 4
    return demand
