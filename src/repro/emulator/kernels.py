"""Compiled packet kernels: batched, vectorized execution of IR snippets.

The scalar :class:`~repro.emulator.interpreter.DeviceRuntime` executes one
instruction on one packet at a time.  This module compiles an IR snippet into
a *kernel* that executes the same instruction list over a whole column-major
packet batch with numpy: header and param fields become arrays, exact tables
become vectorized dictionary lookups, guards become boolean masks, and the
packet-flow primitives (drop/forward/reflect/mirror/copy-to-CPU) become
per-row outcome bits.

State residency
---------------
Register state is not checked out per ``run_batch`` and flushed back: each
register array is one :class:`~repro.emulator.state.RegisterFile` that lives
in ``StateStore.registers`` and that the scalar interpreter and these kernels
share.  The first kernel to touch a file promotes it from its dict to
``(rows, size)`` columns, once; from then on kernels gather from and scatter
into ``file.cells`` / ``file.present`` in place, so a batch costs O(packets),
not O(cells the device remembers).  Tables are written through to the live
dict.  Because writes land immediately, every owner group runs inside an
:class:`UndoScope` — a column checkpoint per written file plus a
``(key, previous)`` journal per table write — which a bail rolls back before
the rows re-route through the scalar interpreter.

Exactness contract
------------------
A kernel is only used when its results are **bit-identical** to running the
scalar interpreter over the batch in stream order.  Vectorized execution is
instruction-major, which is only equivalent to the scalar packet-major order
when no packet reads state written by an earlier packet *of the same slice*.
The planner therefore partitions each batch into slices that are provably
conflict-free and runs them sequentially, choosing between two schedules:

* **Wave scheduling** — when every stateful access in the snippet indexes its
  state by one common pure column (e.g. MLAgg's ``crc(seq)`` slot, DQAcc's
  ``crc(value)`` slot), packets with different index values touch disjoint
  cells.  Wave *w* holds the *w*-th occurrence of every index value, so each
  wave touches each cell at most once while preserving stream order within a
  cell's group.
* **Contiguous segmentation** — otherwise, a segment is the longest prefix of
  the remaining stream whose tracked (state, cell) read/write sets do not
  conflict.  Guard *upper bounds* derived from the pure instruction prefix
  keep segments long (a KVS cache write only conflicts when the packet really
  is an UPDATE).  Two exemption classes avoid tracking entirely:
  accumulate-only states (``REG_ADD`` + later ``REG_READ``, e.g. sketch
  counters) are handled with an exact in-slice prefix-sum over pending add
  records, and constant-write-only states (e.g. Bloom-filter bits that only
  ever store ``1``) commute trivially.

Anything the compiler or planner cannot prove exact — unsupported opcodes
(``HDR_REMOVE``), vector header writes, ragged columns, impure tracked
indices, kind changes under a guard — makes the kernel (or the batch) fall
back to the scalar interpreter, which is trivially bit-identical.  The
differential tests in ``tests/test_dataplane_differential.py`` enforce the
contract end to end.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.emulator.state import RegisterFile
from repro.ir.instructions import Instruction, Opcode, StateKind
from repro.ir.program import IRProgram

MISS = -1

_TABLE_KINDS = (StateKind.EXACT_TABLE, StateKind.TERNARY_TABLE,
                StateKind.DIRECT_TABLE)
_LOOKUP_OPS = (Opcode.EMT_LOOKUP, Opcode.SEMT_LOOKUP, Opcode.TMT_LOOKUP,
               Opcode.STMT_LOOKUP, Opcode.LPM_LOOKUP, Opcode.DMT_LOOKUP)
_TABLE_WRITE_OPS = (Opcode.SEMT_WRITE, Opcode.STMT_WRITE)
_CMP_OPS = (Opcode.CMP_LT, Opcode.CMP_LE, Opcode.CMP_GT, Opcode.CMP_GE,
            Opcode.CMP_EQ, Opcode.CMP_NE)
_PASS_OPS = (Opcode.NOP, Opcode.DECL_STATE, Opcode.PARSE, Opcode.HDR_INSERT)


class VectorBail(Exception):
    """Raised when a batch turns out to be non-vectorizable at runtime.

    The caller rolls back the owner's :class:`UndoScope` and re-routes the
    owner's rows through the scalar interpreter from the pre-batch state.
    """


# --------------------------------------------------------------------------- #
# vectorized CRC
# --------------------------------------------------------------------------- #
_CRC_MEMO: Dict[Tuple[int, int], Dict[int, int]] = {}
_CRC_MEMO_CELL_LIMIT = 1 << 20


def _crc_column(values: np.ndarray, modulus: int, salt: int) -> np.ndarray:
    """``crc_hash`` over a column, memoized per (modulus, salt)."""
    memo = _CRC_MEMO.setdefault((modulus, salt), {})
    uniq, inverse = np.unique(values, return_inverse=True)
    out = np.empty(len(uniq), dtype=np.int64)
    for i, v in enumerate(uniq):
        key = int(v)
        hit = memo.get(key)
        if hit is None:
            hit = zlib.crc32(f"{salt}:{key}".encode()) % max(1, modulus)
            memo[key] = hit
        out[i] = hit
    if sum(len(m) for m in _CRC_MEMO.values()) > _CRC_MEMO_CELL_LIMIT:
        _CRC_MEMO.clear()
    return out[inverse]


def snippet_digest(snippet: IRProgram) -> str:
    """Content digest of a snippet — the compiled-kernel cache key."""
    h = hashlib.sha1()
    h.update(snippet.pretty().encode())
    for name in sorted(snippet.states):
        decl = snippet.states[name]
        h.update(f"|{name}:{decl.kind.value}:{decl.rows}:{decl.size}".encode())
    for fname in sorted(snippet.header_fields):
        h.update(f"|hdr:{fname}".encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# columnar packet batches
# --------------------------------------------------------------------------- #
class BatchColumns:
    """Column-major view of one packet batch's headers and INC params."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.fields: Dict[str, np.ndarray] = {}
        self.params: Dict[str, np.ndarray] = {}
        self.params_present: Dict[str, np.ndarray] = {}
        self.packet_ids = np.zeros(n, dtype=np.int64)
        #: per-row write masks for columns some kernel actually wrote —
        #: untouched columns (and untouched rows of written columns) still
        #: match the source packets, so materialization can skip them
        self.dirty_fields: Dict[str, np.ndarray] = {}
        self.dirty_params: Dict[str, np.ndarray] = {}

    @classmethod
    def from_packets(cls, packets: Sequence) -> Optional["BatchColumns"]:
        """Build columns; ``None`` when the batch is not homogeneous."""
        if not packets:
            return None
        cols = cls(len(packets))
        names = list(packets[0].fields)
        if any(list(p.fields) != names for p in packets):
            return None
        for name in names:
            col = _column_from_values([p.fields[name] for p in packets])
            if col is None:
                return None
            cols.fields[name] = col
        param_names: Dict[str, None] = {}
        for p in packets:
            for k in p.inc.params:
                param_names[k] = None
        for name in param_names:
            values, present = [], []
            for p in packets:
                if name in p.inc.params:
                    values.append(p.inc.params[name])
                    present.append(True)
                else:
                    values.append(0)
                    present.append(False)
            col = _column_from_values(values, pad_missing=True)
            if col is None:
                return None
            cols.params[name] = col
            cols.params_present[name] = np.asarray(present, dtype=bool)
        cols.packet_ids = np.asarray([p.packet_id for p in packets],
                                     dtype=np.int64)
        return cols

    def kind_of(self, col: np.ndarray) -> Tuple:
        return _kind_of(col)


def _column_from_values(values: List, pad_missing: bool = False):
    """Lower python field values into one homogeneous ndarray column."""
    first = next((v for v in values if isinstance(v, list)), None)
    if first is None:
        ok = all(isinstance(v, (int, float, bool)) and not isinstance(v, float)
                 or isinstance(v, float) for v in values)
        if not ok:
            return None
        if any(isinstance(v, float) for v in values):
            return np.asarray(values, dtype=np.float64)
        if any(abs(int(v)) > (1 << 62) for v in values):
            return None
        return np.asarray(values, dtype=np.int64)
    width = len(first)
    rows = []
    zeros = [0] * width
    for v in values:
        if isinstance(v, list):
            if len(v) != width:
                return None
            rows.append(v)
        elif pad_missing and v == 0:
            rows.append(zeros)
        else:
            return None
    # let numpy type-check the elements: ragged input raises, floats or
    # out-of-int64 python ints surface as a non-integer dtype
    try:
        col = np.asarray(rows)
    except (ValueError, OverflowError):
        return None
    if col.ndim != 2 or col.dtype.kind not in ("i", "b"):
        return None
    col = col.astype(np.int64, copy=False)
    if col.size and np.abs(col).max() > (1 << 62):
        return None
    return col


def _kind_of(col: np.ndarray) -> Tuple:
    if col.ndim == 2:
        return ("v", col.shape[1])
    return ("f",) if col.dtype == np.float64 else ("s",)


# --------------------------------------------------------------------------- #
# in-place state access
# --------------------------------------------------------------------------- #
def _columns(runtime, name: str) -> RegisterFile:
    """Register state *name* of *runtime*, in columns (promoted on demand)."""
    file = runtime.state.register_file(name)
    if not file.promote():
        raise VectorBail(f"register state {name} cannot be held in columns")
    return file


def _grow(file: RegisterFile, rows: int, size: int) -> None:
    if not file.ensure(rows, size):
        raise VectorBail("register growth exceeds the column cap")


_ABSENT = object()


class UndoScope:
    """What one owner group's kernels wrote in place during one batch.

    Kernels write device state directly, so a bail after the first write has
    to put it back: the first write to a register file in the scope
    checkpoints its columns (two memcpys, independent of how many cells are
    live), and every table write journals ``(key, previous value)``.
    :meth:`rollback` restores both; :meth:`commit` drops them.
    """

    def __init__(self) -> None:
        self._files: Dict[int, Tuple[RegisterFile, tuple]] = {}
        self._table_writes: List[Tuple[Dict[int, int], int, object]] = []

    def writable(self, runtime, name: str) -> RegisterFile:
        file = _columns(runtime, name)
        if id(file) not in self._files:
            self._files[id(file)] = (file, file.checkpoint())
        return file

    def table_write(self, table: Dict[int, int], key: int, value: int) -> None:
        self._table_writes.append((table, key, table.get(key, _ABSENT)))
        table[key] = value

    def rollback(self) -> None:
        for file, checkpoint in self._files.values():
            file.rollback(checkpoint)
        for table, key, previous in reversed(self._table_writes):
            if previous is _ABSENT:
                del table[key]
            else:
                table[key] = previous

    def commit(self) -> None:
        for file, _ in self._files.values():
            file.enforce_value_limit()


# --------------------------------------------------------------------------- #
# compiled kernels
# --------------------------------------------------------------------------- #
@dataclass
class KernelResult:
    """Per-row outcome of one kernel call (one snippet over a row set)."""

    executed: np.ndarray
    dropped: np.ndarray
    forwarded: np.ndarray
    reflected: np.ndarray
    mirrored: np.ndarray
    copied_to_cpu: np.ndarray

@dataclass
class _Access:
    """One stateful instruction, summarized for the scheduler."""

    pos: int
    step: "_Step"
    state: str
    is_table: bool
    writes: bool
    index_op: Optional[tuple]      # operand descriptor; None = wildcard clear
    row_const: Optional[int]       # None when absent or non-const
    row_is_const: bool


@dataclass
class _Step:
    """One lowered instruction."""

    pos: int
    instr: Instruction
    opcode: Opcode
    dst: Optional[str]
    ops: List[tuple]
    guard: Optional[str]
    guard_negated: bool
    state: Optional[str]
    prefix: bool = False           # executable once, batch-wide (pure)


def _describe_operand(op) -> tuple:
    if isinstance(op, bool):
        return ("imm", int(op))
    if isinstance(op, (int, float)):
        return ("imm", op)
    if not isinstance(op, str):
        return ("imm", 0)
    if op.startswith("const."):
        return ("zero",)
    if op.startswith("hdr."):
        spec = op[4:]
        if "[" in spec:
            base, index_text = spec.split("[", 1)
            return ("hdr", base, int(index_text.rstrip("]")))
        return ("hdr", spec, None)
    # meta.* and plain temporaries share the env namespace (env is seeded
    # from params, which is exactly the scalar interpreter's fallback chain)
    return ("var", op)


class CompiledKernel:
    """An IR snippet lowered to columnar numpy execution."""

    def __init__(self, snippet: IRProgram) -> None:
        self.snippet = snippet
        self.digest = snippet_digest(snippet)
        self.decls = dict(snippet.states)
        self.state_names = set(self.decls)
        self.vectorized = True
        self.reason = ""
        self.steps: List[_Step] = []
        self.accesses: List[_Access] = []
        self._def_count: Dict[str, int] = {}
        self._def_site: Dict[str, _Step] = {}
        self._pure_vars: set = set()
        self._plans: Dict[tuple, Optional[dict]] = {}
        self._compile()

    # -- static compilation ------------------------------------------------ #
    def _fail(self, reason: str) -> None:
        self.vectorized = False
        self.reason = self.reason or reason

    def _compile(self) -> None:
        instrs = list(self.snippet)
        for pos, instr in enumerate(instrs):
            step = _Step(
                pos=pos,
                instr=instr,
                opcode=instr.opcode,
                dst=instr.dst,
                ops=[_describe_operand(o) for o in instr.operands],
                guard=instr.guard,
                guard_negated=instr.guard_negated,
                state=instr.state,
            )
            self.steps.append(step)
            if instr.dst is not None:
                self._def_count[instr.dst] = self._def_count.get(instr.dst, 0) + 1
                self._def_site.setdefault(instr.dst, step)
            if not self._check_supported(step):
                return
        # a read before the variable's own (later) definition would observe
        # the hoisted prefix value instead of the param/zero seed
        defined: set = set()
        for step in self.steps:
            reads = [d[1] for d in step.ops if d[0] == "var"]
            if step.guard is not None:
                reads.append(step.guard)
            for name in reads:
                if name in self._def_count and name not in defined:
                    self._fail(f"use of {name} before its definition")
                    return
            if step.dst is not None:
                defined.add(step.dst)
        self._classify_purity()
        self._collect_accesses()
        self._classify_exemptions()

    def _check_supported(self, step: _Step) -> bool:
        op = step.opcode
        if op is Opcode.HDR_REMOVE:
            self._fail("hdr_remove mutates vector layout")
            return False
        if op in (Opcode.SHL, Opcode.SHR):
            if not (len(step.ops) > 1 and step.ops[1][0] == "imm"
                    and 0 <= int(step.ops[1][1]) < 63):
                self._fail("variable or wide shift")
                return False
        if op is Opcode.SLICE:
            for extra in step.ops[1:]:
                if extra[0] != "imm":
                    self._fail("non-constant slice bounds")
                    return False
        if op is Opcode.NOT and step.instr.width > 62:
            self._fail("NOT wider than the int64 mirror")
            return False
        two_op = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.FADD,
                  Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.MOD,
                  Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
                  Opcode.MIN, Opcode.MAX}
        two_op.update(_CMP_OPS)
        if op in two_op and len(step.ops) < 2:
            self._fail(f"{op.value} needs two operands")
            return False
        if op in (Opcode.NOT, Opcode.ABS) and not step.ops:
            self._fail(f"{op.value} needs an operand")
            return False
        if op is Opcode.SELECT and len(step.ops) < 3:
            self._fail("select needs three operands")
            return False
        if op is Opcode.HASH_CRC:
            for extra in step.ops[1:]:
                if extra[0] != "imm":
                    self._fail("non-constant hash modulus/salt")
                    return False
        if op is Opcode.HDR_WRITE:
            if len(step.instr.operands) != 2:
                self._fail("indexed header write aliases vectors")
                return False
            target = step.instr.operands[0]
            if not (isinstance(target, str) and target.startswith("hdr.")
                    and "[" not in target):
                self._fail("unsupported header-write target")
                return False
        known = {
            Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.FADD,
            Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.MOD, Opcode.AND,
            Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR,
            Opcode.SLICE, Opcode.MOV, Opcode.MIN, Opcode.MAX, Opcode.ABS,
            Opcode.SELECT, Opcode.HASH_CRC, Opcode.HASH_IDENTITY,
            Opcode.CHECKSUM, Opcode.RANDINT, Opcode.CRYPTO_AES,
            Opcode.CRYPTO_ECS, Opcode.REG_READ, Opcode.REG_WRITE,
            Opcode.REG_ADD, Opcode.REG_CLEAR, Opcode.REG_DELETE,
            Opcode.DROP, Opcode.FORWARD, Opcode.SEND_BACK, Opcode.MIRROR,
            Opcode.MULTICAST, Opcode.COPY_TO, Opcode.HDR_WRITE,
            Opcode.HDR_READ,
        }
        known.update(_CMP_OPS)
        known.update(_LOOKUP_OPS)
        known.update(_TABLE_WRITE_OPS)
        known.update(_PASS_OPS)
        if op not in known:
            self._fail(f"unsupported opcode {op.value}")
            return False
        return True

    def _classify_purity(self) -> None:
        """Pure = computable from batch inputs without device state.

        A pure, single-def instruction at a position where liveness is still
        pure can be hoisted into the batch-wide prefix pass; everything else
        replays per slice.
        """
        pure = self._pure_vars
        alive_pure = True
        stateless = {
            Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.FADD,
            Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.MOD, Opcode.AND,
            Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR,
            Opcode.SLICE, Opcode.MOV, Opcode.MIN, Opcode.MAX, Opcode.ABS,
            Opcode.SELECT, Opcode.HASH_CRC, Opcode.HASH_IDENTITY,
            Opcode.CHECKSUM, Opcode.RANDINT, Opcode.CRYPTO_AES,
            Opcode.CRYPTO_ECS, Opcode.HDR_READ,
        }
        stateless.update(_CMP_OPS)
        flow = {Opcode.DROP, Opcode.FORWARD, Opcode.SEND_BACK, Opcode.MIRROR,
                Opcode.MULTICAST}
        written_fields = {
            s.instr.operands[0][4:]
            for s in self.steps if s.opcode is Opcode.HDR_WRITE
        }

        def op_pure(desc: tuple) -> bool:
            if desc[0] in ("imm", "zero"):
                return True
            if desc[0] == "hdr":
                return desc[1] not in written_fields
            return desc[1] in pure

        for step in self.steps:
            guard_pure = step.guard is None or step.guard in pure
            ops_pure = all(op_pure(d) for d in step.ops)
            if step.opcode in stateless and step.dst is not None:
                if (guard_pure and ops_pure and alive_pure
                        and self._def_count.get(step.dst, 0) == 1):
                    pure.add(step.dst)
                    step.prefix = True
            elif step.opcode in flow and guard_pure and alive_pure:
                step.prefix = True
            elif step.opcode in _PASS_OPS:
                step.prefix = True
            if step.opcode is Opcode.DROP and not (guard_pure and alive_pure):
                alive_pure = False

    def _collect_accesses(self) -> None:
        for step in self.steps:
            op = step.opcode
            state = step.state
            if op in (Opcode.REG_READ, Opcode.REG_WRITE, Opcode.REG_ADD,
                      Opcode.REG_CLEAR, Opcode.REG_DELETE):
                index_op = step.ops[0] if step.ops else ("imm", 0)
                if op in (Opcode.REG_CLEAR, Opcode.REG_DELETE) and not step.ops:
                    index_op = None        # wildcard: clears the whole state
                row_op = None
                if op is Opcode.REG_READ and len(step.ops) > 1:
                    row_op = step.ops[1]
                elif op is Opcode.REG_WRITE and len(step.ops) > 2:
                    row_op = step.ops[2]
                elif op is Opcode.REG_ADD and len(step.ops) > 2:
                    row_op = step.ops[2]
                row_is_const = row_op is None or row_op[0] == "imm"
                self.accesses.append(_Access(
                    pos=step.pos, step=step, state=state, is_table=False,
                    writes=op is not Opcode.REG_READ, index_op=index_op,
                    row_const=(int(row_op[1]) if row_op and row_op[0] == "imm"
                               else (0 if row_op is None else None)),
                    row_is_const=row_is_const,
                ))
            elif op in _LOOKUP_OPS:
                self.accesses.append(_Access(
                    pos=step.pos, step=step, state=state, is_table=True,
                    writes=False, index_op=step.ops[0] if step.ops else ("imm", 0),
                    row_const=0, row_is_const=True,
                ))
            elif op in _TABLE_WRITE_OPS:
                self.accesses.append(_Access(
                    pos=step.pos, step=step, state=state, is_table=True,
                    writes=True, index_op=step.ops[0] if step.ops else ("imm", 0),
                    row_const=0, row_is_const=True,
                ))
            elif op is Opcode.COPY_TO:
                raw = step.instr.operands[0] if step.instr.operands else None
                if isinstance(raw, str) and raw.startswith("const.update:"):
                    table = raw.split(":", 1)[1]
                    self.accesses.append(_Access(
                        pos=step.pos, step=step, state=table, is_table=True,
                        writes=True,
                        index_op=step.ops[1] if len(step.ops) > 1 else ("imm", 0),
                        row_const=0, row_is_const=True,
                    ))

    def _classify_exemptions(self) -> None:
        """Accumulate-only and constant-write-only states skip tracking."""
        self.exempt: Dict[str, str] = {}
        by_state: Dict[str, List[_Access]] = {}
        for acc in self.accesses:
            by_state.setdefault(acc.state, []).append(acc)
        for state, accs in by_state.items():
            if any(a.is_table for a in accs):
                continue
            kinds = {a.step.opcode for a in accs}
            if kinds <= {Opcode.REG_ADD, Opcode.REG_READ}:
                adds = [a for a in accs if a.step.opcode is Opcode.REG_ADD]
                reads = [a for a in accs if a.step.opcode is Opcode.REG_READ]
                decl = self.decls.get(state)
                rows1 = decl is not None and decl.rows == 1
                add_rows = [a.row_const for a in adds]
                reads_cellular = all(
                    (len(a.step.ops) > 1 and a.row_is_const) or rows1
                    for a in reads
                )
                adds_before_reads = (not reads or not adds or
                                     max(a.pos for a in adds)
                                     < min(a.pos for a in reads))
                # distinct constant rows make the add records' cell sets
                # disjoint, which the in-slice prefix replay relies on
                rows_disjoint = (all(r is not None for r in add_rows)
                                 and len(set(add_rows)) == len(add_rows))
                if adds and reads_cellular and adds_before_reads and rows_disjoint:
                    self.exempt[state] = "add"
            elif kinds == {Opcode.REG_WRITE}:
                values = set()
                ok = True
                for a in accs:
                    step = a.step
                    val = step.ops[1] if len(step.ops) > 1 else ("imm", 1)
                    if val[0] != "imm" or not a.row_is_const:
                        ok = False
                        break
                    values.add(val[1])
                if ok and len(values) == 1:
                    self.exempt[state] = "const"

    # -- planning ---------------------------------------------------------- #
    def _signature(self, env_kinds: Dict[str, tuple],
                   field_kinds: Dict[str, tuple]) -> tuple:
        return (tuple(sorted(field_kinds.items())),
                tuple(sorted(env_kinds.items())))

    def plan(self, field_kinds: Dict[str, tuple],
             env_kinds: Dict[str, tuple]) -> Optional[dict]:
        """Infer column kinds per step; ``None`` = fall back for this batch."""
        sig = self._signature(env_kinds, field_kinds)
        hit = self._plans.get(sig, _MISSING)
        if hit is not _MISSING:
            return hit
        plan = self._infer_kinds(dict(field_kinds), dict(env_kinds))
        self._plans[sig] = plan
        return plan

    def _infer_kinds(self, field_kinds, env_kinds) -> Optional[dict]:
        kinds: Dict[int, tuple] = {}

        def op_kind(desc):
            if desc[0] in ("imm",):
                return ("f",) if isinstance(desc[1], float) else ("s",)
            if desc[0] == "zero":
                return ("s",)
            if desc[0] == "hdr":
                k = field_kinds.get(desc[1])
                if k is None:
                    return ("s",)        # absent header field reads as 0
                if desc[2] is not None:
                    return ("s",)
                return k
            return env_kinds.get(desc[1], ("s",))

        def scalarish(k):
            return k[0] in ("s", "f")

        for step in self.steps:
            op = step.opcode
            oks = [op_kind(d) for d in step.ops]
            dst_kind = ("s",)
            if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
                      Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                      Opcode.MIN, Opcode.MAX):
                a, b = oks[0], oks[1]
                if a[0] == "v" or b[0] == "v":
                    width = max(a[1] if a[0] == "v" else 0,
                                b[1] if b[0] == "v" else 0)
                    dst_kind = ("v", width)
                elif a[0] == "f" or b[0] == "f":
                    dst_kind = ("f",)
            elif op is Opcode.MOV:
                dst_kind = oks[0] if oks else ("s",)
            elif op is Opcode.SELECT:
                a, b = oks[1], oks[2]
                if a != b:
                    return None          # ragged/mixed select result
                dst_kind = a
            elif op is Opcode.HDR_READ:
                raw = step.instr.operands[0]
                base = raw[4:] if raw.startswith("hdr.") else raw
                k = field_kinds.get(base, ("s",))
                if k[0] == "v" and len(step.ops) > 1:
                    k = ("s",)
                dst_kind = k
            elif op is Opcode.REG_READ:
                decl = self.decls.get(step.state)
                if (len(step.ops) <= 1 and decl is not None and decl.rows > 1):
                    dst_kind = ("v", decl.rows)
            elif op is Opcode.MOD:
                if oks[0][0] == "v" or oks[1][0] == "v":
                    return None          # scalar MOD has no vector form
                if oks[0][0] == "f" or oks[1][0] == "f":
                    dst_kind = ("f",)
            if op is Opcode.HDR_WRITE:
                target = step.instr.operands[0][4:]
                k = field_kinds.get(target)
                if k is None or not scalarish(k):
                    return None          # new or vector header field
                if not scalarish(oks[-1]):
                    return None
                field_kinds[target] = oks[-1]
            if step.dst is not None:
                prev = env_kinds.get(step.dst)
                if prev is not None and prev != dst_kind:
                    return None          # kind change under masking
                env_kinds[step.dst] = dst_kind
                kinds[step.pos] = dst_kind
        return {"kinds": kinds, "field_kinds": field_kinds,
                "env_kinds": env_kinds}

    # -- execution --------------------------------------------------------- #
    def execute(self, runtime, cols: BatchColumns, rows: np.ndarray,
                undo: UndoScope, stats=None) -> Optional[KernelResult]:
        """Run the snippet over ``rows`` of the batch, or ``None`` to bail.

        Device state is written in place through *undo*.  A ``None`` return
        happens before this call wrote anything; after a :class:`VectorBail`
        the caller rolls *undo* back.  Either way the rows can then re-route
        through the scalar interpreter.
        """
        if not self.vectorized:
            return None
        field_kinds = {n: _kind_of(c) for n, c in cols.fields.items()}
        env_kinds = {n: _kind_of(c) for n, c in cols.params.items()}
        plan = self.plan(field_kinds, env_kinds)
        if plan is None:
            return None
        ctx = _Context(self, runtime, cols, rows, undo, plan)
        ctx.run_prefix()
        schedule = ctx.build_schedule()
        if schedule is None:
            return None
        if stats is not None:
            stats.increment("slices", len(schedule))
        for sl in schedule:
            ctx.run_slice(sl)
        ctx.scatter_back()
        return KernelResult(
            executed=ctx.executed, dropped=ctx.dropped, forwarded=ctx.forwarded,
            reflected=ctx.reflected, mirrored=ctx.mirrored,
            copied_to_cpu=ctx.copied,
        )


_MISSING = object()


# --------------------------------------------------------------------------- #
# kernel execution context
# --------------------------------------------------------------------------- #
class _Context:
    """Mutable columnar state of one kernel call (one snippet, one row set)."""

    def __init__(self, kernel: CompiledKernel, runtime, cols: BatchColumns,
                 rows: np.ndarray, undo: UndoScope, plan: dict) -> None:
        self.kernel = kernel
        self.runtime = runtime
        self.cols = cols
        self.rows = rows
        self.undo = undo
        self.plan = plan
        n = len(rows)
        self.n = n
        self.fields = {name: col[rows].copy() for name, col in cols.fields.items()}
        self.written_fields: set = set()
        self.written_field_rows: Dict[str, np.ndarray] = {}
        self.written_param_rows: Dict[str, np.ndarray] = {}
        self.env: Dict[str, np.ndarray] = {}
        self.env_present: Dict[str, np.ndarray] = {}
        for name, col in cols.params.items():
            present = cols.params_present[name][rows]
            sub = col[rows].copy()
            if sub.ndim == 2:
                sub[~present] = 0
            else:
                sub = np.where(present, sub, 0)
            self.env[name] = sub
            self.env_present[name] = present.copy()
        self.packet_ids = cols.packet_ids[rows]
        self.alive = np.ones(n, dtype=bool)
        self.executed = np.zeros(n, dtype=np.int64)
        self.dropped = np.zeros(n, dtype=bool)
        self.forwarded = np.zeros(n, dtype=bool)
        self.reflected = np.zeros(n, dtype=bool)
        self.mirrored = np.zeros(n, dtype=bool)
        self.copied = np.zeros(n, dtype=bool)
        self.pending: Dict[str, List[tuple]] = {}
        self._truthy_ub_memo: Dict[str, np.ndarray] = {}
        # active masks of prefix-hoisted DROPs, applied to `alive` when slice
        # execution reaches their program position (packets keep executing
        # the instructions *before* a later drop)
        self.prefix_drops: Dict[int, np.ndarray] = {}

    # -- operand / guard evaluation ---------------------------------------- #
    def _fetch(self, desc: tuple, sl) -> np.ndarray:
        kind = desc[0]
        if kind == "imm":
            return desc[1]
        if kind == "zero":
            return 0
        if kind == "hdr":
            col = self.fields.get(desc[1])
            if col is None:
                return 0
            if desc[2] is not None:
                if col.ndim == 2 and 0 <= desc[2] < col.shape[1]:
                    col = col[:, desc[2]]
                else:
                    return 0
            return col if sl is None else col[sl]
        col = self.env.get(desc[1])
        if col is None:
            return 0
        return col if sl is None else col[sl]

    def _size(self, sl) -> int:
        return self.n if sl is None else len(sl)

    def _active(self, step: _Step, sl) -> np.ndarray:
        alive = self.alive if sl is None else self.alive[sl]
        if step.guard is None:
            return alive.copy()
        g = _truthy(self._fetch(("var", step.guard), sl), self._size(sl))
        if step.guard_negated:
            g = ~g
        return g & alive

    def _store(self, step: _Step, value, active: np.ndarray, sl) -> None:
        if step.dst is None:
            return
        name = step.dst
        kind = self.plan["kinds"].get(step.pos, ("s",))
        value = _as_column(value, kind, self._size(sl))
        col = self.env.get(name)
        if col is not None and _kind_of(col) != kind:
            raise VectorBail(f"column kind change for {name}")
        if col is None:
            if kind[0] == "v":
                col = np.zeros((self.n, kind[1]), dtype=np.int64)
            elif kind[0] == "f":
                col = np.zeros(self.n, dtype=np.float64)
            else:
                col = np.zeros(self.n, dtype=np.int64)
            self.env[name] = col
            self.env_present.setdefault(name, np.zeros(self.n, dtype=bool))
        if active.all():
            # unmasked store: every row in the slice takes the new value
            if sl is None:
                shape = col.shape
                self.env[name] = np.array(
                    np.broadcast_to(value, shape), dtype=col.dtype)
            else:
                col[sl] = value
        else:
            view = col if sl is None else col[sl]
            if col.ndim == 2:
                out = np.where(active[:, None], value, view)
            else:
                out = np.where(active, value, view)
            if sl is None:
                self.env[name] = out
            else:
                col[sl] = out
        present = self.env_present.setdefault(name, np.zeros(self.n, dtype=bool))
        rowmask = self.written_param_rows.setdefault(
            name, np.zeros(self.n, dtype=bool))
        if sl is None:
            present |= active
            rowmask |= active
        else:
            present[sl] |= active
            rowmask[sl] |= active

    # -- prefix pass -------------------------------------------------------- #
    def run_prefix(self) -> None:
        """Execute the pure instruction prefix once, batch-wide.

        Uses a local liveness column so slice steps positioned *before* a
        pure drop still see the packet alive; the drop's effect is replayed
        at its own position during slice execution via ``prefix_drops``.
        """
        alive = np.ones(self.n, dtype=bool)
        flow = {Opcode.DROP, Opcode.FORWARD, Opcode.SEND_BACK, Opcode.MIRROR,
                Opcode.MULTICAST}
        for step in self.kernel.steps:
            if not step.prefix or step.opcode in _PASS_OPS:
                continue
            if step.guard is None:
                active = alive.copy()
            else:
                g = _truthy(self._fetch(("var", step.guard), None), self.n)
                if step.guard_negated:
                    g = ~g
                active = g & alive
            self.executed += active
            if step.opcode in flow:
                if step.opcode is Opcode.DROP:
                    self.dropped |= active
                    self.prefix_drops[step.pos] = active
                    alive &= ~active
                elif step.opcode is Opcode.FORWARD:
                    self.forwarded |= active
                elif step.opcode is Opcode.SEND_BACK:
                    self.reflected |= active
                else:
                    self.mirrored |= active
                continue
            self._exec_stateless(step, None, active)

    # -- scheduling --------------------------------------------------------- #
    def _truthy_ub(self, name: Optional[str], negated: bool) -> np.ndarray:
        """Upper bound of a guard's truthiness, from the pure prefix."""
        ones = np.ones(self.n, dtype=bool)
        if name is None:
            return ones
        if name in self.kernel._pure_vars:
            exact = _truthy(self.env.get(name, 0), self.n)
            return ~exact if negated else exact
        if self.kernel._def_count.get(name, 0) == 0:
            # never defined in this kernel: the value is the param seed (zero
            # when absent) for the whole call, so its truthiness is exact
            exact = _truthy(self.env.get(name, 0), self.n)
            return ~exact if negated else exact
        if negated:
            return ones
        memo = self._truthy_ub_memo.get(name)
        if memo is not None:
            return memo
        self._truthy_ub_memo[name] = ones   # cycle guard
        ub = ones
        if self.kernel._def_count.get(name, 0) == 1:
            d = self.kernel._def_site[name]
            if d.guard is not None and d.dst in self.cols.params:
                # the param seed can surface where the def is inactive
                ub = ones
            else:
                inner = ones
                if d.opcode is Opcode.AND and len(d.ops) == 2:
                    inner = (self._operand_ub(d.ops[0])
                             & self._operand_ub(d.ops[1]))
                elif d.opcode is Opcode.MOV and d.ops:
                    inner = self._operand_ub(d.ops[0])
                if d.guard is not None:
                    # single def + zero seed: truthy only where active
                    inner = inner & self._truthy_ub(d.guard, d.guard_negated)
                ub = inner
        self._truthy_ub_memo[name] = ub
        return ub

    def _operand_ub(self, desc: tuple) -> np.ndarray:
        if desc[0] == "imm":
            return np.full(self.n, bool(desc[1]), dtype=bool)
        if desc[0] == "zero":
            return np.zeros(self.n, dtype=bool)
        if desc[0] == "hdr":
            return _truthy(self._fetch(desc, None), self.n)
        return self._truthy_ub(desc[1], False)

    def _pure_index(self, desc: Optional[tuple]):
        """Index column when derivable from the pure prefix, else ``None``."""
        if desc is None:
            return None
        if desc[0] == "imm":
            return np.full(self.n, int(desc[1]), dtype=np.int64)
        if desc[0] == "zero":
            return np.zeros(self.n, dtype=np.int64)
        if desc[0] == "hdr":
            col = self._fetch(desc, None)
            if isinstance(col, np.ndarray) and col.ndim == 1 \
                    and col.dtype != np.float64:
                return col
            return None
        if desc[1] in self.kernel._pure_vars:
            col = self.env.get(desc[1])
            if col is not None and col.ndim == 1 and col.dtype != np.float64:
                return col
        return None

    def build_schedule(self) -> Optional[List[np.ndarray]]:
        accesses = self.kernel.accesses
        if not accesses:
            return [np.arange(self.n)]
        wave = self._wave_schedule(accesses)
        if wave is not None:
            return wave
        return self._segment_schedule(accesses)

    def _wave_schedule(self, accesses) -> Optional[List[np.ndarray]]:
        common = None
        for acc in accesses:
            col = self._pure_index(acc.index_op)
            if col is None:
                return None
            if common is None:
                common = col
            elif col is not common and not np.array_equal(col, common):
                return None
        # rows where no access can possibly fire are inert — they touch no
        # state, so any wave may hold them.  Rank them 0 and count cell
        # multiplicity among the possibly-active rows only.  Exempt states
        # replay in-slice pending adds in stream order, so their accesses
        # keep every row active (the conservative pre-filter behaviour).
        if any(self.kernel.exempt.get(acc.state) for acc in accesses):
            active = np.ones(self.n, dtype=bool)
        else:
            active = np.zeros(self.n, dtype=bool)
            for acc in accesses:
                active |= self._truthy_ub(acc.step.guard,
                                          acc.step.guard_negated)
        act_idx = np.flatnonzero(active)
        rank = np.zeros(self.n, dtype=np.int64)
        if act_idx.size:
            _, inverse = np.unique(common[act_idx], return_inverse=True)
            order = np.argsort(inverse, kind="stable")
            sorted_inv = inverse[order]
            boundaries = np.flatnonzero(np.diff(sorted_inv)) + 1
            starts = np.zeros(len(sorted_inv), dtype=np.int64)
            starts[boundaries] = boundaries
            starts = np.maximum.accumulate(starts)
            rank_sorted = np.arange(act_idx.size) - starts
            rank_act = np.empty(act_idx.size, dtype=np.int64)
            rank_act[order] = rank_sorted
            rank[act_idx] = rank_act
        waves = []
        for w in range(int(rank.max()) + 1 if self.n else 0):
            waves.append(np.flatnonzero(rank == w))
        return waves

    def _segment_schedule(self, accesses) -> Optional[List[np.ndarray]]:
        # a state with any non-constant row operand is tracked at index
        # granularity so its cell namespace stays comparable across accesses
        row_blind: set = set()
        for acc in accesses:
            if not (acc.row_is_const and acc.row_const is not None):
                row_blind.add(acc.state)
        tracked = []
        for acc in accesses:
            if self.kernel.exempt.get(acc.state):
                continue
            if acc.index_op is None:
                tracked.append((acc.state, True, None,
                                self._truthy_ub(acc.step.guard,
                                                acc.step.guard_negated)))
                continue
            idx = self._pure_index(acc.index_op)
            if idx is None:
                return None
            if acc.state in row_blind:
                cells = idx
            else:
                cells = idx + (int(acc.row_const) << 33)
            ub = self._truthy_ub(acc.step.guard, acc.step.guard_negated)
            tracked.append((acc.state, acc.writes, cells, ub))
        if not tracked:
            return [np.arange(self.n)]
        slices = []
        start = 0
        seen: Dict[tuple, bool] = {}
        state_touched: set = set()
        wiped: set = set()
        cell_lists = [
            (state, writes,
             cells.tolist() if cells is not None else None, ub.tolist())
            for state, writes, cells, ub in tracked
        ]
        for i in range(self.n):
            conflict = False
            for state, writes, cells, ub in cell_lists:
                if not ub[i]:
                    continue
                if state in wiped:
                    conflict = True
                    break
                if cells is None:
                    if state in state_touched:
                        conflict = True
                        break
                    continue
                prev = seen.get((state, cells[i]))
                if prev is not None and (writes or prev):
                    conflict = True
                    break
            if conflict:
                slices.append(np.arange(start, i))
                start = i
                seen.clear()
                state_touched.clear()
                wiped.clear()
            for state, writes, cells, ub in cell_lists:
                if not ub[i]:
                    continue
                state_touched.add(state)
                if cells is None:
                    wiped.add(state)
                else:
                    key = (state, cells[i])
                    if writes or not seen.get(key, False):
                        seen[key] = writes
        slices.append(np.arange(start, self.n))
        return [s for s in slices if len(s)]

    # -- slice execution ---------------------------------------------------- #
    def run_slice(self, sl: np.ndarray) -> None:
        for step in self.kernel.steps:
            if step.prefix or step.opcode in _PASS_OPS:
                if step.pos in self.prefix_drops:
                    self.alive[sl] &= ~self.prefix_drops[step.pos][sl]
                continue
            active = self._active(step, sl)
            self.executed[sl] += active
            self._exec_step(step, sl, active)
            if step.opcode is Opcode.DROP:
                self.alive[sl] &= ~active
        self._flush_pending(sl)

    def _flush_pending(self, sl: np.ndarray) -> None:
        for state, records in self.pending.items():
            file = self.undo.writable(self.runtime, state)
            for row, idx, eff, active in records:
                np.add.at(file.cells[row], idx, eff)
                file.present[row, idx[active]] = True
        self.pending.clear()

    # -- per-opcode execution ----------------------------------------------- #
    def _exec_step(self, step: _Step, sl, active: np.ndarray) -> None:
        op = step.opcode
        if op in (Opcode.REG_READ, Opcode.REG_WRITE, Opcode.REG_ADD,
                  Opcode.REG_CLEAR, Opcode.REG_DELETE):
            self._exec_register(step, sl, active)
        elif op in _LOOKUP_OPS:
            keys = _to_int_col(self._fetch(step.ops[0], sl)
                               if step.ops else 0, self._size(sl))
            table = self.runtime.state.tables.setdefault(step.state, {})
            self._store(step, _table_gather(table, keys), active, sl)
        elif op in _TABLE_WRITE_OPS:
            self._table_insert(step.state, step, sl, active, key_at=0, val_at=1)
        elif op is Opcode.COPY_TO:
            self.copied[sl] |= active
            raw = step.instr.operands[0] if step.instr.operands else None
            if isinstance(raw, str) and raw.startswith("const.update:"):
                table_name = raw.split(":", 1)[1]
                if table_name in self.runtime.state.tables:
                    self._table_insert(table_name, step, sl, active,
                                       key_at=1, val_at=2)
        elif op is Opcode.DROP:
            self.dropped[sl] |= active
        elif op is Opcode.FORWARD:
            self.forwarded[sl] |= active
        elif op is Opcode.SEND_BACK:
            self.reflected[sl] |= active
        elif op in (Opcode.MIRROR, Opcode.MULTICAST):
            self.mirrored[sl] |= active
        else:
            self._exec_stateless(step, sl, active)

    def _exec_stateless(self, step: _Step, sl, active: np.ndarray) -> None:
        op = step.opcode
        size = self._size(sl)
        ops = [self._fetch(d, sl) for d in step.ops]
        if op in (Opcode.ADD, Opcode.FADD):
            value = _vector_binop(ops[0], ops[1], lambda a, b: a + b)
        elif op in (Opcode.SUB, Opcode.FSUB):
            value = _vector_binop(ops[0], ops[1], lambda a, b: a - b)
        elif op in (Opcode.MUL, Opcode.FMUL):
            value = _vector_binop(ops[0], ops[1], lambda a, b: a * b)
        elif op in (Opcode.DIV, Opcode.FDIV):
            value = _vector_binop(ops[0], ops[1], _safe_floordiv)
        elif op is Opcode.MOD:
            a, b = _scalar_col(ops[0]), _scalar_col(ops[1])
            b_arr = np.asarray(b)
            value = np.where(b_arr != 0, np.mod(a, np.where(b_arr == 0, 1, b)), 0)
        elif op is Opcode.AND:
            value = _to_int_col(ops[0], size) & _to_int_col(ops[1], size)
        elif op is Opcode.OR:
            value = _to_int_col(ops[0], size) | _to_int_col(ops[1], size)
        elif op is Opcode.XOR:
            value = _to_int_col(ops[0], size) ^ _to_int_col(ops[1], size)
        elif op is Opcode.NOT:
            mask = (1 << step.instr.width) - 1
            value = ~_to_int_col(ops[0], size) & mask
        elif op is Opcode.SHL:
            value = _to_int_col(ops[0], size) << int(step.ops[1][1])
        elif op is Opcode.SHR:
            value = _to_int_col(ops[0], size) >> int(step.ops[1][1])
        elif op is Opcode.SLICE:
            value = _to_int_col(ops[0], size)
            low = int(step.ops[1][1]) if len(step.ops) > 1 else 0
            high = int(step.ops[2][1]) if len(step.ops) > 2 else step.instr.width
            if low >= 63 or high - low > 62:
                raise VectorBail("slice bounds exceed int64")
            value = (value >> low) & ((1 << max(1, high - low)) - 1)
        elif op is Opcode.MOV:
            value = ops[0] if ops else 0
            if isinstance(value, np.ndarray):
                value = value.copy()
        elif op is Opcode.MIN:
            value = _vector_binop(ops[0], ops[1], np.minimum)
        elif op is Opcode.MAX:
            value = _vector_binop(ops[0], ops[1], np.maximum)
        elif op is Opcode.ABS:
            value = np.abs(_to_int_col(ops[0], size))
        elif op is Opcode.SELECT:
            pred = _truthy(ops[0], size)
            a, b = ops[1], ops[2]
            a = _broadcast_like(a, b, size)
            b = _broadcast_like(b, a, size)
            if getattr(a, "ndim", 1) == 2:
                value = np.where(pred[:, None], a, b)
            else:
                value = np.where(pred, a, b)
        elif op in _CMP_OPS:
            a, b = _scalar_col(ops[0]), _scalar_col(ops[1])
            if op is Opcode.CMP_LT:
                value = (a < b)
            elif op is Opcode.CMP_LE:
                value = (a <= b)
            elif op is Opcode.CMP_GT:
                value = (a > b)
            elif op is Opcode.CMP_GE:
                value = (a >= b)
            elif op is Opcode.CMP_EQ:
                value = (a == b)
            else:
                value = (a != b)
            value = np.asarray(value).astype(np.int64)
        elif op in (Opcode.HASH_CRC, Opcode.HASH_IDENTITY):
            key = _to_int_col(ops[0] if ops else 0, size)
            modulus = int(step.ops[1][1]) if len(step.ops) > 1 else (1 << 16)
            salt = int(step.ops[2][1]) if len(step.ops) > 2 else 0
            key = np.broadcast_to(np.asarray(key, dtype=np.int64), (size,))
            if op is Opcode.HASH_IDENTITY:
                value = key % max(1, modulus)
            else:
                value = _crc_column(key, max(1, modulus), salt)
        elif op is Opcode.CHECKSUM:
            total = np.zeros(size, dtype=np.int64)
            for o in ops:
                total = total + _to_int_col(o, size)
            value = total & 0xFFFF
            value = np.where(value == 0, 1, value)
        elif op is Opcode.RANDINT:
            value = _crc_column(self.packet_ids if sl is None
                                else self.packet_ids[sl], 1 << 16, 7)
        elif op in (Opcode.CRYPTO_AES, Opcode.CRYPTO_ECS):
            value = _crc_column(
                np.broadcast_to(
                    np.asarray(_to_int_col(ops[0], size), dtype=np.int64),
                    (size,)),
                1 << 31, 99)
        elif op is Opcode.HDR_WRITE:
            target = step.instr.operands[0][4:]
            col = self.fields.get(target)
            if col is None or col.ndim != 1:
                raise VectorBail("header write to missing/vector field")
            value = np.broadcast_to(
                np.asarray(_scalar_col(ops[-1])), (self.n if sl is None
                                                   else len(sl),))
            view = col if sl is None else col[sl]
            out = np.where(active, value, view)
            if sl is None:
                self.fields[target] = out
            else:
                col[sl] = out
            self.written_fields.add(target)
            rowmask = self.written_field_rows.setdefault(
                target, np.zeros(self.n, dtype=bool))
            if sl is None:
                rowmask |= active
            else:
                rowmask[sl] |= active
            return
        elif op is Opcode.HDR_READ:
            raw = step.instr.operands[0]
            base = raw[4:] if raw.startswith("hdr.") else raw
            col = self.fields.get(base)
            if col is None:
                value = 0
            elif col.ndim == 2 and len(ops) > 1:
                idx = _to_int_col(ops[1], size)
                idx_arr = np.broadcast_to(np.asarray(idx, dtype=np.int64),
                                          (size,))
                safe = np.clip(idx_arr, 0, col.shape[1] - 1)
                view = col if sl is None else col[sl]
                value = np.where(
                    (idx_arr >= 0) & (idx_arr < col.shape[1]),
                    np.take_along_axis(view, safe[:, None], axis=1)[:, 0], 0)
            else:
                value = col if sl is None else col[sl]
        else:
            raise VectorBail(f"no vector lowering for {op.value}")
        self._store(step, value, active, sl)

    # -- register ops -------------------------------------------------------- #
    def _exec_register(self, step: _Step, sl, active: np.ndarray) -> None:
        op = step.opcode
        state = step.state
        size = self._size(sl)
        decl = self.kernel.decls.get(state)
        exempt = self.kernel.exempt.get(state)
        idx = _to_int_col(self._fetch(step.ops[0], sl) if step.ops else 0, size)
        idx = np.broadcast_to(np.asarray(idx, dtype=np.int64), (size,))
        if op in (Opcode.REG_CLEAR, Opcode.REG_DELETE):
            if not step.ops:
                if active.any():
                    self.undo.writable(self.runtime, state).clear()
                return
            act = active & (idx >= 0)       # popping a negative key is a no-op
            safe = np.where(act, idx, 0)
            file = self.undo.writable(self.runtime, state)
            _grow(file, 1, int(safe.max(initial=0)) + 1)
            # scalar reg_clear always pops row 0
            file.cells[0, safe[act]] = 0
            file.present[0, safe[act]] = False
            return
        if op is Opcode.REG_READ:
            file = _columns(self.runtime, state)
            if len(step.ops) > 1:
                row = _to_int_col(self._fetch(step.ops[1], sl), size)
                row = np.broadcast_to(np.asarray(row, dtype=np.int64), (size,))
                value = self._reg_gather(file, state, row, idx, exempt)
            elif decl is not None and decl.rows > 1:
                _grow(file, decl.rows, int(idx.max(initial=0)) + 1)
                neg = idx < 0
                safe = np.where(neg, 0, idx)
                value = file.cells[:decl.rows, safe].T.copy()
                value[neg] = 0
            else:
                zero = np.zeros(size, dtype=np.int64)
                value = self._reg_gather(file, state, zero, idx, exempt)
            self._store(step, value, active, sl)
            return
        if op is Opcode.REG_ADD:
            amount = (_to_int_col(self._fetch(step.ops[1], sl), size)
                      if len(step.ops) > 1 else 1)
            row = (_to_int_col(self._fetch(step.ops[2], sl), size)
                   if len(step.ops) > 2 else 0)
            self._check_index(idx, active)
            safe = np.where(active, idx, 0)
            amount = np.broadcast_to(np.asarray(amount, dtype=np.int64), (size,))
            if exempt == "add":
                # the write itself is deferred to _flush_pending
                file = _columns(self.runtime, state)
                row_const = int(step.ops[2][1]) if len(step.ops) > 2 else 0
                _grow(file, row_const + 1, int(safe.max(initial=0)) + 1)
                eff = np.where(active, amount, 0)
                records = self.pending.setdefault(state, [])
                records.append((row_const, safe, eff, active.copy()))
                value = file.cells[row_const, safe]
                for rec_row, rec_idx, rec_eff, _ in records:
                    if rec_row == row_const:
                        value = value + _prefix_sum_query(rec_idx, rec_eff,
                                                          safe)
                self._store(step, value, active, sl)
                return
            row = np.broadcast_to(np.asarray(row, dtype=np.int64), (size,))
            self._check_index(row, active)
            safe_row = np.where(active, row, 0)
            file = self.undo.writable(self.runtime, state)
            _grow(file, int(safe_row.max(initial=0)) + 1,
                  int(safe.max(initial=0)) + 1)
            value = file.cells[safe_row, safe] + amount
            file.cells[safe_row[active], safe[active]] = value[active]
            file.present[safe_row[active], safe[active]] = True
            self._store(step, value, active, sl)
            return
        # REG_WRITE
        value_desc = step.ops[1] if len(step.ops) > 1 else ("imm", 1)
        value = self._fetch(value_desc, sl)
        self._check_index(idx, active)
        safe = np.where(active, idx, 0)
        if isinstance(value, np.ndarray) and value.ndim == 2:
            width = value.shape[1]
            file = self.undo.writable(self.runtime, state)
            _grow(file, width, int(safe.max(initial=0)) + 1)
            file.cells[:width, safe[active]] = \
                value[active].astype(np.int64).T
            file.present[:width, safe[active]] = True
            return
        row = (_to_int_col(self._fetch(step.ops[2], sl), size)
               if len(step.ops) > 2 else 0)
        row = np.broadcast_to(np.asarray(row, dtype=np.int64), (size,))
        self._check_index(row, active)
        safe_row = np.where(active, row, 0)
        file = self.undo.writable(self.runtime, state)
        _grow(file, int(safe_row.max(initial=0)) + 1,
              int(safe.max(initial=0)) + 1)
        out = np.broadcast_to(
            np.asarray(_to_int_col(value, size), dtype=np.int64), (size,))
        file.cells[safe_row[active], safe[active]] = out[active]
        file.present[safe_row[active], safe[active]] = True

    def _reg_gather(self, file, state, row, idx, exempt):
        neg = (idx < 0) | (row < 0)
        safe_idx = np.where(neg, 0, idx)
        safe_row = np.where(neg, 0, row)
        _grow(file, int(safe_row.max(initial=0)) + 1,
              int(safe_idx.max(initial=0)) + 1)
        value = file.cells[safe_row, safe_idx]
        value = np.where(neg, 0, value)
        if exempt == "add":
            for rec_row, rec_idx, rec_eff, _ in self.pending.get(state, []):
                match = safe_row == rec_row
                contrib = _prefix_sum_query(rec_idx, rec_eff, safe_idx)
                value = value + np.where(match & ~neg, contrib, 0)
        return value

    @staticmethod
    def _check_index(col: np.ndarray, active: np.ndarray) -> None:
        if bool((col[active] < 0).any()) if active.any() else False:
            raise VectorBail("negative register index on write path")

    # -- tables --------------------------------------------------------------- #
    def _table_insert(self, table_name: str, step: _Step, sl,
                      active: np.ndarray, key_at: int, val_at: int) -> None:
        size = self._size(sl)
        keys = _to_int_col(self._fetch(step.ops[key_at], sl)
                           if len(step.ops) > key_at else 0, size)
        values = _to_int_col(self._fetch(step.ops[val_at], sl)
                             if len(step.ops) > val_at else 1, size)
        keys = np.broadcast_to(np.asarray(keys, dtype=np.int64), (size,))
        values = np.broadcast_to(np.asarray(values, dtype=np.int64), (size,))
        table = self.runtime.state.tables.setdefault(table_name, {})
        for k, v in zip(keys[active].tolist(), values[active].tolist()):
            self.undo.table_write(table, k, v)

    # -- writeback ------------------------------------------------------------ #
    def scatter_back(self) -> None:
        rows = self.rows
        for name in self.written_fields:
            self.cols.fields[name][rows] = self.fields[name]
            gmask = self.cols.dirty_fields.setdefault(
                name, np.zeros(self.cols.n, dtype=bool))
            wrote = self.written_field_rows.get(name)
            if wrote is None:
                gmask[rows] = True
            else:
                gmask[rows] |= wrote
        for name, col in self.env.items():
            wrote = self.written_param_rows.get(name)
            if wrote is None:
                # never stored to: the seeded values and present mask are
                # unchanged, so writing back would be a no-op
                continue
            present = self.env_present.get(name)
            if present is None or not present.any():
                continue
            gmask = self.cols.dirty_params.setdefault(
                name, np.zeros(self.cols.n, dtype=bool))
            gmask[rows] |= wrote
            full = self.cols.params.get(name)
            kind = _kind_of(col)
            if full is not None and _kind_of(full) != kind:
                old_present = self.cols.params_present.get(name)
                if old_present is not None and old_present.any():
                    raise VectorBail(f"param kind change for {name}")
                full = None
            if full is None:
                if kind[0] == "v":
                    full = np.zeros((self.cols.n, kind[1]), dtype=np.int64)
                elif kind[0] == "f":
                    full = np.zeros(self.cols.n, dtype=np.float64)
                else:
                    full = np.zeros(self.cols.n, dtype=np.int64)
                self.cols.params[name] = full
            full_present = self.cols.params_present.setdefault(
                name, np.zeros(self.cols.n, dtype=bool))
            sub = full[rows]
            if col.ndim == 2:
                full[rows] = np.where(present[:, None], col, sub)
            else:
                full[rows] = np.where(present, col, sub)
            full_present[rows] |= present


# --------------------------------------------------------------------------- #
# columnar helpers (mirroring interpreter._to_int/_scalar/_truthy/_vectorised)
# --------------------------------------------------------------------------- #
def _as_column(value, kind: tuple, size: int):
    """Coerce an op result to the planned column kind for masked storage."""
    arr = np.asarray(value)
    if kind[0] == "v":
        width = kind[1]
        if arr.ndim == 2:
            if arr.shape[1] != width:
                raise VectorBail("vector width drifted from the plan")
            return arr.astype(np.int64, copy=False)
        if arr.ndim == 1:
            return np.broadcast_to(arr[:, None], (size, width))
        return np.broadcast_to(arr, (size, width))
    if arr.ndim == 0:
        arr = np.broadcast_to(arr, (size,))
    if arr.ndim != 1:
        raise VectorBail("vector result for a scalar plan kind")
    if kind[0] == "f":
        return arr.astype(np.float64, copy=False)
    if arr.dtype == np.float64:
        raise VectorBail("float result for an int plan kind")
    return arr.astype(np.int64, copy=False)


def _truthy(value, size: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return (value != 0).any(axis=1)
        return value != 0
    return np.full(size, bool(value), dtype=bool)


def _to_int_col(value, size: int):
    """Columnar ``_to_int``: vectors sum, floats truncate toward zero."""
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return value.sum(axis=1)
        if value.dtype == np.float64:
            return value.astype(np.int64)
        return value
    if isinstance(value, float):
        return int(value)
    return int(value)


def _scalar_col(value):
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return value.sum(axis=1)
    return value


def _safe_floordiv(a, b):
    b_arr = np.asarray(b)
    return np.where(b_arr != 0, np.floor_divide(a, np.where(b_arr == 0, 1, b)), 0)


def _pad_width(col: np.ndarray, width: int) -> np.ndarray:
    if col.shape[1] == width:
        return col
    out = np.zeros((col.shape[0], width), dtype=col.dtype)
    out[:, : col.shape[1]] = col
    return out


def _vector_binop(a, b, func):
    """Columnar ``_vectorised``: element-wise with zero-padding to max width."""
    a_vec = isinstance(a, np.ndarray) and a.ndim == 2
    b_vec = isinstance(b, np.ndarray) and b.ndim == 2
    if a_vec and b_vec:
        width = max(a.shape[1], b.shape[1])
        return func(_pad_width(a, width), _pad_width(b, width))
    if a_vec:
        return func(a, np.asarray(b)[..., None] if isinstance(b, np.ndarray)
                    else b)
    if b_vec:
        return func(np.asarray(a)[..., None] if isinstance(a, np.ndarray)
                    else a, b)
    return func(a, b)


def _broadcast_like(value, other, size: int):
    if isinstance(value, np.ndarray):
        return value
    if isinstance(other, np.ndarray) and other.ndim == 2:
        return np.full((size, other.shape[1]),
                       value, dtype=np.asarray(value).dtype)
    return np.full(size, value)


def _table_gather(table: Dict[int, int], keys) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim == 0:
        keys = keys[None]
    uniq, inverse = np.unique(keys, return_inverse=True)
    vals = np.fromiter((table.get(int(k), MISS) for k in uniq),
                       dtype=np.int64, count=len(uniq))
    return vals[inverse]


def _prefix_sum_query(rec_idx: np.ndarray, rec_eff: np.ndarray,
                      query_idx: np.ndarray) -> np.ndarray:
    """Per-row inclusive prefix sum of record effects at the queried cells.

    ``rec_idx``/``rec_eff`` and ``query_idx`` index the same slice: the entry
    for slice position *i* contributes to queries at positions ``>= i`` with
    the same cell, reproducing the packet-major order of the scalar store.
    """
    n = len(rec_idx)
    stride = n + 1
    keys = rec_idx * stride + np.arange(n)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    csum = np.cumsum(rec_eff[order])
    q_keys = query_idx * stride + np.arange(n)
    hi = np.searchsorted(sorted_keys, q_keys, side="right")
    lo = np.searchsorted(sorted_keys, query_idx * stride, side="left")
    hi_val = np.where(hi > 0, csum[np.maximum(hi - 1, 0)], 0)
    lo_val = np.where(lo > 0, csum[np.maximum(lo - 1, 0)], 0)
    return np.where(hi > lo, hi_val - lo_val, 0)


# --------------------------------------------------------------------------- #
# kernel cache
# --------------------------------------------------------------------------- #
class KernelCache:
    """Digest-keyed cache of compiled kernels.

    Two maps: ``id(snippet)`` answers the per-batch lookup without hashing
    the snippet's content, the content digest shares one kernel between
    equal snippets (a re-submitted program body compiles nothing).  The
    cache outlives every program — :data:`DEFAULT_KERNEL_CACHE` is
    process-wide — so it must not keep them alive: snippets are held
    weakly (an entry goes when its snippet does), and the digest map is an
    LRU bounded by *max_entries*, sized well above the snippets a fabric
    has installed at once.
    """

    #: compile latencies kept for :meth:`compile_seconds_since`
    RECENT_COMPILES = 1024

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._by_id: Dict[int, Tuple[weakref.ref, CompiledKernel]] = {}
        self._by_digest: "OrderedDict[str, CompiledKernel]" = OrderedDict()
        self._lock = threading.Lock()
        self.compiled = 0
        self.hits = 0
        self.compile_seconds_total = 0.0
        self._recent_compiles: Deque[float] = deque(maxlen=self.RECENT_COMPILES)

    def get(self, snippet: IRProgram) -> CompiledKernel:
        key = id(snippet)
        hit = self._by_id.get(key)
        # an id can be reused once its snippet is collected: trust the entry
        # only if it still points at this very object
        if hit is not None and hit[0]() is snippet:
            self.hits += 1
            return hit[1]
        started = time.perf_counter()
        kernel = CompiledKernel(snippet)
        with self._lock:
            cached = self._by_digest.get(kernel.digest)
            if cached is not None:
                self.hits += 1
                kernel = cached
                self._by_digest.move_to_end(kernel.digest)
            else:
                seconds = time.perf_counter() - started
                self.compiled += 1
                self.compile_seconds_total += seconds
                self._recent_compiles.append(seconds)
                self._by_digest[kernel.digest] = kernel
                while len(self._by_digest) > self.max_entries:
                    self._by_digest.popitem(last=False)
        ref = weakref.ref(snippet, lambda dead: self._forget(key, dead))
        self._by_id[key] = (ref, kernel)
        return kernel

    def _forget(self, key: int, dead: weakref.ref) -> None:
        hit = self._by_id.get(key)
        if hit is not None and hit[0] is dead:
            del self._by_id[key]

    def compile_seconds_since(self, seen: int) -> Tuple[List[float], int]:
        """Latencies of the compiles after the first *seen*, and the new count.

        A reader that passes the returned count back in observes every
        compile once (at most the last :attr:`RECENT_COMPILES` of them).
        """
        with self._lock:
            new = min(self.compiled - seen, len(self._recent_compiles))
            recent = list(self._recent_compiles)[-new:] if new > 0 else []
            return recent, self.compiled

    def stats(self) -> Dict[str, float]:
        return {
            "compiled": self.compiled,
            "hits": self.hits,
            "compile_seconds_total": self.compile_seconds_total,
        }


#: Process-wide kernel cache shared by all emulators.
DEFAULT_KERNEL_CACHE = KernelCache()
