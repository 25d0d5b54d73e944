"""Per-device IR interpreter.

A :class:`DeviceRuntime` holds the persistent state (register arrays, match
tables) of one device and executes IR snippets on packets, honouring guards,
the miss sentinel for table lookups, and the packet-flow primitives (drop,
forward, reflect, mirror, copy-to-CPU).  Temporary variables shared between
devices are carried in the packet's INC ``params`` field, reproducing the
Param mechanism of paper §6.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.devices.base import Device
from repro.exceptions import EmulationError
from repro.emulator.packet import Packet
from repro.emulator.state import RegisterFile
from repro.ir.instructions import Instruction, Opcode, StateDecl, StateKind
from repro.ir.program import IRProgram

#: Sentinel returned by table lookups on a miss ("vals != None" compares to it).
MISS = -1


@dataclass
class ExecutionResult:
    """Outcome of executing one snippet on one packet."""

    executed_instructions: int = 0
    dropped: bool = False
    forwarded: bool = False
    reflected: bool = False
    mirrored: bool = False
    copied_to_cpu: bool = False
    mirror_payload: Dict[str, object] = field(default_factory=dict)


class StateStore:
    """Persistent state objects of one device.

    ``registers[name]`` is a :class:`~repro.emulator.state.RegisterFile` —
    the one resident copy of that array's cells, shared by the scalar
    accessors below and the vector kernels.
    """

    def __init__(self, stats=None) -> None:
        self.registers: Dict[str, RegisterFile] = {}
        self.tables: Dict[str, Dict[int, int]] = {}
        self.decls: Dict[str, StateDecl] = {}
        #: optional ``DataplaneStats`` bag handed to every register file
        self.stats = stats

    def ensure(self, decl: StateDecl) -> None:
        if decl.name in self.decls:
            return
        self.decls[decl.name] = decl
        if decl.kind in (StateKind.EXACT_TABLE, StateKind.TERNARY_TABLE,
                         StateKind.DIRECT_TABLE):
            self.tables[decl.name] = {}
        else:
            self.registers[decl.name] = RegisterFile(decl, self.stats)

    def drop(self, name: str) -> None:
        """Forget state *name*: its declaration and everything it holds."""
        self.decls.pop(name, None)
        self.registers.pop(name, None)
        self.tables.pop(name, None)

    def register_file(self, name: str) -> RegisterFile:
        file = self.registers.get(name)
        if file is None:
            file = self.registers[name] = RegisterFile(
                self.decls.get(name), self.stats)
        return file

    def reg_read(self, name: str, index: int, row: int = 0) -> int:
        return self.register_file(name).get((row, index), 0)

    def reg_write(self, name: str, index: int, value: int, row: int = 0) -> None:
        self.register_file(name)[(row, index)] = int(value)

    def reg_add(self, name: str, index: int, amount: int, row: int = 0) -> int:
        file = self.register_file(name)
        value = file.get((row, index), 0) + int(amount)
        file[(row, index)] = value
        return value

    def reg_clear(self, name: str, index: Optional[int] = None, row: int = 0) -> None:
        file = self.register_file(name)
        if index is None:
            file.clear()
        else:
            file.pop((row, index), None)

    def table_lookup(self, name: str, key: int) -> int:
        return self.tables.setdefault(name, {}).get(int(key), MISS)

    def table_insert(self, name: str, key: int, value: int) -> None:
        self.tables.setdefault(name, {})[int(key)] = int(value)


def crc_hash(value: int, modulus: int = 1 << 16, salt: int = 0) -> int:
    """Deterministic CRC32-based hash used for sketch / aggregator indexing."""
    data = f"{salt}:{value}".encode()
    return zlib.crc32(data) % max(1, modulus)


class DeviceRuntime:
    """Executes IR snippets on packets for one device."""

    def __init__(self, device: Device, stats=None) -> None:
        self.device = device
        self.state = StateStore(stats)
        self.snippets: List[Tuple[str, IRProgram, Dict[int, int]]] = []
        self.packets_processed = 0
        self.instructions_executed = 0

    # ------------------------------------------------------------------ #
    def install_snippet(self, owner: str, snippet: IRProgram,
                        steps: Optional[Dict[int, int]] = None) -> None:
        """Install an isolated snippet; its states are created empty."""
        for decl in snippet.states.values():
            self.state.ensure(decl)
        self.snippets = [(o, s, st) for o, s, st in self.snippets if o != owner]
        self.snippets.append((owner, snippet, dict(steps or {})))

    def remove_snippet(self, owner: str) -> None:
        """Uninstall *owner*'s snippet and the states only it declared.

        A state another installed snippet still declares survives; anything
        else would be inherited by the next program that reuses the name.
        """
        removed = [s for o, s, _ in self.snippets if o == owner]
        self.snippets = [(o, s, st) for o, s, st in self.snippets if o != owner]
        kept = {name for _, s, _ in self.snippets for name in s.states}
        for snippet in removed:
            for name in snippet.states:
                if name not in kept:
                    self.state.drop(name)

    def installed_owners(self) -> List[str]:
        return [owner for owner, _, _ in self.snippets]

    # ------------------------------------------------------------------ #
    def process_packet(self, packet: Packet, owner: Optional[str] = None) -> ExecutionResult:
        """Run the snippets installed for *owner* (or the packet's owner)."""
        target_owner = owner or packet.owner
        result = ExecutionResult()
        for snippet_owner, snippet, _steps in self.snippets:
            if target_owner and snippet_owner != target_owner:
                continue
            self._execute(snippet, packet, result)
            if result.dropped or result.reflected:
                break
        self.packets_processed += 1
        packet.latency_ns += self.device.processing_latency_ns
        packet.hops.append(self.device.name)
        return result

    # ------------------------------------------------------------------ #
    def _execute(self, snippet: IRProgram, packet: Packet,
                 result: ExecutionResult) -> None:
        env: Dict[str, int] = dict(packet.inc.params)
        for instr in snippet:
            if instr.guard is not None:
                guard_value = self._value(instr.guard, env, packet)
                active = bool(guard_value) != instr.guard_negated
                if not active:
                    continue
            self._step(instr, env, packet, result)
            result.executed_instructions += 1
            self.instructions_executed += 1
            if result.dropped:
                break
        # temporaries that downstream devices may need ride in the Param field
        packet.inc.params.update(
            {
                k: v
                for k, v in env.items()
                if isinstance(v, (int, float)) or isinstance(v, list)
            }
        )

    # ------------------------------------------------------------------ #
    def _value(self, operand, env: Dict[str, int], packet: Packet):
        if isinstance(operand, (int, float)):
            return operand
        if not isinstance(operand, str):
            return 0
        if operand.startswith("const."):
            return 0
        if operand.startswith("hdr."):
            return self._header_value(operand[4:], packet)
        if operand.startswith("meta."):
            return env.get(operand, 0)
        return env.get(operand, packet.inc.params.get(operand, 0))

    @staticmethod
    def _header_value(spec: str, packet: Packet):
        if "[" in spec:
            base, index_text = spec.split("[", 1)
            index = int(index_text.rstrip("]"))
            vector = packet.get_field(base, [])
            if isinstance(vector, list):
                return vector[index] if 0 <= index < len(vector) else 0
            return 0
        value = packet.get_field(spec, 0)
        if isinstance(value, list):
            # whole-vector reference: arithmetic treats it element-wise via sum
            return value
        return value

    def _set_header(self, spec: str, value, packet: Packet,
                    index: Optional[int] = None) -> None:
        if "[" in spec:
            base, index_text = spec.split("[", 1)
            index = int(index_text.rstrip("]"))
            spec = base
        if index is not None:
            vector = packet.get_field(spec, [])
            if isinstance(vector, list):
                while len(vector) <= index:
                    vector.append(0)
                vector[index] = value
                packet.set_field(spec, vector)
                return
        packet.set_field(spec, value)

    # ------------------------------------------------------------------ #
    def _step(self, instr: Instruction, env: Dict[str, int], packet: Packet,
              result: ExecutionResult) -> None:
        op = instr.opcode
        operands = [self._value(o, env, packet) for o in instr.operands]

        def store(value) -> None:
            if instr.dst is not None:
                env[instr.dst] = value

        if op in (Opcode.ADD, Opcode.FADD):
            store(_vectorised(operands[0], operands[1], lambda a, b: a + b))
        elif op in (Opcode.SUB, Opcode.FSUB):
            store(_vectorised(operands[0], operands[1], lambda a, b: a - b))
        elif op in (Opcode.MUL, Opcode.FMUL):
            store(_vectorised(operands[0], operands[1], lambda a, b: a * b))
        elif op in (Opcode.DIV, Opcode.FDIV):
            store(_vectorised(operands[0], operands[1],
                              lambda a, b: a // b if b else 0))
        elif op is Opcode.MOD:
            store(operands[0] % operands[1] if operands[1] else 0)
        elif op is Opcode.AND:
            store(_to_int(operands[0]) & _to_int(operands[1]))
        elif op is Opcode.OR:
            store(_to_int(operands[0]) | _to_int(operands[1]))
        elif op is Opcode.XOR:
            store(_to_int(operands[0]) ^ _to_int(operands[1]))
        elif op is Opcode.NOT:
            store(~_to_int(operands[0]) & ((1 << instr.width) - 1))
        elif op is Opcode.SHL:
            store(_to_int(operands[0]) << _to_int(operands[1]))
        elif op is Opcode.SHR:
            store(_to_int(operands[0]) >> _to_int(operands[1]))
        elif op is Opcode.SLICE:
            value = _to_int(operands[0])
            low = _to_int(operands[1]) if len(operands) > 1 else 0
            high = _to_int(operands[2]) if len(operands) > 2 else instr.width
            store((value >> low) & ((1 << max(1, high - low)) - 1))
        elif op is Opcode.MOV:
            store(operands[0] if operands else 0)
        elif op is Opcode.MIN:
            store(_vectorised(operands[0], operands[1], min))
        elif op is Opcode.MAX:
            store(_vectorised(operands[0], operands[1], max))
        elif op is Opcode.ABS:
            store(abs(_to_int(operands[0])))
        elif op is Opcode.SELECT:
            store(operands[1] if _truthy(operands[0]) else operands[2])
        elif op is Opcode.CMP_LT:
            store(int(_scalar(operands[0]) < _scalar(operands[1])))
        elif op is Opcode.CMP_LE:
            store(int(_scalar(operands[0]) <= _scalar(operands[1])))
        elif op is Opcode.CMP_GT:
            store(int(_scalar(operands[0]) > _scalar(operands[1])))
        elif op is Opcode.CMP_GE:
            store(int(_scalar(operands[0]) >= _scalar(operands[1])))
        elif op is Opcode.CMP_EQ:
            store(int(_compare_eq(operands[0], operands[1])))
        elif op is Opcode.CMP_NE:
            store(int(not _compare_eq(operands[0], operands[1])))
        elif op in (Opcode.HASH_CRC, Opcode.HASH_IDENTITY):
            key = operands[0] if operands else 0
            modulus = _to_int(operands[1]) if len(operands) > 1 else (1 << 16)
            salt = _to_int(operands[2]) if len(operands) > 2 else 0
            if op is Opcode.HASH_IDENTITY:
                store(_to_int(key) % max(1, modulus))
            else:
                store(crc_hash(_to_int(key), max(1, modulus), salt))
        elif op is Opcode.CHECKSUM:
            store(sum(_to_int(o) for o in operands) & 0xFFFF or 1)
        elif op is Opcode.RANDINT:
            store(crc_hash(packet.packet_id, 1 << 16, salt=7))
        elif op in (Opcode.CRYPTO_AES, Opcode.CRYPTO_ECS):
            store(crc_hash(_to_int(operands[0]), 1 << 31, salt=99))
        elif op is Opcode.REG_READ:
            index = _to_int(operands[0]) if operands else 0
            decl = self.state.decls.get(instr.state)
            if len(operands) > 1:
                row = _to_int(operands[1])
                store(self.state.reg_read(instr.state, index, row))
            elif decl is not None and decl.rows > 1:
                # multi-row arrays (e.g. per-dimension aggregators) return the
                # whole vector when no explicit row is requested
                store([
                    self.state.reg_read(instr.state, index, row)
                    for row in range(decl.rows)
                ])
            else:
                store(self.state.reg_read(instr.state, index, 0))
        elif op is Opcode.REG_WRITE:
            index = _to_int(operands[0]) if operands else 0
            value = operands[1] if len(operands) > 1 else 1
            row = _to_int(operands[2]) if len(operands) > 2 else 0
            if isinstance(value, list):
                for offset, element in enumerate(value):
                    self.state.reg_write(instr.state, index, _to_int(element), row=offset)
            else:
                self.state.reg_write(instr.state, index, _to_int(value), row)
        elif op is Opcode.REG_ADD:
            index = _to_int(operands[0]) if operands else 0
            amount = _to_int(operands[1]) if len(operands) > 1 else 1
            row = _to_int(operands[2]) if len(operands) > 2 else 0
            store(self.state.reg_add(instr.state, index, amount, row))
        elif op in (Opcode.REG_CLEAR, Opcode.REG_DELETE):
            index = _to_int(operands[0]) if operands else None
            self.state.reg_clear(instr.state, index)
        elif op in (Opcode.EMT_LOOKUP, Opcode.SEMT_LOOKUP, Opcode.TMT_LOOKUP,
                    Opcode.STMT_LOOKUP, Opcode.LPM_LOOKUP, Opcode.DMT_LOOKUP):
            key = _to_int(operands[0]) if operands else 0
            store(self.state.table_lookup(instr.state, key))
        elif op in (Opcode.SEMT_WRITE, Opcode.STMT_WRITE):
            key = _to_int(operands[0]) if operands else 0
            value = _to_int(operands[1]) if len(operands) > 1 else 1
            self.state.table_insert(instr.state, key, value)
        elif op is Opcode.DROP:
            result.dropped = True
            packet.dropped = True
        elif op is Opcode.FORWARD:
            result.forwarded = True
        elif op is Opcode.SEND_BACK:
            result.reflected = True
            packet.reflected = True
        elif op is Opcode.MIRROR:
            result.mirrored = True
            packet.mirrored = True
        elif op is Opcode.COPY_TO:
            result.copied_to_cpu = True
            packet.copied_to_cpu = True
            # control-plane-mediated table update (NetCache style): install
            # the reported key into the corresponding stateless table.
            if instr.operands and isinstance(instr.operands[0], str) \
                    and instr.operands[0].startswith("const.update:"):
                table_name = instr.operands[0].split(":", 1)[1]
                key = _to_int(operands[1]) if len(operands) > 1 else 0
                value = _to_int(operands[2]) if len(operands) > 2 else 1
                if table_name in self.state.tables:
                    self.state.table_insert(table_name, key, value)
        elif op is Opcode.HDR_WRITE:
            if len(instr.operands) >= 2 and isinstance(instr.operands[0], str):
                target = instr.operands[0]
                if target.startswith("hdr."):
                    index = None
                    value = operands[-1]
                    if len(instr.operands) == 3:
                        index = _to_int(operands[1])
                    self._set_header(target[4:], value, packet, index)
        elif op is Opcode.HDR_READ:
            if instr.operands and isinstance(instr.operands[0], str):
                base = instr.operands[0]
                index = _to_int(operands[1]) if len(operands) > 1 else None
                value = self._header_value(base[4:] if base.startswith("hdr.") else base,
                                           packet)
                if isinstance(value, list) and index is not None:
                    value = value[index] if 0 <= index < len(value) else 0
                store(value)
        elif op is Opcode.HDR_REMOVE:
            if instr.operands and isinstance(instr.operands[0], str):
                spec = instr.operands[0]
                if spec.startswith("hdr."):
                    name = spec[4:]
                    if "[" in name:
                        base, index_text = name.split("[", 1)
                        index = int(index_text.rstrip("]"))
                        vector = packet.get_field(base, [])
                        if isinstance(vector, list) and 0 <= index < len(vector):
                            vector[index] = 0
                    else:
                        block = _to_int(operands[1]) if len(operands) > 1 else None
                        vector = packet.get_field(name, [])
                        if isinstance(vector, list) and block is not None:
                            packet.set_field(name, [
                                v for i, v in enumerate(vector) if i != block
                            ])
        elif op in (Opcode.NOP, Opcode.DECL_STATE, Opcode.PARSE, Opcode.HDR_INSERT):
            pass
        elif op is Opcode.MULTICAST:
            result.mirrored = True
        else:  # pragma: no cover - defensive
            raise EmulationError(f"interpreter cannot execute opcode {op.value}")


# --------------------------------------------------------------------------- #
# scalar/vector helpers
# --------------------------------------------------------------------------- #
def _to_int(value) -> int:
    if isinstance(value, list):
        return int(sum(value))
    if isinstance(value, float):
        return int(value)
    if isinstance(value, int):
        return value
    return 0


def _scalar(value):
    if isinstance(value, list):
        return sum(value)
    return value


def _truthy(value) -> bool:
    if isinstance(value, list):
        return any(value)
    return bool(value)


def _compare_eq(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return _scalar(a) == _scalar(b)
    return a == b


def _vectorised(a, b, func):
    """Element-wise operation when either operand is a vector (gradient data)."""
    if isinstance(a, list) and isinstance(b, list):
        length = max(len(a), len(b))
        a = a + [0] * (length - len(a))
        b = b + [0] * (length - len(b))
        return [func(x, y) for x, y in zip(a, b)]
    if isinstance(a, list):
        return [func(x, b) for x in a]
    if isinstance(b, list):
        return [func(a, y) for y in b]
    return func(a, b)
