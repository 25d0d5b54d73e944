"""The operator's base program.

Every device in the network runs a base forwarding program: header parsing,
packet validation and L2/L3 forwarding.  User INC snippets depend on the
validation part (only valid packets reach them) and the forwarding part
depends on the user snippets (they may rewrite addresses), so the base
program is split into a *head* and a *tail* (paper §6, "Program Merge").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.instructions import Opcode, StateDecl, StateKind
from repro.ir.program import HeaderField, IRProgram


@dataclass
class ParseNode:
    """A node of the header parsing tree (one protocol header)."""

    header: str
    fields: Dict[str, int] = field(default_factory=dict)
    children: List["ParseNode"] = field(default_factory=list)
    owners: set = field(default_factory=set)

    def find(self, header: str) -> Optional["ParseNode"]:
        if self.header == header:
            return self
        for child in self.children:
            found = child.find(header)
            if found is not None:
                return found
        return None

    def add_child(self, node: "ParseNode") -> "ParseNode":
        self.children.append(node)
        return node


@dataclass
class BaseProgram:
    """The operator program: parse tree + head (validation) + tail (forwarding)."""

    name: str
    parse_tree: ParseNode
    head: IRProgram
    tail: IRProgram

    def total_instructions(self) -> int:
        return len(self.head) + len(self.tail)

    def copy(self) -> "BaseProgram":
        return BaseProgram(
            name=self.name,
            parse_tree=_copy_tree(self.parse_tree),
            head=self.head.copy(),
            tail=self.tail.copy(),
        )


def _copy_tree(node: ParseNode) -> ParseNode:
    return ParseNode(
        header=node.header,
        fields=dict(node.fields),
        children=[_copy_tree(child) for child in node.children],
        owners=set(node.owners),
    )


def default_parse_tree(owner: str = "operator") -> ParseNode:
    """Ethernet / IPv4 / {TCP, UDP} parse tree used by the base program."""
    eth = ParseNode(
        header="ethernet",
        fields={"dst_mac": 48, "src_mac": 48, "ethertype": 16},
        owners={owner},
    )
    ipv4 = eth.add_child(
        ParseNode(
            header="ipv4",
            fields={"src_ip": 32, "dst_ip": 32, "protocol": 8, "ttl": 8},
            owners={owner},
        )
    )
    ipv4.add_child(
        ParseNode(header="udp", fields={"src_port": 16, "dst_port": 16}, owners={owner})
    )
    ipv4.add_child(
        ParseNode(header="tcp", fields={"src_port": 16, "dst_port": 16, "flags": 8},
                  owners={owner})
    )
    return eth


def default_base_program(name: str = "base", owner: str = "operator") -> BaseProgram:
    """Build the default operator base program.

    The head validates the packet (checksum, TTL) and resolves the forwarding
    next hop through an LPM table; the tail decrements TTL, rewrites MACs and
    forwards.  User snippets are inserted between head and tail.
    """
    head = IRProgram(f"{name}_head")
    for field_name, width in (
        ("dst_mac", 48), ("src_mac", 48), ("ethertype", 16),
        ("src_ip", 32), ("dst_ip", 32), ("protocol", 8), ("ttl", 8),
        ("src_port", 16), ("dst_port", 16),
    ):
        head.declare_header_field(HeaderField(name=field_name, width=width))
    head.declare_state(
        StateDecl(name="ipv4_lpm", kind=StateKind.TERNARY_TABLE, rows=1,
                  size=1024, width=48, key_width=32, owner=owner)
    )
    head.emit(Opcode.CHECKSUM, "csum_ok", "hdr.src_ip", "hdr.dst_ip", width=1,
              owner=owner)
    head.emit(Opcode.CMP_GT, "ttl_ok", "hdr.ttl", 0, width=1, owner=owner)
    head.emit(Opcode.AND, "pkt_valid", "csum_ok", "ttl_ok", width=1, owner=owner)
    head.emit(Opcode.DROP, None, guard="pkt_valid", guard_negated=True, owner=owner)
    head.emit(Opcode.LPM_LOOKUP, "next_hop", "hdr.dst_ip", state="ipv4_lpm",
              width=48, owner=owner)

    tail = IRProgram(f"{name}_tail")
    for field_name, width in (("dst_mac", 48), ("src_mac", 48), ("ttl", 8)):
        tail.declare_header_field(HeaderField(name=field_name, width=width))
    tail.emit(Opcode.SUB, "new_ttl", "hdr.ttl", 1, width=8, owner=owner)
    tail.emit(Opcode.HDR_WRITE, None, "hdr.ttl", "new_ttl", owner=owner)
    tail.emit(Opcode.HDR_WRITE, None, "hdr.dst_mac", "meta.next_hop", owner=owner)
    tail.emit(Opcode.FORWARD, None, owner=owner)

    return BaseProgram(
        name=name,
        parse_tree=default_parse_tree(owner),
        head=head,
        tail=tail,
    )
