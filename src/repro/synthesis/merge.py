"""Merging user snippets with the base program into one device executable
(paper §6, Algorithm 4).

The merge handles the two program parts separately:

* **Header parsing** — the user snippet's header fields are grafted onto the
  base parse tree as an INC header under UDP; nodes shared with existing
  programs just gain an extra owner annotation.
* **Packet processing** — for pipeline devices the user snippet is inserted
  between the base program's head (validation / next-hop resolution) and
  tail (TTL rewrite / forwarding); for RTC devices the dependency graphs are
  merged and re-serialised in topological order.  Either way, instructions
  keep their per-user annotations for later incremental removal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.devices.base import Architecture, Device
from repro.exceptions import SynthesisError
from repro.ir.program import IRProgram
from repro.synthesis.base_program import BaseProgram, ParseNode


@dataclass
class DeviceExecutable:
    """The synthesised program a device actually runs.

    It keeps the base program's head and tail plus the ordered list of user
    snippets in between.
    """

    device_name: str
    base: BaseProgram
    snippets: Dict[str, IRProgram] = field(default_factory=dict)
    snippet_order: List[str] = field(default_factory=list)
    user_steps: Dict[str, Dict[int, int]] = field(default_factory=dict)
    version: int = 0

    # ------------------------------------------------------------------ #
    def users(self) -> List[str]:
        return list(self.snippet_order)

    def total_instructions(self) -> int:
        return (
            self.base.total_instructions()
            + sum(len(snippet) for snippet in self.snippets.values())
        )

def merge_parse_tree(base_tree: ParseNode, snippet: IRProgram, owner: str) -> int:
    """Graft the snippet's header fields onto the base parse tree.

    The INC header sits under UDP (the transparent-network INC layer of
    paper §4.1).  Returns the number of new parse nodes added; shared nodes
    only gain the owner annotation.
    """
    udp = base_tree.find("udp")
    if udp is None:
        raise SynthesisError("base parse tree has no UDP node to attach the INC header")
    udp.owners.add(owner)
    node = base_tree.find("ethernet")
    while node is not None and node.header != "udp":
        node.owners.add(owner)
        node = node.children[0] if node.children else None

    inc_header = udp.find(f"inc_{owner}")
    added = 0
    if inc_header is None:
        inc_header = udp.add_child(ParseNode(header=f"inc_{owner}", owners={owner}))
        added += 1
    for name, fld in snippet.header_fields.items():
        if name not in inc_header.fields:
            inc_header.fields[name] = fld.width
    return added


def merge_into_executable(
    executable: DeviceExecutable,
    snippet: IRProgram,
    owner: str,
    device: Optional[Device] = None,
    steps: Optional[Dict[int, int]] = None,
) -> DeviceExecutable:
    """Merge *snippet* (already isolated) into *executable* in place.

    For pipeline devices the snippet is appended after existing snippets
    (still before the base tail); for RTC devices the order is the same but
    the flattened view re-serialises by dependency, which the emulator's
    sequential interpretation already respects.
    """
    if owner in executable.snippets:
        raise SynthesisError(
            f"user {owner!r} already has a snippet on {executable.device_name}"
        )
    merge_parse_tree(executable.base.parse_tree, snippet, owner)
    executable.snippets[owner] = snippet
    executable.snippet_order.append(owner)
    executable.user_steps[owner] = dict(steps or {})
    executable.version += 1

    if device is not None and device.architecture is Architecture.PIPELINE:
        # pipeline merge: user snippets sit between base head and tail; the
        # order of independent snippets is arbitrary, so keep insertion order
        # which mirrors "as early as possible" packing.
        pass
    return executable


def remove_from_executable(executable: DeviceExecutable, owner: str,
                           lazy: bool = True) -> DeviceExecutable:
    """Remove *owner*'s snippet from *executable*.

    With ``lazy=True`` (the paper's lazy enforcement) the snippet is only
    marked removed: traffic-matching is disabled (the snippet is dropped from
    the executable) but the executable version is not bumped until the
    next program addition forces a re-deployment.
    """
    if owner not in executable.snippets:
        raise SynthesisError(
            f"user {owner!r} has no snippet on {executable.device_name}"
        )
    del executable.snippets[owner]
    executable.snippet_order.remove(owner)
    executable.user_steps.pop(owner, None)
    _strip_owner_from_tree(executable.base.parse_tree, owner)
    if not lazy:
        executable.version += 1
    return executable


def _strip_owner_from_tree(node: ParseNode, owner: str) -> bool:
    """Remove *owner* annotations; prune nodes that no longer have any owner.

    Returns True if *node* itself should be removed by its parent.
    """
    node.owners.discard(owner)
    node.children = [
        child for child in node.children if not _strip_owner_from_tree(child, owner)
    ]
    is_user_header = node.header.startswith("inc_")
    return is_user_header and not node.owners
