"""Agent-side scheduler: tracks free cores/GPUs per node and binds tasks to slots.

Placement is deterministic first-fit: worker nodes in id order, resource
indices in ascending order. A task that does not fit on any single node
may spill across consecutive nodes. Agent nodes are reserved for the
runtime itself and never receive tasks.

Running free-core and free-GPU totals make `fits(spec)` O(1); a task
fits exactly when `try_schedule` would place it. The agent's scheduler
lane starts a placement only for a task that fits, so every attempt
succeeds. Modelling decision: a task is charged `agent.schedule_cost_s`
once, for its placement; a task that does not fit waits uncharged until
a release frees room, and waiting tasks are placed in arrival order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import TaskSpec


class DoubleFree(ValueError):
    """Raised when a slot is released twice or was never bound."""


@dataclass(frozen=True)
class Node:
    uid: int
    cores: int = 42
    gpus: int = 6


@dataclass(frozen=True)
class SlotAssignment:
    node_uid: int
    core_indices: tuple[int, ...] = ()
    gpu_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class Slot:
    """A concrete placement: which cores/GPUs on which nodes a task holds."""

    assignments: tuple[SlotAssignment, ...]

    @property
    def n_cores(self) -> int:
        return sum(len(a.core_indices) for a in self.assignments)

    def encode(self) -> str:
        """Compact textual form used in profile event attributes."""
        parts = []
        for a in self.assignments:
            cores = ".".join(str(i) for i in a.core_indices)
            gpus = ".".join(str(i) for i in a.gpu_indices)
            part = f"n{a.node_uid}"
            if cores:
                part += f"c{cores}"
            if gpus:
                part += f"g{gpus}"
            parts.append(part)
        return "_".join(parts)

    @classmethod
    def decode(cls, text: str) -> "Slot":
        assignments = []
        for part in text.split("_"):
            if not part.startswith("n"):
                raise ValueError(f"bad slot encoding: {text!r}")
            body = part[1:]
            gpus: tuple[int, ...] = ()
            cores: tuple[int, ...] = ()
            if "g" in body:
                body, gtext = body.split("g", 1)
                gpus = tuple(int(i) for i in gtext.split("."))
            if "c" in body:
                body, ctext = body.split("c", 1)
                cores = tuple(int(i) for i in ctext.split("."))
            assignments.append(
                SlotAssignment(node_uid=int(body), core_indices=cores, gpu_indices=gpus)
            )
        return cls(assignments=tuple(assignments))


# a slot as `Slot.encode` writes it, and one node part of it
_PART = r"n(\d+)(?:c(\d+(?:\.\d+)*))?(?:g(\d+(?:\.\d+)*))?"
_SLOT_TEXT = re.compile(f"{_PART}(?:_{_PART})*", re.ASCII)
_SLOT_PART = re.compile(_PART, re.ASCII)


def slot_units(texts: Iterable[str]) -> list[int]:
    """Every resource unit of the encoded slots, flattened to
    (position in `texts`, node, 1 for a GPU else 0, unit index) quadruples
    in `Slot.decode` order: node parts in order, cores before GPUs.

    Text in the form `Slot.encode` writes is read by regex; anything else
    goes through `Slot.decode`, which accepts or rejects it."""
    out: list[int] = []
    for pos, text in enumerate(texts):
        if _SLOT_TEXT.fullmatch(text):
            parts = [(int(node), cores.split(".") if cores else (),
                      gpus.split(".") if gpus else ())
                     for node, cores, gpus in _SLOT_PART.findall(text)]
        else:
            parts = [(a.node_uid, a.core_indices, a.gpu_indices)
                     for a in Slot.decode(text).assignments]
        for node, cores, gpus in parts:
            for i in cores:
                out += (pos, node, 0, int(i))
            for i in gpus:
                out += (pos, node, 1, int(i))
    return out


@dataclass
class _NodeState:
    node: Node
    core_used: list[bool] = field(default_factory=list)
    gpu_used: list[bool] = field(default_factory=list)
    free_cores: int = 0
    free_gpus: int = 0

    def __post_init__(self):
        self.core_used = [False] * self.node.cores
        self.gpu_used = [False] * self.node.gpus
        self.free_cores = self.node.cores
        self.free_gpus = self.node.gpus


def _all_bound(indices: tuple[int, ...], used: list[bool]) -> bool:
    """True when `indices` name distinct units that are bound in `used`."""
    n = len(used)
    for i in indices:
        if not (0 <= i < n and used[i]):
            return False
    return len(indices) < 2 or len(set(indices)) == len(indices)


class ResourcePool:
    """Nodes x (cores, GPUs) with per-node occupancy bitmaps.

    The first `agent_nodes` nodes are reserved for the runtime; the rest
    are worker nodes available to tasks.
    """

    def __init__(self, nodes: list[Node], agent_nodes: int = 1):
        if agent_nodes >= len(nodes):
            raise ValueError(
                f"agent_nodes ({agent_nodes}) must be < total nodes ({len(nodes)})"
            )
        if agent_nodes < 0:
            raise ValueError("agent_nodes must be >= 0")
        self.nodes = list(nodes)
        self.agent_nodes = agent_nodes
        self._states = {n.uid: _NodeState(n) for n in self.worker_nodes}
        self._worker_order = [n.uid for n in self.worker_nodes]
        self._worker_index = {uid: i for i, uid in enumerate(self._worker_order)}
        self._scan_hint = 0  # first worker index that may still have free cores
        self._free_cores = sum(n.cores for n in self.worker_nodes)
        self._free_gpus = sum(n.gpus for n in self.worker_nodes)

    @classmethod
    def uniform(
        cls,
        n_nodes: int,
        cores_per_node: int = 42,
        gpus_per_node: int = 6,
        agent_nodes: int = 1,
    ) -> "ResourcePool":
        nodes = [Node(uid=i, cores=cores_per_node, gpus=gpus_per_node) for i in range(n_nodes)]
        return cls(nodes, agent_nodes=agent_nodes)

    @property
    def worker_nodes(self) -> list[Node]:
        return self.nodes[self.agent_nodes :]

    @property
    def agent_node_list(self) -> list[Node]:
        return self.nodes[: self.agent_nodes]

    @property
    def total_worker_cores(self) -> int:
        return sum(n.cores for n in self.worker_nodes)

    @property
    def total_worker_gpus(self) -> int:
        return sum(n.gpus for n in self.worker_nodes)

    def free_core_count(self) -> int:
        return self._free_cores

    def free_gpu_count(self) -> int:
        return self._free_gpus

    def fits(self, spec: TaskSpec) -> bool:
        """True when `try_schedule(spec)` would place the task now."""
        return self._free_cores >= spec.cores and self._free_gpus >= spec.gpus

    def try_schedule(self, spec: TaskSpec) -> Optional[Slot]:
        """First-fit placement; returns None when there is no capacity now."""
        if not self.fits(spec):
            return None
        # single-node placement first
        for idx in range(self._scan_hint, len(self._worker_order)):
            state = self._states[self._worker_order[idx]]
            if state.free_cores >= spec.cores and state.free_gpus >= spec.gpus:
                slot = Slot(
                    assignments=(self._take(state, spec.cores, spec.gpus),)
                )
                self._advance_hint()
                return slot
        # multi-node spill, nodes in order
        assignments = []
        cores_left, gpus_left = spec.cores, spec.gpus
        for uid in self._worker_order:
            state = self._states[uid]
            take_c = min(state.free_cores, cores_left)
            take_g = min(state.free_gpus, gpus_left)
            if take_c == 0 and take_g == 0:
                continue
            assignments.append(self._take(state, take_c, take_g))
            cores_left -= take_c
            gpus_left -= take_g
            if cores_left == 0 and gpus_left == 0:
                break
        self._advance_hint()
        return Slot(assignments=tuple(assignments))

    def unschedule(self, slot: Slot) -> None:
        """Release every resource held by `slot`. A slot that names a unit
        that is not bound (out of range or already free), or names a unit
        or a node twice, raises DoubleFree and leaves the pool unchanged."""
        assignments = slot.assignments
        n = len(assignments)
        if n > 1 and len({a.node_uid for a in assignments}) < n:
            raise DoubleFree(f"slot {slot.encode()} names a node twice")
        for a in assignments:
            state = self._states.get(a.node_uid)
            if state is None:
                raise DoubleFree(f"slot references unknown node {a.node_uid}")
            if not _all_bound(a.core_indices, state.core_used):
                raise DoubleFree(f"slot {slot.encode()} names a core that is not bound")
            if not _all_bound(a.gpu_indices, state.gpu_used):
                raise DoubleFree(f"slot {slot.encode()} names a GPU that is not bound")
        for a in assignments:
            state = self._states[a.node_uid]
            for i in a.core_indices:
                state.core_used[i] = False
            for i in a.gpu_indices:
                state.gpu_used[i] = False
            state.free_cores += len(a.core_indices)
            state.free_gpus += len(a.gpu_indices)
            self._free_cores += len(a.core_indices)
            self._free_gpus += len(a.gpu_indices)
            self._scan_hint = min(self._scan_hint, self._worker_index[a.node_uid])

    def _take(self, state: _NodeState, n_cores: int, n_gpus: int) -> SlotAssignment:
        cores = []
        for i, used in enumerate(state.core_used):
            if len(cores) == n_cores:
                break
            if not used:
                state.core_used[i] = True
                cores.append(i)
        gpus = []
        for i, used in enumerate(state.gpu_used):
            if len(gpus) == n_gpus:
                break
            if not used:
                state.gpu_used[i] = True
                gpus.append(i)
        state.free_cores -= len(cores)
        state.free_gpus -= len(gpus)
        self._free_cores -= len(cores)
        self._free_gpus -= len(gpus)
        return SlotAssignment(
            node_uid=state.node.uid,
            core_indices=tuple(cores),
            gpu_indices=tuple(gpus),
        )

    def _advance_hint(self) -> None:
        while (
            self._scan_hint < len(self._worker_order)
            and self._states[self._worker_order[self._scan_hint]].free_cores == 0
        ):
            self._scan_hint += 1
