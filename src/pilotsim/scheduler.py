"""Agent-side scheduler: tracks free cores/GPUs per node and binds tasks to slots.

Placement is deterministic first-fit: worker nodes in id order, resource
indices in ascending order. A task that does not fit on any single node
may spill across nodes in id order. Agent nodes are reserved for the
runtime itself and never receive tasks.

Each worker's bound cores and bound GPUs are two int bitmasks. Int bitsets
over the workers hold those that fit the last placed (cores, GPUs) shape
and those with a free core or GPU, so the first fit is a lowest set bit
and a spill visits only workers with a unit the task needs. Free totals
make `fits(spec)` O(1); a task fits exactly when `try_schedule` would
place it, and the agent's scheduler lane starts a placement only for a
task that fits. Modelling decision: a task is charged
`agent.schedule_cost_s` once, for its placement; a task that does not fit
waits uncharged until a release frees room, and waiting tasks are placed
in arrival order."""

from __future__ import annotations

import re
from dataclasses import dataclass
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
            cores = ".".join(map(str, a.core_indices))
            gpus = ".".join(map(str, a.gpu_indices))
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


class ResourcePool:
    """Nodes x (cores, GPUs); each worker node's occupancy is one int
    bitmask of its bound cores and one of its bound GPUs (bit i: unit i).

    The first `agent_nodes` nodes are reserved for the runtime; the rest
    are worker nodes available to tasks, numbered by their position.
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
        self._workers = self.worker_nodes
        self._index = {n.uid: i for i, n in enumerate(self._workers)}
        self._cores = [0] * len(self._workers)  # bound-core mask per worker
        self._gpus = [0] * len(self._workers)  # bound-GPU mask per worker
        self._free_cores = self.total_worker_cores
        self._free_gpus = self.total_worker_gpus
        self._shape: Optional[tuple[int, int]] = None  # set by the first placement

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

    def fits(self, spec: TaskSpec) -> bool:
        """True when `try_schedule(spec)` would place the task now."""
        return self._free_cores >= spec.cores and self._free_gpus >= spec.gpus

    def try_schedule(self, spec: TaskSpec) -> Optional[Slot]:
        """First-fit placement; returns None when there is no capacity now."""
        if not self.fits(spec):
            return None
        if (spec.cores, spec.gpus) != self._shape:
            self._index_shape((spec.cores, spec.gpus))
        if self._fit:  # single-node placement on the lowest fitting worker
            i = (self._fit & -self._fit).bit_length() - 1
            return Slot(assignments=(self._take(i, spec.cores, spec.gpus),))
        # multi-node spill over the workers with a unit the task needs, in order
        assignments = []
        cores_left, gpus_left = spec.cores, spec.gpus
        candidates = self._open_cores | (self._open_gpus if spec.gpus else 0)
        while cores_left or gpus_left:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            free_c, free_g = self._free(i)
            take_c, take_g = min(free_c, cores_left), min(free_g, gpus_left)
            if take_c or take_g:
                assignments.append(self._take(i, take_c, take_g))
                cores_left -= take_c
                gpus_left -= take_g
        return Slot(assignments=tuple(assignments))

    def unschedule(self, slot: Slot) -> None:
        """Release every resource held by `slot`. A slot that names a unit
        that is not bound (out of range or already free), or names a unit
        or a node twice, raises DoubleFree and leaves the pool unchanged."""
        assignments = slot.assignments
        n = len(assignments)
        if n > 1 and len({a.node_uid for a in assignments}) < n:
            raise DoubleFree(f"slot {slot.encode()} names a node twice")
        freed = []
        for a in assignments:
            i = self._index.get(a.node_uid)
            if i is None:
                raise DoubleFree(f"slot references unknown node {a.node_uid}")
            cores = _bound_mask(a.core_indices, self._cores[i])
            if cores is None:
                raise DoubleFree(f"slot {slot.encode()} names a core that is not bound")
            gpus = _bound_mask(a.gpu_indices, self._gpus[i])
            if gpus is None:
                raise DoubleFree(f"slot {slot.encode()} names a GPU that is not bound")
            freed.append((i, cores, gpus))
        for i, cores, gpus in freed:
            self._cores[i] ^= cores
            self._gpus[i] ^= gpus
            self._free_cores += cores.bit_count()
            self._free_gpus += gpus.bit_count()
            self._mark(i)

    def _free(self, i: int) -> tuple[int, int]:
        """Free cores and free GPUs of worker `i`."""
        node = self._workers[i]
        return node.cores - self._cores[i].bit_count(), node.gpus - self._gpus[i].bit_count()

    def _index_shape(self, shape: tuple[int, int]) -> None:
        """Rebuild every pool-level set, the fit set for `shape`; O(nodes)."""
        self._shape = shape
        self._fit = 0  # bit i: worker i fits `_shape`
        self._open_cores = 0  # bit i: worker i has a free core
        self._open_gpus = 0  # bit i: worker i has a free GPU
        for i in range(len(self._workers)):
            self._mark(i)

    def _mark(self, i: int) -> None:
        """Set or clear worker `i`'s bit in the pool-level sets."""
        bit = 1 << i
        free_c, free_g = self._free(i)
        cores, gpus = self._shape
        self._fit = self._fit | bit if free_c >= cores and free_g >= gpus else self._fit & ~bit
        self._open_cores = self._open_cores | bit if free_c else self._open_cores & ~bit
        self._open_gpus = self._open_gpus | bit if free_g else self._open_gpus & ~bit

    def _take(self, i: int, n_cores: int, n_gpus: int) -> SlotAssignment:
        self._cores[i], cores = _pick(self._cores[i], n_cores)
        self._gpus[i], gpus = _pick(self._gpus[i], n_gpus)
        self._free_cores -= n_cores
        self._free_gpus -= n_gpus
        self._mark(i)
        return SlotAssignment(self._workers[i].uid, cores, gpus)


def _pick(bound: int, k: int) -> tuple[int, tuple[int, ...]]:
    """`bound` with its `k` lowest free units bound, and their indices."""
    picked = []
    for _ in range(k):
        low = ~bound & (bound + 1)
        bound |= low
        picked.append(low.bit_length() - 1)
    return bound, tuple(picked)


def _bound_mask(indices: tuple[int, ...], bound: int) -> Optional[int]:
    """The mask of `indices` if they name distinct units set in `bound`."""
    mask = 0
    for i in indices:
        bit = 1 << i if 0 <= i < bound.bit_length() else 0
        if not bit & bound & ~mask:
            return None
        mask |= bit
    return mask
