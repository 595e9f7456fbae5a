"""Agent-side scheduler: tracks free cores/GPUs per node and binds tasks to slots.

A pool is one node shape: a node count, cores and GPUs per node, and how
many of its nodes are agent nodes, reserved for the runtime itself; no
node is an object. `ResourcePool.split` cuts the worker nodes into the
contiguous partitions of a multi-partition agent.

Placement is deterministic first-fit: worker nodes in id order, resource
indices in ascending order. A task that does not fit on any single node
may spill across nodes in id order. Agent nodes never receive tasks.

A placement is a `(text, held)` tuple: the slot text the profile logs
("n3c0.1g2_n4c0": per node its uid, its core indices after `c` and its
GPU indices after `g`, nodes joined by `_`), and per node one `(node uid,
core mask, GPU mask)` (bit i: unit i). `_take` is the text's one writer
and `slot_units` its one reader, both of the grammar `_SLOT`.

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
from typing import Optional

import numpy as np

from .core import TaskSpec


class DoubleFree(ValueError):
    """Raised when a slot is released twice or was never bound."""


# a slot as `ResourcePool._take` writes it; an int of at most 9 digits keeps
# every unit key `TaskTable` makes of a node, a kind and an index below 2**63
_INT = r"\d{1,9}"
_PART = rf"n{_INT}(?:c{_INT}(?:\.{_INT})*)?(?:g{_INT}(?:\.{_INT})*)?"
_SLOT = rf"{_PART}(?:_{_PART})*"
_SLOT_TEXT = re.compile(_SLOT, re.ASCII)
_SLOT_LINE = re.compile(rf"^{_SLOT}$()", re.ASCII | re.MULTILINE)  # finds "" per slot line


def slot_units(texts: list[str]) -> np.ndarray:
    """Every resource unit of the slot texts, as rows of (position in
    `texts`, node, 1 for a GPU else 0, unit index): node parts in order,
    cores before GPUs.

    The texts are read column by column: each int is tagged by the letter
    before it (n for a text's first node, m for a later node, c or g for a
    unit group's first index, . for its next one). A text off the grammar
    `_SLOT` raises ValueError naming the first such text."""
    joined = "\n".join(texts)  # one pass checks them all, one text per line
    if texts and not len(_SLOT_LINE.findall(joined)) == len(texts) == joined.count("\n") + 1:
        bad = next(text for text in texts if not _SLOT_TEXT.fullmatch(text))
        raise ValueError(f"bad slot encoding: {bad!r}")
    tagged = "".join(texts).replace("_n", "m")
    value = np.fromstring(tagged.translate(str.maketrans("nmcg.", "     ")), np.int64, sep=" ")
    kind = np.frombuffer(tagged.translate(str.maketrans("", "", "0123456789")).encode(), np.uint8)
    at = np.arange(len(kind))
    node = (kind == ord("n")) | (kind == ord("m"))
    group = kind[np.maximum.accumulate(np.where(kind != ord("."), at, 0))]
    unit = ~node
    return np.column_stack((np.cumsum(kind == ord("n"))[unit] - 1,
                            value[np.maximum.accumulate(np.where(node, at, 0))][unit],
                            group[unit] == ord("g"), value[unit]))


class ResourcePool:
    """`n_nodes` nodes of `cores_per_node` cores and `gpus_per_node` GPUs;
    each worker node's occupancy is one int bitmask of its bound cores and
    one of its bound GPUs (bit i: unit i).

    Its node uids run from `first_uid`; the first `agent_nodes` nodes are
    reserved for the runtime; the rest, `workers`, are available to tasks.
    """

    def __init__(
        self,
        n_nodes: int,
        cores_per_node: int = 42,
        gpus_per_node: int = 6,
        agent_nodes: int = 1,
        first_uid: int = 0,
    ):
        if agent_nodes >= n_nodes:
            raise ValueError(
                f"agent_nodes ({agent_nodes}) must be < total nodes ({n_nodes})"
            )
        if agent_nodes < 0:
            raise ValueError("agent_nodes must be >= 0")
        self.n_nodes = n_nodes
        self.cores_per_node = cores_per_node
        self.gpus_per_node = gpus_per_node
        self.agent_nodes = agent_nodes
        self.workers = range(first_uid + agent_nodes, first_uid + n_nodes)
        self._uids = list(self.workers)  # uid ints shared by placements, not one each
        self.total_worker_cores = len(self.workers) * cores_per_node
        self.total_worker_gpus = len(self.workers) * gpus_per_node
        self._cores = [0] * len(self.workers)  # bound-core mask per worker
        self._gpus = [0] * len(self.workers)  # bound-GPU mask per worker
        self._free_cores = self.total_worker_cores
        self._free_gpus = self.total_worker_gpus
        self._shape: Optional[tuple[int, int]] = None  # set by the first placement

    def split(self, k: int) -> list["ResourcePool"]:
        """The worker nodes as k contiguous disjoint pools; `[self]` when k
        is 1.

        Partition pools carry no agent nodes of their own; the caller pairs
        each partition with its own backend instance and meta-schedules
        tasks round-robin across partitions.
        """
        n = len(self.workers)
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > n:
            raise ValueError(f"k ({k}) exceeds worker node count ({n})")
        if k == 1:
            return [self]
        base, extra = divmod(n, k)
        parts = []
        lo = self.workers.start
        for i in range(k):
            size = base + (1 if i < extra else 0)
            parts.append(ResourcePool(size, self.cores_per_node, self.gpus_per_node,
                                      agent_nodes=0, first_uid=lo))
            lo += size
        return parts

    def fits(self, spec: TaskSpec) -> bool:
        """True when `try_schedule(spec)` would place the task now."""
        return self._free_cores >= spec.cores and self._free_gpus >= spec.gpus

    def try_schedule(self, spec: TaskSpec) -> Optional[tuple[str, tuple]]:
        """First-fit `(text, held)` placement; None when there is no capacity now."""
        if not self.fits(spec):
            return None
        if (spec.cores, spec.gpus) != self._shape:
            self._index_shape((spec.cores, spec.gpus))
        if self._fit:  # single-node placement on the lowest fitting worker
            i = (self._fit & -self._fit).bit_length() - 1
            text, held = self._take(i, spec.cores, spec.gpus)
            return text, (held,)
        # multi-node spill over the workers with a unit the task needs, in order
        parts, held = [], []
        cores_left, gpus_left = spec.cores, spec.gpus
        candidates = self._open_cores | (self._open_gpus if spec.gpus else 0)
        while cores_left or gpus_left:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            free_c, free_g = self._free(i)
            take_c, take_g = min(free_c, cores_left), min(free_g, gpus_left)
            if take_c or take_g:
                part, node = self._take(i, take_c, take_g)
                parts.append(part)
                held.append(node)
                cores_left -= take_c
                gpus_left -= take_g
        return "_".join(parts), tuple(held)

    def unschedule(self, placement: tuple[str, tuple]) -> None:
        """Release every unit a `(text, held)` placement holds. A placement
        whose masks name a unit that is not bound (out of range, negative
        or already free), or that names a node twice or a node of another
        pool, raises DoubleFree and leaves the pool unchanged."""
        text, held = placement
        if len(held) > 1 and len({uid for uid, _, _ in held}) < len(held):
            raise DoubleFree(f"slot {text} names a node twice")
        freed = []
        for uid, cores, gpus in held:
            if uid not in self.workers:
                raise DoubleFree(f"slot references unknown node {uid}")
            i = uid - self.workers.start
            if cores & ~self._cores[i]:
                raise DoubleFree(f"slot {text} names a core that is not bound")
            if gpus & ~self._gpus[i]:
                raise DoubleFree(f"slot {text} names a GPU that is not bound")
            freed.append((i, cores, gpus))
        for i, cores, gpus in freed:
            self._cores[i] ^= cores
            self._gpus[i] ^= gpus
            self._free_cores += cores.bit_count()
            self._free_gpus += gpus.bit_count()
            self._mark(i)

    def _free(self, i: int) -> tuple[int, int]:
        """Free cores and free GPUs of worker `i`."""
        return (self.cores_per_node - self._cores[i].bit_count(),
                self.gpus_per_node - self._gpus[i].bit_count())

    def _index_shape(self, shape: tuple[int, int]) -> None:
        """Rebuild every pool-level set, the fit set for `shape`; O(nodes)."""
        self._shape = shape
        self._fit = 0  # bit i: worker i fits `_shape`
        self._open_cores = 0  # bit i: worker i has a free core
        self._open_gpus = 0  # bit i: worker i has a free GPU
        for i in range(len(self.workers)):
            self._mark(i)

    def _mark(self, i: int) -> None:
        """Set or clear worker `i`'s bit in the pool-level sets."""
        bit = 1 << i
        free_c, free_g = self._free(i)
        cores, gpus = self._shape
        self._fit = self._fit | bit if free_c >= cores and free_g >= gpus else self._fit & ~bit
        self._open_cores = self._open_cores | bit if free_c else self._open_cores & ~bit
        self._open_gpus = self._open_gpus | bit if free_g else self._open_gpus & ~bit

    def _take(self, i: int, n_cores: int, n_gpus: int) -> tuple[str, tuple[int, int, int]]:
        """Bind the lowest free `n_cores` cores and `n_gpus` GPUs of worker
        `i`: their slot text part and their (node uid, core mask, GPU mask)."""
        uid = self._uids[i]
        part, cores, gpus = f"n{uid}", 0, 0
        if n_cores:
            self._cores[i], cores, indices = _pick(self._cores[i], n_cores)
            part += "c" + indices
        if n_gpus:
            self._gpus[i], gpus, indices = _pick(self._gpus[i], n_gpus)
            part += "g" + indices
        self._free_cores -= n_cores
        self._free_gpus -= n_gpus
        self._mark(i)
        return part, (uid, cores, gpus)


def _pick(bound: int, k: int) -> tuple[int, int, str]:
    """`bound` with its `k` lowest free units bound, their mask and their text."""
    picked, before = [], bound
    for _ in range(k):
        low = ~bound & (bound + 1)
        bound |= low
        picked.append(low.bit_length() - 1)
    return bound, bound ^ before, ".".join(map(str, picked))
