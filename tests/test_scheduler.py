import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotsim import TaskSpec, parse_config_file, scheduler
from pilotsim.pilot import PilotRun
from pilotsim.scheduler import DoubleFree, ResourcePool, slot_units

from conftest import Slot, SlotAssignment


def spec(cores=1, gpus=0):
    return TaskSpec(cores=cores, gpus=gpus, duration_s=1.0)


def n_cores(placement) -> int:
    """The cores a placement holds, over all its nodes."""
    return sum(len(a.core_indices) for a in Slot.decode(placement[0]).assignments)


def assert_free(pool, cores, gpus=None):
    """`pool` has exactly `cores` free cores, and `gpus` free GPUs when
    given, as `fits` sees them: it fits that many and not one more. A task
    holds at least one core, so the GPUs show only while a core is free."""
    assert cores == 0 or pool.fits(spec(cores))
    assert not pool.fits(spec(cores + 1))
    if gpus is not None and cores:
        assert pool.fits(spec(1, gpus)) and not pool.fits(spec(1, gpus + 1))


class NaiveFreeList:
    """Brute-force first-fit reference: plain list scans, no bookkeeping."""

    def __init__(self, n_nodes, cores_per_node, gpus_per_node=0):
        self.free_cores = [list(range(cores_per_node)) for _ in range(n_nodes)]
        self.free_gpus = [list(range(gpus_per_node)) for _ in range(n_nodes)]

    def alloc(self, cores, gpus=0):
        for node in range(len(self.free_cores)):
            if len(self.free_cores[node]) >= cores and len(self.free_gpus[node]) >= gpus:
                c = [self.free_cores[node].pop(0) for _ in range(cores)]
                g = [self.free_gpus[node].pop(0) for _ in range(gpus)]
                return [(node, tuple(c), tuple(g))]
        total_c = sum(len(f) for f in self.free_cores)
        total_g = sum(len(f) for f in self.free_gpus)
        if total_c < cores or total_g < gpus:
            return None
        out = []
        need_c, need_g = cores, gpus
        for node in range(len(self.free_cores)):
            take_c = min(len(self.free_cores[node]), need_c)
            take_g = min(len(self.free_gpus[node]), need_g)
            if take_c == 0 and take_g == 0:
                continue
            c = [self.free_cores[node].pop(0) for _ in range(take_c)]
            g = [self.free_gpus[node].pop(0) for _ in range(take_g)]
            out.append((node, tuple(c), tuple(g)))
            need_c -= take_c
            need_g -= take_g
            if need_c == 0 and need_g == 0:
                break
        return out

    def free(self, placement):
        for node, cores, gpus in placement:
            self.free_cores[node] = sorted(self.free_cores[node] + list(cores))
            self.free_gpus[node] = sorted(self.free_gpus[node] + list(gpus))

    def n_free_cores(self):
        return sum(len(f) for f in self.free_cores)


def as_placement(placement):
    """A placement's slot text as the oracle's (node, cores, GPUs) list."""
    return [(a.node_uid, a.core_indices, a.gpu_indices)
            for a in Slot.decode(placement[0]).assignments]


def bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def masks_text(placement) -> str:
    """The slot text of the units a placement's masks name."""
    return Slot(tuple(SlotAssignment(uid, bits(cores), bits(gpus))
                      for uid, cores, gpus in placement[1])).encode()


class TestTrySchedule:
    def test_first_fit_smallest_indices(self):
        pool = ResourcePool(1, cores_per_node=2, gpus_per_node=0, agent_nodes=0)
        slot = pool.try_schedule(spec(1))
        assert as_placement(slot) == [(0, (0,), ())]

    def test_paper_scale_concurrency_fits(self):
        # 25 worker nodes x 42 cores hold 1024 one-core tasks concurrently
        pool = ResourcePool(26, cores_per_node=42, gpus_per_node=0, agent_nodes=1)
        slots = [pool.try_schedule(spec(1)) for i in range(1024)]
        assert all(s is not None for s in slots)
        assert_free(pool, 25 * 42 - 1024)

    def test_multi_node_spill(self):
        pool = ResourcePool(3, cores_per_node=4, gpus_per_node=0, agent_nodes=1)
        text, held = pool.try_schedule(spec(6))
        assert text == "n1c0.1.2.3_n2c0.1"
        assert held == ((1, 0b1111, 0), (2, 0b11, 0))

    def test_placements_on_a_node_share_its_uid(self):
        # a uid above 256 worked out per placement would be a new int each
        # time, held by every live placement
        pool = ResourcePool(301, cores_per_node=2, gpus_per_node=0, agent_nodes=300)
        first, second = pool.try_schedule(spec(1)), pool.try_schedule(spec(1))
        assert first[1] == ((300, 0b1, 0),) and second[1] == ((300, 0b10, 0),)
        assert first[1][0][0] is second[1][0][0]

    def test_no_capacity_is_not_an_error(self):
        pool = ResourcePool(1, cores_per_node=2, gpus_per_node=0, agent_nodes=0)
        pool.try_schedule(spec(2))
        assert pool.try_schedule(spec(1)) is None

    def test_random_trace_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        pool = ResourcePool(5, cores_per_node=6, gpus_per_node=2, agent_nodes=0)
        oracle = NaiveFreeList(5, 6, 2)
        live = []
        for step in range(400):
            if live and (rng.random() < 0.45 or not pool.fits(spec(1))):
                idx = int(rng.integers(len(live)))
                slot, placement = live.pop(idx)
                pool.unschedule(slot)
                oracle.free(placement)
            else:
                cores = int(rng.integers(1, 4))
                gpus = int(rng.integers(0, 2))
                slot = pool.try_schedule(spec(cores, gpus))
                placement = oracle.alloc(cores, gpus)
                if slot is None:
                    assert placement is None
                else:
                    assert as_placement(slot) == placement
                    live.append((slot, placement))
            assert_free(pool, oracle.n_free_cores())

    @pytest.mark.parametrize("gpus", [0, 1])
    def test_single_shape_trace_matches_naive_oracle(self, gpus):
        # one 8-core shape on 42-core nodes: the fit set is kept, never rebuilt
        rng = np.random.default_rng(5)
        pool = ResourcePool(6, cores_per_node=42, gpus_per_node=6, agent_nodes=0)
        oracle = NaiveFreeList(6, 42, 6)
        live, spills = [], 0
        for step in range(2000):
            if live and (rng.random() < 0.3 or not pool.fits(spec(8, gpus))):
                slot, placement = live.pop(int(rng.integers(len(live))))
                pool.unschedule(slot)
                oracle.free(placement)
            else:
                slot = pool.try_schedule(spec(8, gpus))
                placement = oracle.alloc(8, gpus)
                assert as_placement(slot) == placement
                live.append((slot, placement))
                spills += len(placement) > 1
            assert_free(pool, oracle.n_free_cores())
        assert spills > 20

    def test_text_matches_masks(self):
        # mixed shapes with GPUs spill often: the text built as units are
        # bound names the units the masks hold, and every live unit once
        rng = np.random.default_rng(13)
        pool = ResourcePool(5, cores_per_node=4, gpus_per_node=2, agent_nodes=1)
        live, spills = [], 0
        for step in range(600):
            if live and (rng.random() < 0.4 or not pool.fits(spec(1))):
                pool.unschedule(live.pop(int(rng.integers(len(live)))))
                continue
            placement = pool.try_schedule(spec(int(rng.integers(1, 7)), int(rng.integers(0, 3))))
            if placement is None:
                continue
            assert placement[0] == masks_text(placement)
            # the grammar's one reader gives back the units the masks hold
            assert slot_units([placement[0]]).tolist() == [
                [0, uid, gpu, i] for uid, cores, gpus in placement[1]
                for gpu, mask in ((0, cores), (1, gpus)) for i in bits(mask)]
            live.append(placement)
            spills += len(placement[1]) > 1
            units = [(uid, kind, i) for _, held in live for uid, cores, gpus in held
                     for kind, mask in (("c", cores), ("g", gpus)) for i in bits(mask)]
            assert len(units) == len(set(units))
        assert spills > 50


class TestUnschedule:
    def test_bind_then_release_restores_pool(self):
        pool = ResourcePool(2, cores_per_node=4, gpus_per_node=2, agent_nodes=1)
        slot = pool.try_schedule(spec(3, 1))
        pool.unschedule(slot)
        assert_free(pool, pool.total_worker_cores, pool.total_worker_gpus)

    def test_double_free_rejected(self):
        pool = ResourcePool(2, cores_per_node=4, gpus_per_node=0, agent_nodes=1)
        slot = pool.try_schedule(spec(2))
        pool.unschedule(slot)
        with pytest.raises(DoubleFree):
            pool.unschedule(slot)

    @pytest.mark.parametrize("text,masks,message", [pytest.param(*row, id=row[0]) for row in [
        ("n1c4", ((1, 1 << 4, 0),), "names a core that is not bound"),
        ("n1g2", ((1, 0, 1 << 2),), "names a GPU that is not bound"),
        ("n1g1", ((1, 0, 1 << 1),), "names a GPU that is not bound"),
        ("n1c-1", ((1, -1, 0),), "names a core that is not bound"),
        ("n1g-2", ((1, 0, -2),), "names a GPU that is not bound"),
        ("n1c0_n1c0", ((1, 1, 0), (1, 1, 0)), "names a node twice"),
        ("n7c0", ((7, 1, 0),), "references unknown node 7"),
        ("n1c0_n0c0", ((1, 1, 0), (0, 1, 0)), "references unknown node 0"),
    ]])
    def test_unbound_index_rejected_and_pool_unchanged(self, text, masks, message):
        # the 4-core node is fully held; a negative mask (the placement of a
        # negative index) names units past the end and, for -1, held ones
        # too; node 0 is the agent node, not in this pool
        pool = ResourcePool(2, cores_per_node=4, gpus_per_node=2, agent_nodes=1)
        held = pool.try_schedule(spec(4, 1))
        assert held == ("n1c0.1.2.3g0", ((1, 0b1111, 0b1),))
        with pytest.raises(DoubleFree, match=message):
            pool.unschedule((text, masks))
        assert_free(pool, 0, 1)
        assert pool.try_schedule(spec(1)) is None  # no double booking
        pool.unschedule(held)
        assert_free(pool, 4, 2)

    def test_placement_of_a_sibling_partition_rejected(self):
        # each partition of a split pool knows only its own uid range
        left, right = ResourcePool(5, cores_per_node=4, gpus_per_node=0).split(2)
        held = left.try_schedule(spec(2))
        assert held == ("n1c0.1", ((1, 0b11, 0),))
        with pytest.raises(DoubleFree, match="slot references unknown node 1"):
            right.unschedule(held)
        assert_free(left, 6)
        assert_free(right, 8)
        left.unschedule(held)
        assert_free(left, 8)

    def test_interleaved_counter_oracle(self):
        rng = np.random.default_rng(11)
        pool = ResourcePool(4, cores_per_node=8, gpus_per_node=0, agent_nodes=0)
        capacity = 4 * 8
        live = []
        bound = 0
        for i in range(100):
            if live and rng.random() < 0.4:
                slot = live.pop(int(rng.integers(len(live))))
                pool.unschedule(slot)
                bound -= n_cores(slot)
            else:
                cores = int(rng.integers(1, 5))
                slot = pool.try_schedule(spec(cores))
                if slot is not None:
                    live.append(slot)
                    bound += cores
            assert_free(pool, capacity - bound)


class TestInvariants:
    def test_conservation_and_no_overlap(self):
        rng = np.random.default_rng(3)
        pool = ResourcePool(4, cores_per_node=5, gpus_per_node=1, agent_nodes=1)
        total = pool.total_worker_cores
        live = []
        for i in range(300):
            if live and rng.random() < 0.5:
                pool.unschedule(live.pop(int(rng.integers(len(live)))))
            else:
                slot = pool.try_schedule(spec(int(rng.integers(1, 4))))
                if slot is not None:
                    live.append(slot)
            bound = sum(map(n_cores, live))
            assert_free(pool, total - bound)
            seen = set()
            for s in live:
                for a in Slot.decode(s[0]).assignments:
                    for c in a.core_indices:
                        key = (a.node_uid, "c", c)
                        assert key not in seen
                        seen.add(key)

    def test_single_core_saturation(self):
        pool = ResourcePool(3, cores_per_node=7, gpus_per_node=0, agent_nodes=1)
        free = pool.total_worker_cores
        for i in range(free):
            assert pool.try_schedule(spec(1)) is not None
        assert pool.try_schedule(spec(1)) is None


class TestSlotEncoding:
    def test_round_trip(self):
        pool = ResourcePool(3, cores_per_node=4, gpus_per_node=2, agent_nodes=1)
        text, _ = pool.try_schedule(spec(6, 2))
        assert Slot.decode(text).encode() == text == "n1c0.1.2.3g0.1_n2c0.1"


def decoded_units(texts):
    """`slot_units` spelled out with `Slot.decode`."""
    return [x for pos, text in enumerate(texts)
            for a in Slot.decode(text).assignments
            for gpu, indices in ((0, a.core_indices), (1, a.gpu_indices))
            for i in indices
            for x in (pos, a.node_uid, gpu, i)]


def units(texts):
    """`slot_units` as a flat list of its (position, node, GPU, index) rows."""
    return slot_units(texts).ravel().tolist()


def decode_outcome(decode, texts):
    try:
        return decode(texts)
    except ValueError as exc:
        return (type(exc), str(exc))


index_lists = st.lists(st.integers(0, 99), max_size=4)

# texts in the scheduler's grammar, and texts off it; `Slot.decode` reads
# the first three of the latter too, "n-1c0" as node -1
IN_GRAMMAR = ["n01c002", "n1", "n1g0.3", "n1c0_n2g1"]
OFF_GRAMMAR = ["n١c0", "n+1c0", "n-1c0", "", "n", "n1c", "n1c0.", "n1g0c1", "c0", "n1_",
               "n1c 0", "x1"]


class TestSlotUnits:
    @given(st.lists(st.lists(st.tuples(st.integers(0, 999), index_lists, index_lists),
                             min_size=1, max_size=3), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_encoded_slots_match_decode(self, slots):
        texts = [Slot(tuple(SlotAssignment(n, tuple(c), tuple(g)) for n, c, g in parts)).encode()
                 for parts in slots]
        assert units(texts) == decoded_units(texts)

    @pytest.mark.parametrize("text", IN_GRAMMAR + OFF_GRAMMAR)
    def test_any_text_matches_decode(self, text):
        texts = ["n1c0", text]
        if text in IN_GRAMMAR:
            assert units(texts) == decoded_units(texts)
        else:
            assert decode_outcome(units, texts) == (ValueError, f"bad slot encoding: {text!r}")

    def test_rows_in_text_order(self):
        assert units(["n3c0.1g2_n4c0", "n1"]) == [0, 3, 0, 0, 0, 3, 0, 1, 0, 3, 1, 2,
                                                  0, 4, 0, 0]
        assert units([]) == []

    def test_a_newline_does_not_split_a_text(self):
        # as many lines in the grammar as texts, but not one a text
        texts = ["n1\nn2", "x"]
        assert decode_outcome(units, texts) == (ValueError, "bad slot encoding: 'n1\\nn2'")

    @pytest.mark.parametrize("text", ["n1234567890c0", "n1c0.1234567890",
                                      "n5c1099511627775", "n1_n0000000001g0"])
    def test_an_int_of_ten_digits_is_refused(self, text):
        # a longer int still fits int64, but the unit key (node * 2 + gpu)
        # * (max index + 1) + index made of it can wrap round, so that two
        # cores share a key
        assert decode_outcome(units, ["n8388608c0", text]) == (
            ValueError, f"bad slot encoding: {text!r}")

    def test_nine_digit_ints_keep_unit_keys_apart(self):
        big = 10 ** 9 - 1
        assert units([f"n{big}c{big}g0", "n0c0"]) == [0, big, 0, big, 0, big, 1, 0,
                                                      1, 0, 0, 0]
        assert ((big * 2 + 1) * (big + 1) + big).bit_length() < 63


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def scheduler_lines(cfg) -> int:
    """Line events run in frames of scheduler.py during `PilotRun.run()`."""
    run = PilotRun(cfg, seed=1)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == scheduler.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run.run()
    finally:
        sys.settrace(previous)
    return count


class TestScaling:
    @pytest.mark.parametrize("shape", ["8 cores", "1 core + 1 GPU"])
    def test_scheduler_work_grows_linearly(self, shape):
        # counted in executed lines, not seconds, so the bound is exact
        counts = []
        for n in (2048, 4096):
            cfg = parse_config_file(os.path.join(CONFIGS, "exp4_optimized.cfg"))
            cfg.workload.n_tasks = n
            if shape == "8 cores":
                cfg.workload.cores_per_task = 8
            else:
                cfg.workload.gpus_per_task = 1
                cfg.pool.autosize = 0
                cfg.pool.nodes = n // 6 + 2
            counts.append(scheduler_lines(cfg))
        assert counts[1] / counts[0] <= 2.2, counts
