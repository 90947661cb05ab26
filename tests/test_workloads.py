"""Tests for workload generators."""

import pytest

from repro.errors import SimulationError
from repro.workloads import (
    BfsWorkload,
    LinearAccessWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    StreamWorkload,
    ZipfianKVWorkload,
)
from repro.workloads.base import interleave_stores, store_period


ALL_WORKLOADS = [
    LinearAccessWorkload(1 << 20),
    LinearAccessWorkload(1 << 20, descending=True),
    RandomAccessWorkload(1 << 20, seed=1),
    BfsWorkload(1 << 20, seed=2),
    PointerChaseWorkload(1 << 20, seed=3),
    StreamWorkload(1 << 20),
    ZipfianKVWorkload(1 << 20, seed=4),
]


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
class TestCommonProperties:
    def test_produces_requested_ops(self, workload):
        ops = list(workload.ops(500))
        assert len(ops) == 500

    def test_addresses_within_footprint(self, workload):
        for op in workload.ops(500):
            assert 0 <= op.vaddr < workload.footprint_bytes + 256

    def test_deterministic(self, workload):
        first = [(op.kind, op.vaddr, op.retires) for op in workload.ops(300)]
        second = [(op.kind, op.vaddr, op.retires) for op in workload.ops(300)]
        assert first == second

    def test_describe_has_name(self, workload):
        info = workload.describe()
        assert info["name"] == workload.name
        assert info["footprint"] == workload.footprint_bytes


class TestInterleaveStores:
    def test_pure_loads(self):
        assert not any(interleave_stores(i, 1.0) for i in range(20))

    def test_pure_stores(self):
        assert all(interleave_stores(i, 0.0) for i in range(20))

    def test_three_to_one(self):
        flags = [interleave_stores(i, 0.75) for i in range(20)]
        assert sum(flags) == 5  # every 4th op

    def test_invalid_ratio(self):
        with pytest.raises(SimulationError):
            interleave_stores(0, 1.5)


class TestStorePeriod:
    def test_periods(self):
        assert store_period(1.0) is None
        assert store_period(0.0) == 1
        assert store_period(0.75) == 4
        assert store_period(0.98) == 50
        assert store_period(0.2) == 2  # never below 2 for a mixed stream

    @pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, 0.75, 0.8, 0.9, 0.95, 0.98, 1.0])
    def test_interleave_stores_follows_the_period(self, ratio):
        period = store_period(ratio)
        flags = [interleave_stores(i, ratio) for i in range(200)]
        assert flags == [period is not None and i % period == period - 1 for i in range(200)]

    @pytest.mark.parametrize("ratio", [-0.5, 1.5, float("nan")])
    def test_invalid_ratio(self, ratio):
        with pytest.raises(SimulationError, match="load_store_ratio"):
            store_period(ratio)

    @pytest.mark.parametrize("ratio", [-0.5, 1.5])
    def test_microbenchmarks_reject_a_bad_ratio_at_construction(self, ratio):
        with pytest.raises(SimulationError, match="load_store_ratio"):
            LinearAccessWorkload(1 << 20, load_store_ratio=ratio, warm_pass=True)
        with pytest.raises(SimulationError, match="load_store_ratio"):
            RandomAccessWorkload(1 << 20, load_store_ratio=ratio)


class TestLinear:
    def test_stride_respected(self):
        workload = LinearAccessWorkload(1 << 16, stride=128)
        addresses = [op.vaddr for op in workload.ops(10)]
        assert addresses == list(range(0, 1280, 128))

    def test_descending(self):
        workload = LinearAccessWorkload(1 << 12, stride=64, descending=True)
        addresses = [op.vaddr for op in workload.ops(4)]
        assert addresses[0] > addresses[-1]

    def test_wraps_around(self):
        workload = LinearAccessWorkload(256, stride=64)
        addresses = [op.vaddr for op in workload.ops(8)]
        assert addresses == [0, 64, 128, 192] * 2

    def test_warm_pass_prefix(self):
        workload = LinearAccessWorkload(8192, stride=64, warm_pass=True)
        ops = list(workload.ops(4))
        assert ops[0].kind == "store"
        assert [op.vaddr for op in ops[:2]] == [0, 4096]

    def test_load_store_mix(self):
        workload = LinearAccessWorkload(1 << 16, load_store_ratio=0.5)
        kinds = [op.kind for op in workload.ops(10)]
        assert "store" in kinds and "load" in kinds

    def test_invalid_stride(self):
        with pytest.raises(SimulationError):
            LinearAccessWorkload(1 << 16, stride=0)


class TestRandom:
    def test_seed_changes_stream(self):
        a = [op.vaddr for op in RandomAccessWorkload(1 << 20, seed=1).ops(100)]
        b = [op.vaddr for op in RandomAccessWorkload(1 << 20, seed=2).ops(100)]
        assert a != b

    def test_line_aligned(self):
        for op in RandomAccessWorkload(1 << 20, seed=3).ops(100):
            assert op.vaddr % 64 == 0

    def test_footprint_too_small(self):
        with pytest.raises(SimulationError):
            list(RandomAccessWorkload(32).ops(1))


#: The generators that draw 64-byte lines from their footprint.
LINE_GENERATORS = [RandomAccessWorkload, BfsWorkload, PointerChaseWorkload, ZipfianKVWorkload]


class TestBadInputsFailAtConstruction:
    """Bad generator inputs raise a :class:`SimulationError` naming the
    value when the workload is built, not a foreign error mid-stream."""

    @pytest.mark.parametrize("workload_class", LINE_GENERATORS, ids=lambda cls: cls.name)
    def test_footprint_under_one_line(self, workload_class):
        with pytest.raises(SimulationError, match="footprint of 32 bytes"):
            workload_class(32)

    @pytest.mark.parametrize("workload_class", LINE_GENERATORS, ids=lambda cls: cls.name)
    def test_one_line_is_enough(self, workload_class):
        ops = list(workload_class(64).ops(20))
        assert {op.vaddr for op in ops} == {0}

    def test_stream_footprint_under_three_strides(self):
        # At 512 bytes the written array would start at 512, outside
        # the footprint.
        with pytest.raises(SimulationError, match="512.*256"):
            StreamWorkload(512, stride=256)

    def test_stream_at_three_strides_stays_inside(self):
        workload = StreamWorkload(768, stride=256)
        assert max(op.vaddr for op in workload.ops(30)) < 768


class TestSuites:
    def test_bfs_mixes_sequential_and_random(self):
        ops = list(BfsWorkload(1 << 20, frontier_len=8, seed=5).ops(64))
        kinds = {op.kind for op in ops}
        assert kinds == {"load", "store"}

    def test_pointer_chase_speculation(self):
        ops = list(PointerChaseWorkload(1 << 20, spec_fraction=0.25, seed=6).ops(100))
        spec = [op for op in ops if not op.retires]
        assert 15 <= len(spec) <= 35

    def test_pointer_chase_no_speculation(self):
        ops = list(PointerChaseWorkload(1 << 20, spec_fraction=0.0).ops(50))
        assert all(op.retires for op in ops)

    def test_pointer_chase_invalid_fraction(self):
        with pytest.raises(SimulationError):
            PointerChaseWorkload(1 << 20, spec_fraction=1.0)

    def test_stream_three_streams(self):
        workload = StreamWorkload(3 << 20)
        ops = list(workload.ops(9))
        kinds = [op.kind for op in ops[:3]]
        assert kinds == ["load", "load", "store"]

    def test_zipf_concentrates_on_hot_lines(self):
        workload = ZipfianKVWorkload(1 << 22, theta=0.9, seed=7)
        addresses = [op.vaddr for op in workload.ops(2000)]
        unique = len(set(addresses))
        assert unique < 1500  # heavy repetition of hot keys

    def test_zipf_parameter_validation(self):
        with pytest.raises(SimulationError):
            ZipfianKVWorkload(1 << 20, theta=1.5)
        with pytest.raises(SimulationError):
            ZipfianKVWorkload(1 << 20, read_fraction=2.0)

    def test_zipf_read_fraction(self):
        loads = [
            op.kind for op in ZipfianKVWorkload(1 << 20, read_fraction=1.0, seed=8).ops(100)
        ]
        assert all(kind == "load" for kind in loads)
