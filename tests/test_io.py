"""Tests for perf CSV and trace I/O."""

import numpy as np
import pytest

from repro.counters.perf_io import (
    format_perf_csv,
    parse_perf_csv,
    read_perf_csv,
    write_perf_csv,
)
from repro.counters.sampling import SampleMatrix
from repro.errors import ConfigurationError, SimulationError
from repro.mmu import MemoryOp
from repro.workloads import LinearAccessWorkload
from repro.workloads.trace import (
    TraceWorkload,
    format_trace,
    parse_trace_line,
    write_trace,
)

PERF_CSV = """\
# started on Thu Jun 11 10:00:00 2026
1.000100000,100,,dtlb_load_misses.miss_causes_a_walk,1000000,100.00
1.000100000,40,,dtlb_load_misses.pde_cache_miss,1000000,100.00
2.000200000,110,,dtlb_load_misses.miss_causes_a_walk,1000000,100.00
2.000200000,44,,dtlb_load_misses.pde_cache_miss,1000000,100.00
"""


class TestPerfCsvParsing:
    def test_basic_parse(self):
        matrix = parse_perf_csv(PERF_CSV)
        assert matrix.n_samples == 2
        assert matrix.counters == ["load.causes_walk", "load.pde$_miss"]
        assert matrix.samples[0].tolist() == [100.0, 40.0]

    def test_comments_and_blanks_skipped(self):
        matrix = parse_perf_csv("\n" + PERF_CSV + "\n\n")
        assert matrix.n_samples == 2

    def test_not_counted_becomes_zero(self):
        text = PERF_CSV + "3.0003,<not counted>,,dtlb_load_misses.miss_causes_a_walk,0,0\n"
        text += "3.0003,50,,dtlb_load_misses.pde_cache_miss,1,1\n"
        matrix = parse_perf_csv(text)
        assert matrix.samples[2].tolist() == [0.0, 50.0]

    def test_unknown_event_strict(self):
        text = "1.0,5,,mystery.event,1,1\n2.0,6,,mystery.event,1,1\n"
        with pytest.raises(ConfigurationError):
            parse_perf_csv(text)

    def test_unknown_event_lenient(self):
        text = "1.0,5,,mystery.event,1,1\n2.0,6,,mystery.event,1,1\n"
        matrix = parse_perf_csv(text, strict=False)
        assert matrix.counters == ["mystery.event"]

    def test_bad_field_count(self):
        with pytest.raises(ConfigurationError):
            parse_perf_csv("1.0,5\n2.0,6\n")

    def test_bad_timestamp(self):
        with pytest.raises(ConfigurationError):
            parse_perf_csv("abc,5,,x,1,1\nxyz,6,,x,1,1\n")

    def test_bad_count(self):
        with pytest.raises(ConfigurationError):
            parse_perf_csv("1.0,??,,x,1,1\n2.0,6,,x,1,1\n")

    def test_single_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_perf_csv("1.0,5,,dtlb_load_misses.stlb_hit,1,1\n")

    @pytest.mark.parametrize("count", ["nan", "inf"])
    def test_non_finite_count_rejected(self, count):
        text = PERF_CSV.replace(
            "2.000200000,44,", "2.000200000,%s," % count
        )
        with pytest.raises(ConfigurationError) as info:
            parse_perf_csv(text)
        assert "'load.pde$_miss'" in str(info.value)
        assert "interval row 1" in str(info.value)

    def test_roundtrip(self, tmp_path):
        original = SampleMatrix(
            ["load.causes_walk", "load.pde$_miss"],
            np.array([[100.0, 40.0], [110.0, 44.0]]),
        )
        path = tmp_path / "perf.csv"
        write_perf_csv(original, str(path))
        parsed = read_perf_csv(str(path))
        assert parsed.counters == original.counters
        assert np.allclose(parsed.samples, original.samples)

    def test_format_uses_full_event_names(self):
        matrix = SampleMatrix(["load.causes_walk"], np.array([[1.0], [2.0]]))
        text = format_perf_csv(matrix)
        assert "dtlb_load_misses.miss_causes_a_walk" in text


class TestTrace:
    def test_parse_line_variants(self):
        assert parse_trace_line("L 0x1000") == ("load", 0x1000, True)
        assert parse_trace_line("S 4096") == ("store", 4096, True)
        assert parse_trace_line("l 0x20") == ("load", 0x20, False)
        assert parse_trace_line("s 0x20") == ("store", 0x20, False)

    def test_parse_comments_and_blanks(self):
        assert parse_trace_line("# comment") is None
        assert parse_trace_line("   ") is None
        assert parse_trace_line("L 0x10 # inline") == ("load", 0x10, True)

    def test_parse_bad_lines(self):
        with pytest.raises(SimulationError):
            parse_trace_line("X 0x10")
        with pytest.raises(SimulationError):
            parse_trace_line("L zz")
        with pytest.raises(SimulationError):
            parse_trace_line("L")

    def test_negative_address_rejected_with_line_number(self):
        with pytest.raises(SimulationError, match="bad address on trace line 3: '-0x40'"):
            parse_trace_line("L -0x40", 3)
        with pytest.raises(SimulationError, match="trace line 2"):
            TraceWorkload(["L 0x1000", "s -64"])

    def test_trace_workload_from_lines(self):
        workload = TraceWorkload(["L 0x1000", "S 0x2000", "l 0x3000"])
        ops = list(workload.ops(10))
        assert len(ops) == 3
        assert ops[0].kind == "load" and ops[0].vaddr == 0x1000
        assert not ops[2].retires

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            TraceWorkload(["# nothing"])

    def test_record_replay_roundtrip(self, tmp_path):
        source = LinearAccessWorkload(1 << 16, stride=64, load_store_ratio=0.75)
        path = tmp_path / "run.trace"
        write_trace(source, str(path), 100)
        replay = TraceWorkload(str(path))
        original = [(op.kind, op.vaddr, op.retires) for op in source.ops(100)]
        replayed = [(op.kind, op.vaddr, op.retires) for op in replay.ops(100)]
        assert original == replayed

    def test_trace_drives_simulator(self):
        from repro.mmu import MMUSimulator

        trace = TraceWorkload(["L 0x0", "L 0x40", "S 0x1000"])
        simulator = MMUSimulator()
        simulator.run(trace.ops(3))
        assert simulator.counters["load.ret"] == 2
        assert simulator.counters["store.ret"] == 1

    def test_format_trace_speculative(self):
        text = format_trace([MemoryOp("load", 0x10, retires=False)])
        assert text == "l 0x10\n"

    def test_length_and_describe(self):
        workload = TraceWorkload(["L 0x1000", "S 0x2000"])
        assert len(workload) == 2
        assert workload.describe()["length"] == 2
