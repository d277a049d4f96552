"""Unit-level tests of the cycle-level processor on tiny hand-built traces."""

import pytest

from repro.engine import DeadlockError, SimulationEngine, simulate
from repro.isa import InstructionBuilder, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace


def run_trace(trace, **config_kwargs):
    # Warm-up is enabled by default so the micro-benchmarks below measure the
    # pipeline behaviour of interest rather than cold instruction-cache misses.
    defaults = dict(warmup=True, enable_wrong_path=False)
    defaults.update(config_kwargs)
    return simulate(trace, ProcessorConfig(**defaults))


def make_trace(name, instructions):
    return Trace(name=name, focus_class=RegClass.INT, instructions=instructions)


class TestBasicExecution:
    def test_commits_every_instruction(self, straightline_trace, quick_config):
        stats = simulate(straightline_trace, quick_config)
        assert stats.committed_instructions == len(straightline_trace)
        assert stats.cycles > 0
        assert stats.ipc > 0

    def test_mixed_trace_completes(self, mixed_trace, quick_config):
        stats = simulate(mixed_trace, quick_config)
        assert stats.committed_instructions == len(mixed_trace)
        assert stats.branches_resolved == 1

    def test_dependence_chain_latency(self):
        # A chain of N dependent single-cycle ALU ops takes at least N cycles.
        builder = InstructionBuilder()
        n = 20
        builder.alu(dest=1, srcs=(2,))
        for _ in range(n - 1):
            builder.alu(dest=1, srcs=(1,))
        stats = run_trace(make_trace("chain", builder.trace()))
        assert stats.cycles >= n

    def test_independent_ops_exploit_width(self):
        # Independent ALU ops should commit at much better than 1 IPC.
        builder = InstructionBuilder()
        for i in range(64):
            builder.alu(dest=1 + i % 16, srcs=(20 + i % 4,))
        stats = run_trace(make_trace("parallel", builder.trace()))
        assert stats.ipc > 2.0

    def test_fp_latency_respected(self):
        builder = InstructionBuilder()
        n = 10
        builder.alu(dest=1, srcs=(2,), fp=True)
        for _ in range(n - 1):
            builder.alu(dest=1, srcs=(1,), fp=True)          # 4-cycle FP adds
        stats = run_trace(make_trace("fpchain", builder.trace()))
        assert stats.cycles >= 4 * n

    def test_max_instructions_limit(self, small_swim_trace):
        config = ProcessorConfig(warmup=False, enable_wrong_path=False)
        stats = simulate(small_swim_trace, config, max_instructions=200)
        assert 200 <= stats.committed_instructions <= 210

    def test_max_cycles_limit(self, small_swim_trace):
        config = ProcessorConfig(warmup=False, enable_wrong_path=False)
        stats = simulate(small_swim_trace, config, max_cycles=50)
        assert stats.cycles <= 51

    def test_step_and_finished(self, straightline_trace, quick_config):
        engine = SimulationEngine(straightline_trace, quick_config)
        assert not engine.finished
        for _ in range(200):
            engine.step()
            if engine.finished:
                break
        assert engine.finished


class TestRegisterPressure:
    def test_tight_file_stalls_dispatch(self):
        # 33 live integer values cannot fit in 40 physical registers minus the
        # 32 architectural ones, so dispatch must stall on the free list.
        builder = InstructionBuilder()
        for _block in range(12):
            for i in range(16):
                builder.alu(dest=i, srcs=(16 + (i % 8),))
        trace = make_trace("pressure", builder.trace())
        tight = run_trace(trace, num_physical_int=40, num_physical_fp=40)
        loose = run_trace(trace, num_physical_int=160, num_physical_fp=160)
        assert tight.dispatch_stalls["no_free_int_register"] > 0
        assert loose.dispatch_stalls["no_free_int_register"] == 0
        assert loose.ipc >= tight.ipc

    def test_conservation_of_registers(self, mixed_trace):
        config = ProcessorConfig(warmup=False, enable_wrong_path=False)
        engine = SimulationEngine(mixed_trace, config)
        engine.run()
        for register_file in engine.state.register_files.values():
            register_file.check_invariants()

    def test_quiescent_register_count(self, small_gcc_trace):
        for policy in ("conv", "basic", "extended"):
            config = ProcessorConfig(warmup=False, enable_wrong_path=True,
                                     release_policy=policy)
            engine = SimulationEngine(small_gcc_trace, config)
            engine.run()
            int_file = engine.state.register_files[RegClass.INT]
            # Everything has committed: only architectural versions remain —
            # no physical register was leaked and none was double freed.
            assert int_file.n_allocated == 32, policy
            assert engine.state.register_files[RegClass.FP].n_allocated == 32, policy


class TestBranchesAndMemory:
    def test_misprediction_penalty_costs_cycles(self):
        builder = InstructionBuilder()
        # Alternating taken/not-taken branch that gshare learns, followed by
        # one with random-looking behaviour.
        for i in range(60):
            builder.alu(dest=1, srcs=(2,))
            builder.branch(taken=(i * 7 + 3) % 5 < 2, target=0x8000, srcs=(1,))
        trace = make_trace("branches", builder.trace())
        # No warm-up: the predictor starts cold so some mispredictions occur.
        stats = run_trace(trace, warmup=False)
        assert stats.branches_resolved == 60
        assert stats.branch_mispredictions > 0
        assert stats.cycles > 60

    def test_wrong_path_instructions_fetched_when_enabled(self, small_gcc_trace):
        with_wp = simulate(small_gcc_trace,
                           ProcessorConfig(warmup=False, enable_wrong_path=True),
                           max_instructions=1000)
        without_wp = simulate(small_gcc_trace,
                              ProcessorConfig(warmup=False, enable_wrong_path=False),
                              max_instructions=1000)
        assert with_wp.fetched_wrong_path > 0
        assert without_wp.fetched_wrong_path == 0

    def test_load_store_forwarding_possible(self):
        builder = InstructionBuilder()
        builder.alu(dest=1, srcs=(2,))
        builder.store(value_reg=1, addr_reg=3, mem_addr=0x5000)
        builder.load(dest=4, addr_reg=3, mem_addr=0x5000)
        builder.alu(dest=5, srcs=(4,))
        stats = run_trace(make_trace("forward", builder.trace()))
        assert stats.forwarded_loads == 1

    def test_cache_miss_latency_visible(self):
        builder = InstructionBuilder()
        # Two dependent loads to far-apart addresses: cold misses reach memory.
        builder.load(dest=1, addr_reg=2, mem_addr=0x10000)
        builder.alu(dest=3, srcs=(1,))
        trace = make_trace("coldload", builder.trace())
        stats = run_trace(trace, warmup=False)
        assert stats.cycles > 60           # 1 + 12 + 50 cycle miss on the path
        assert stats.l1d_miss_rate == 1.0

    def test_warmup_removes_cold_misses(self):
        builder = InstructionBuilder()
        builder.load(dest=1, addr_reg=2, mem_addr=0x10000)
        builder.alu(dest=3, srcs=(1,))
        trace = make_trace("warmload", builder.trace())
        stats = run_trace(trace, warmup=True)
        assert stats.l1d_miss_rate == 0.0


class TestExceptions:
    def test_exceptions_taken_and_completes(self, small_gcc_trace):
        config = ProcessorConfig(warmup=False, exception_rate=0.01, seed=3)
        stats = simulate(small_gcc_trace, config, max_instructions=1500)
        assert stats.exceptions_taken > 0
        assert stats.committed_instructions >= 1500

    def test_exceptions_with_early_release_policies(self, small_swim_trace):
        for policy in ("basic", "extended"):
            config = ProcessorConfig(warmup=False, exception_rate=0.02, seed=5,
                                     release_policy=policy,
                                     num_physical_int=48, num_physical_fp=48)
            stats = simulate(small_swim_trace, config, max_instructions=1200)
            assert stats.exceptions_taken > 0
            assert stats.committed_instructions >= 1200

    def test_ipc_reported_even_with_exceptions(self, small_gcc_trace):
        config = ProcessorConfig(warmup=False, exception_rate=0.05, seed=1)
        stats = simulate(small_gcc_trace, config, max_instructions=500)
        assert stats.ipc > 0


class TestDiagnostics:
    def test_deadlock_detection(self, straightline_trace):
        engine = SimulationEngine(straightline_trace,
                                  ProcessorConfig(warmup=True, enable_wrong_path=False))
        ros = engine.state.ros
        # Sabotage: make the oldest in-flight entry wait on a producer that
        # never exists, so commit can never make progress.
        for _ in range(200):
            engine.step()
            if not ros.is_empty:
                break
        assert not ros.is_empty
        for entry in ros:
            entry.wait_producers.add(10_000_000)
        with pytest.raises(DeadlockError):
            engine.run(deadlock_threshold=500)

    def test_stats_identify_benchmark_and_policy(self, small_swim_trace):
        config = ProcessorConfig(warmup=False, release_policy="extended")
        stats = simulate(small_swim_trace, config, max_instructions=300)
        assert stats.benchmark == "swim"
        assert stats.release_policy == "extended"
