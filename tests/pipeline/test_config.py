"""Tests for the processor configuration (Table 2 defaults)."""

import pytest

from repro.pipeline.config import ProcessorConfig


class TestDefaults:
    def test_table2_values(self):
        config = ProcessorConfig()
        assert config.fetch_width == 8
        assert config.commit_width == 8
        assert config.max_taken_branches_per_cycle == 2
        assert config.ros_size == 128
        assert config.lsq_size == 64
        assert config.max_pending_branches == 20
        assert config.gshare_history_bits == 18
        assert config.num_logical_int == 32 and config.num_logical_fp == 32

    def test_default_policy_is_conventional(self):
        assert ProcessorConfig().release_policy == "conv"

    def test_memory_defaults(self):
        config = ProcessorConfig()
        assert config.memory.l2.hit_latency == 12
        assert config.memory.main_memory_latency == 50


class TestValidation:
    def test_rejects_too_few_registers(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_physical_int=16)
        with pytest.raises(ValueError):
            ProcessorConfig(num_physical_fp=31)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            ProcessorConfig(release_policy="magic")

    def test_rejects_bad_exception_rate(self):
        with pytest.raises(ValueError):
            ProcessorConfig(exception_rate=1.5)

    @pytest.mark.parametrize("seed", [-1, -70000, True, 1.5, "0"])
    def test_rejects_seed_numpy_cannot_take(self, seed):
        # numpy's default_rng refuses a negative seed only once a run
        # has started; the config refuses it up front.
        with pytest.raises(ValueError, match="seed"):
            ProcessorConfig(seed=seed)

    def test_accepts_non_negative_seed(self):
        assert ProcessorConfig(seed=0).seed == 0
        assert ProcessorConfig(seed=2**40).seed == 2**40

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValueError):
            ProcessorConfig(fetch_width=0)
        with pytest.raises(ValueError):
            ProcessorConfig(ros_size=-1)

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    @pytest.mark.parametrize("overrides", [
        {"gshare_history_bits": 0},
        {"gshare_history_bits": 25},
        {"gshare_history_bits": 40},
        {"gshare_history_bits": -1},
        {"gshare_history_bits": 18.5},
        {"btb_entries": 2},
        {"btb_entries": 0},
        {"btb_entries": 2050},
        {"btb_associativity": 0},
        {"btb_associativity": -4, "btb_entries": -2048},
    ])
    def test_rejects_front_end_geometry_no_engine_can_build(self, engine,
                                                           overrides):
        # The C core sizes its gshare table and BTB from these values
        # without checking them, and a compiled run from reset builds no
        # Python predictor or BTB: the config is the one gate.
        with pytest.raises(ValueError):
            ProcessorConfig(engine=engine, **overrides)

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    @pytest.mark.parametrize("overrides", [
        {"num_logical_int": 8},
        {"num_logical_fp": 31},
        {"num_logical_int": 0},
        {"num_logical_fp": -1},
        {"num_logical_int": 32.0},
    ])
    def test_rejects_logical_files_smaller_than_the_isa(self, engine,
                                                        overrides):
        # A trace may name any of the ISA's 32 registers per class; a
        # smaller logical file made the C core index its map tables out
        # of bounds (heap corruption) and the Python engine raise
        # IndexError mid-run.
        with pytest.raises(ValueError, match="num_logical"):
            ProcessorConfig(engine=engine, **overrides)

    def test_accepts_logical_files_at_least_the_isa(self):
        ProcessorConfig(num_logical_int=32, num_logical_fp=32)
        ProcessorConfig(num_logical_int=40, num_logical_fp=48)

    def test_accepts_front_end_geometry_at_the_edges(self):
        ProcessorConfig(gshare_history_bits=1)
        ProcessorConfig(gshare_history_bits=24)
        ProcessorConfig(btb_entries=4, btb_associativity=4)
        ProcessorConfig(btb_entries=1, btb_associativity=1)

    def test_accepts_all_policies(self):
        for policy in ("conv", "conventional", "basic", "extended"):
            assert ProcessorConfig(release_policy=policy).release_policy == policy


class TestHelpers:
    def test_with_registers(self):
        config = ProcessorConfig().with_registers(num_int=48, num_fp=56)
        assert config.num_physical_int == 48
        assert config.num_physical_fp == 56

    def test_with_registers_partial(self):
        config = ProcessorConfig(num_physical_fp=80).with_registers(num_int=40)
        assert config.num_physical_int == 40 and config.num_physical_fp == 80

    def test_with_policy(self):
        assert ProcessorConfig().with_policy("extended").release_policy == "extended"

    def test_loose_tight_classification(self):
        # Paper Section 2: loose ⇔ P ≥ L + N.
        loose = ProcessorConfig(num_physical_int=160, ros_size=128)
        tight = ProcessorConfig(num_physical_int=96, ros_size=128)
        assert loose.is_loose_int and not tight.is_loose_int
        assert ProcessorConfig(num_physical_fp=160).is_loose_fp
