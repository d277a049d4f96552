"""Tests for user-defined scenarios: registration, config loading,
trace-identity digests and cache invalidation.

Covers the PR 5 surface: ``register_scenario`` / ``unregister_scenario``,
the TOML/JSON config loader, the content-digest trace identity (in-memory
and on-disk sweep caches can never serve a stale trace after
re-registration) and the stable name-hash seed mixing that replaced the
collision-prone ad-hoc digest.
"""

import hashlib
import json
import sys

import pytest

from repro.trace.workloads import (
    SCENARIOS,
    KernelParams,
    ScenarioPhase,
    ScenarioProfile,
    generate_scenario_trace,
    get_workload,
    load_scenario_file,
    parse_scenario_config,
    profile_digest,
    register_scenario,
    register_scenario_file,
    scenario_workloads,
    unregister_scenario,
    workload_digest,
)


def simple_profile(name, chain_len=2, suite="int"):
    return ScenarioProfile(
        name=name, suite=suite, phase_length=500,
        phases=(ScenarioPhase("int_compute",
                              KernelParams(pc_base=0x300000,
                                           data_base=0x30_00000,
                                           chain_len=chain_len,
                                           trip_count=32)),))


@pytest.fixture
def clean_registry():
    """Snapshot the scenario registry and restore it afterwards."""
    before = dict(SCENARIOS)
    yield
    SCENARIOS.clear()
    SCENARIOS.update(before)


class TestRegistration:
    def test_register_and_resolve(self, clean_registry):
        register_scenario(simple_profile("reg_test"))
        assert "reg_test" in scenario_workloads()
        trace = get_workload("reg_test", 800)
        assert trace.name == "reg_test"
        assert len(trace) >= 800

    def test_register_same_content_is_noop(self, clean_registry):
        register_scenario(simple_profile("reg_twice"))
        register_scenario(simple_profile("reg_twice"))  # no error
        assert scenario_workloads().count("reg_twice") == 1

    def test_register_different_content_needs_replace(self, clean_registry):
        register_scenario(simple_profile("reg_conflict", chain_len=2))
        with pytest.raises(ValueError, match="replace=True"):
            register_scenario(simple_profile("reg_conflict", chain_len=5))
        register_scenario(simple_profile("reg_conflict", chain_len=5),
                          replace=True)
        assert SCENARIOS["reg_conflict"].phases[0].params.chain_len == 5

    def test_cannot_shadow_builtin_scenario(self, clean_registry):
        with pytest.raises(ValueError, match="built-in scenario"):
            register_scenario(simple_profile("branch_storm"))

    def test_cannot_shadow_benchmark(self, clean_registry):
        with pytest.raises(ValueError, match="benchmark"):
            register_scenario(simple_profile("swim"))

    def test_unregister(self, clean_registry):
        register_scenario(simple_profile("reg_gone"))
        unregister_scenario("reg_gone")
        assert "reg_gone" not in SCENARIOS
        with pytest.raises(KeyError):
            unregister_scenario("reg_gone")

    def test_cannot_unregister_builtin(self, clean_registry):
        with pytest.raises(ValueError, match="built-in"):
            unregister_scenario("phased")

    @pytest.mark.parametrize("bad_name", ["", "1leading", "with space", "a/b"])
    def test_invalid_names_rejected(self, clean_registry, bad_name):
        with pytest.raises(ValueError, match="invalid scenario name"):
            register_scenario(simple_profile(bad_name))


class TestConfigLoading:
    CONFIG = {
        "scenarios": [{
            "name": "cfg_roundtrip",
            "suite": "fp",
            "description": "round-trip test",
            "phase_length": 700,
            "phases": [
                {"kernel": "stencil",
                 "params": {"fp_window": 12, "n_streams": 3}},
                {"kernel": "streaming", "params": {"n_streams": 2}},
            ],
        }],
    }

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(self.CONFIG))
        (profile,) = load_scenario_file(path)
        assert profile.name == "cfg_roundtrip"
        assert profile.suite == "fp"
        assert profile.phase_length == 700
        assert [phase.kernel for phase in profile.phases] == ["stencil",
                                                              "streaming"]
        assert profile.phases[0].params.fp_window == 12
        # Unspecified parameters keep their defaults.
        assert profile.phases[1].params.chain_len == KernelParams().chain_len

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs Python 3.11+")
    def test_toml_round_trip(self, tmp_path):
        toml = """
[[scenarios]]
name = "cfg_toml"
suite = "int"
phase_length = 600
[[scenarios.phases]]
kernel = "branchy"
[scenarios.phases.params]
n_branch_sites = 16
"""
        path = tmp_path / "scenarios.toml"
        path.write_text(toml)
        (profile,) = load_scenario_file(path)
        assert profile.name == "cfg_toml"
        assert profile.phases[0].params.n_branch_sites == 16

    def test_single_scenario_shape(self):
        (profile,) = parse_scenario_config(self.CONFIG["scenarios"][0])
        assert profile.name == "cfg_roundtrip"

    def test_register_scenario_file(self, tmp_path, clean_registry):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(self.CONFIG))
        assert register_scenario_file(path) == ["cfg_roundtrip"]
        assert "cfg_roundtrip" in scenario_workloads()

    @pytest.mark.parametrize("mutate, message", [
        (lambda c: c["scenarios"][0].update(phases=[{"kernel": "nope"}]),
         "unknown kernel"),
        (lambda c: c["scenarios"][0]["phases"][0]["params"].update(typo=1),
         "unknown kernel parameters"),
        (lambda c: c["scenarios"][0]["phases"][0]["params"].update(
            n_streams="3"),
         "must be an int"),
        (lambda c: c["scenarios"][0]["phases"][0]["params"].update(
            branch_bias="0.8"),
         "must be a number"),
        (lambda c: c["scenarios"][0].update(suite="both"),
         "suite must be"),
        (lambda c: c["scenarios"][0].update(phases=[]),
         "at least one phase"),
        (lambda c: c["scenarios"][0].update(phase_length=0),
         "phase_length"),
        (lambda c: c["scenarios"][0].update(phasez=[]),
         "unknown scenario keys"),
        (lambda c: c["scenarios"][0].pop("name"),
         "'name' is required"),
        (lambda c: c.update(scenarios=c["scenarios"] * 2),
         "duplicate scenario names"),
    ])
    def test_validation_errors(self, mutate, message):
        config = json.loads(json.dumps(self.CONFIG))
        mutate(config)
        with pytest.raises(ValueError, match=message):
            parse_scenario_config(config)

    @pytest.mark.parametrize("kernel", ["int_compute", "branchy"])
    def test_random_stream_footprint_rejected_at_load(self, tmp_path, kernel):
        config = json.loads(json.dumps(self.CONFIG))
        config["scenarios"][0]["phases"].append(
            {"kernel": kernel, "params": {"mem_footprint": 1000}})
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError,
                           match="cfg_roundtrip.*phase 2.*mem_footprint"):
            load_scenario_file(path)

    def test_other_kernels_take_any_footprint_at_load(self):
        config = json.loads(json.dumps(self.CONFIG))
        config["scenarios"][0]["phases"].append(
            {"kernel": "pointer_chase", "params": {"mem_footprint": 1000}})
        (profile,) = parse_scenario_config(config)
        assert profile.phases[2].params.mem_footprint == 1000

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario_file(path)


class TestTraceIdentity:
    #: First 16 hex digits of the sha256 over the instruction reprs of a
    #: 1 200-instruction seed-0 trace per built-in scenario.  Pinned at
    #: the PR 5 one-time re-baseline (stable name-hash seed mixing); any
    #: change here means scenario trace identity moved and every
    #: downstream consumer re-simulates.
    PINNED = {
        "phased": "7bb6fed58e0bf1c5",
        "pointer_hop": "36690e8be2d46743",
        "branch_storm": "f9f4d118a3866090",
        "store_wave": "0663e69a8ae7d0fd",
        "regpressure_ramp": "fc671a2b29594bcc",
    }

    @staticmethod
    def trace_digest(profile):
        trace = generate_scenario_trace(profile, 1_200, seed=0)
        payload = "\n".join(repr(inst) for inst in trace.instructions)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_builtin_scenario_identity_pinned(self, name):
        assert self.trace_digest(SCENARIOS[name]) == self.PINNED[name]

    def test_old_digest_collision_now_diverges(self):
        """Names colliding under the pre-PR-5 ad-hoc digest get distinct
        streams from the stable hash."""
        def old_digest(name):
            return sum((i + 1) * ord(c) for i, c in enumerate(name)) % (1 << 16)

        # Same structure, same params — only the names differ, and those
        # names collided under the old scheme.
        assert old_digest("bc") == old_digest("db")
        trace_a = generate_scenario_trace(simple_profile("bc"), 600, seed=0)
        trace_b = generate_scenario_trace(simple_profile("db"), 600, seed=0)
        assert any(a.mem_addr != b.mem_addr or a.taken != b.taken
                   for a, b in zip(trace_a, trace_b, strict=True))

    def test_profile_digest_tracks_content(self):
        assert (profile_digest(simple_profile("dig"))
                == profile_digest(simple_profile("dig")))
        assert (profile_digest(simple_profile("dig", chain_len=2))
                != profile_digest(simple_profile("dig", chain_len=3)))
        assert (profile_digest(simple_profile("dig_a"))
                != profile_digest(simple_profile("dig_b")))

    def test_workload_digest_resolves_benchmarks_and_extras(self):
        assert workload_digest("swim")
        extra = simple_profile("ephemeral")
        assert workload_digest("ephemeral", (extra,)) == profile_digest(extra)
        with pytest.raises(KeyError, match="unknown workload"):
            workload_digest("ephemeral")


class TestCacheInvalidation:
    def test_reregistration_misses_trace_cache(self, clean_registry):
        register_scenario(simple_profile("cache_inv", chain_len=2))
        first = get_workload("cache_inv", 700)
        register_scenario(simple_profile("cache_inv", chain_len=4),
                          replace=True)
        second = get_workload("cache_inv", 700)
        assert first.instructions != second.instructions
        # Same content again: the memoised object is reused.
        register_scenario(simple_profile("cache_inv", chain_len=4),
                          replace=True)
        assert get_workload("cache_inv", 700) is second

    def test_reregistration_changes_disk_cache_key(self, clean_registry):
        from repro.analysis.cache import point_key
        from repro.analysis.sweep import SweepConfig, SweepPoint

        point = SweepPoint("cache_key", "conv", 48)

        def key_for(profile):
            config = SweepConfig(benchmarks=("cache_key",),
                                 trace_length=1_000,
                                 scenario_profiles=(profile,))
            return point_key(config, point)

        key_a = key_for(simple_profile("cache_key", chain_len=2))
        key_b = key_for(simple_profile("cache_key", chain_len=4))
        assert key_a != key_b
        assert key_a == key_for(simple_profile("cache_key", chain_len=2))

    def test_pool_worker_stats_match_serial(self, clean_registry):
        """A process whose registry lacks the scenario (a derived profile,
        or one unregistered since) simulates it from the profiles carried
        in SweepConfig; they must make the whole simulation — including
        the warm-up trace, which re-resolves the workload name with a
        different seed — identical to a run with it registered.
        Regression for the warm-up divergence found in PR 5 review."""
        from repro.analysis.sweep import (SweepConfig, SweepPoint,
                                          _attach_scenario_profiles,
                                          run_simulation_point)
        from repro.trace import workloads as workloads_module

        register_scenario(simple_profile("worker_parity"))
        config = _attach_scenario_profiles(SweepConfig(
            benchmarks=("worker_parity",), policies=("conv",),
            register_sizes=(48,), trace_length=900))
        point = SweepPoint("worker_parity", "conv", 48)
        serial_stats = run_simulation_point(config, point)

        # No registry entry and no previously installed ephemeral
        # profiles: only the SweepConfig carries the profile.
        unregister_scenario("worker_parity")
        workloads_module._EPHEMERAL_PROFILES.clear()
        try:
            worker_stats = run_simulation_point(config, point)
        finally:
            workloads_module._EPHEMERAL_PROFILES.clear()
        assert worker_stats.ipc == serial_stats.ipc
        assert worker_stats.cycles == serial_stats.cycles

    def test_registered_scenario_round_trips_disk_cache(self, clean_registry,
                                                        tmp_path):
        from repro.analysis.sweep import SweepConfig, run_sweep

        register_scenario(simple_profile("cache_e2e"))
        config = SweepConfig(benchmarks=("cache_e2e",), policies=("conv",),
                             register_sizes=(48,), trace_length=900)
        first = run_sweep(config, cache=tmp_path)
        assert (first.simulated, first.cached) == (1, 0)
        second = run_sweep(config, cache=tmp_path)
        assert (second.simulated, second.cached) == (0, 1)
        assert (first.ipc("cache_e2e", "conv", 48)
                == second.ipc("cache_e2e", "conv", 48))
        # Different content under the same name: full re-simulation.
        register_scenario(simple_profile("cache_e2e", chain_len=4),
                          replace=True)
        third = run_sweep(config, cache=tmp_path)
        assert (third.simulated, third.cached) == (1, 0)
