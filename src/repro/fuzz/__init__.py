"""Differential scenario fuzzer (``repro.fuzz``).

Property-based cross-checking of the simulator against itself: random
scenario profiles and tight machine configurations, each run through a
pluggable oracle set —

* **generation** — chunk-size invariance: one iteration per chunk vs
  the default chunking (instruction streams and bit-generator state
  must match exactly);
* **backend** — compiled C core vs Python engine ``SimStats`` equality
  (honouring every documented skip/fallback path);
* **conservation** — engine-internal invariants checked by a per-cycle
  probe (free-list accounting, occupancy bounds, Release-Queue
  liveness, final stat identities).

Failures are minimised by a greedy shrinker and serialised as corpus
entries; committed entries under ``tests/fuzz/corpus/`` replay in
tier-1.  Run it with ``repro-experiments fuzz`` — see ``docs/fuzzing.md``.
"""

from repro.fuzz.corpus import (CorpusEntry, entry_from_dict, load_corpus,
                               load_corpus_file, sample_to_entry_dict)
from repro.fuzz.invariants import InvariantProbe, InvariantViolation
from repro.fuzz.oracles import (DEFAULT_ORACLES, ORACLES, OracleOutcome,
                                SampleContext, ephemeral_scenario,
                                resolve_oracle_names, run_oracle)
from repro.fuzz.runner import (FuzzFailure, FuzzReport, ReplayResult,
                               replay_corpus, run_fuzz)
from repro.fuzz.sampling import (FUZZ_STREAM, MIN_TRACE_LENGTH, FuzzSample,
                                 sample, sample_config, sample_profile,
                                 sample_rng)
from repro.fuzz.shrink import shrink, shrink_trail

__all__ = [
    "CorpusEntry", "DEFAULT_ORACLES", "FUZZ_STREAM", "FuzzFailure",
    "FuzzReport", "FuzzSample", "InvariantProbe", "InvariantViolation",
    "MIN_TRACE_LENGTH", "ORACLES", "OracleOutcome", "ReplayResult",
    "SampleContext", "entry_from_dict", "ephemeral_scenario",
    "load_corpus", "load_corpus_file", "replay_corpus",
    "resolve_oracle_names", "run_fuzz", "run_oracle", "sample",
    "sample_config", "sample_profile", "sample_rng",
    "sample_to_entry_dict", "shrink", "shrink_trail",
]
