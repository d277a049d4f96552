"""The vectorised context outcomes of correlated branch sites.

:func:`seed_uniforms` replays NumPy's ``SeedSequence`` and PCG64 seeding
on arrays; it must equal ``np.random.default_rng(seed).random()`` bit for
bit, or every trace with a correlated branch would change.
:func:`fill_context_tables` must store exactly the outcomes the lazy
per-context draw of :meth:`BranchSite.correlated_outcome` gives.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.trace.synthetic import BranchSite, fill_context_tables, seed_uniforms
from repro.trace.workloads import all_workloads, get_profile, make_kernel


def _reference(seeds) -> np.ndarray:
    return np.array([np.random.default_rng(int(seed)).random()
                     for seed in seeds])


def test_seed_uniforms_match_default_rng():
    rng = random.Random(20261017)
    seeds = [0, 1, 2, 255, 256, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE,
             0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(3000)]
    seeds = np.array(seeds, dtype=np.uint32)
    assert np.array_equal(seed_uniforms(seeds), _reference(seeds))


def _lazy_table(site: BranchSite) -> dict:
    fresh = BranchSite(pc=site.pc, target=site.target, kind=site.kind,
                       bias=site.bias, noise=site.noise,
                       context_bits=site.context_bits)
    return {context: fresh.correlated_outcome(context)
            for context in range(1 << site.context_bits)}


def _correlated_sites(kernel) -> list:
    sites = list(getattr(kernel, "sites", ()))
    sites += [value for value in vars(kernel).values()
              if isinstance(value, BranchSite)]
    return [site for site in sites if site.kind == "correlated"]


@pytest.mark.parametrize("name", all_workloads())
def test_kernel_tables_equal_the_lazy_draws(name):
    sites = _correlated_sites(make_kernel(get_profile(name)))
    if name == "go":
        assert len(sites) > 1
    for site in sites:
        assert site._context_table == _lazy_table(site), (name, site.pc)


def test_fill_covers_every_context_of_every_site():
    sites = [BranchSite(pc=0x1000 + 4 * i, target=0, kind="correlated",
                        bias=0.5 + 0.04 * i, context_bits=bits)
             for i, bits in enumerate((1, 4, 8, 10))]
    sites.append(BranchSite(pc=0x2000, target=0, kind="loop"))
    fill_context_tables(sites)
    for site in sites[:-1]:
        assert site._context_table == _lazy_table(site)
    assert sites[-1]._context_table == {}


def test_seeds_beyond_32_bits_keep_the_lazy_draw():
    site = BranchSite(pc=1 << 22, target=0, kind="correlated", bias=0.7)
    fill_context_tables([site])
    assert site._context_table == {}
    assert site.correlated_outcome(5) == bool(
        np.random.default_rng((site.pc << 10) ^ 5).random() < site.bias)
