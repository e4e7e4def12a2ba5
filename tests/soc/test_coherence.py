"""Tests for per-accelerator coherence modes and the MESI machinery.

Covers the mode enum, its spellings and register encoding, the
fully-coherent private-cache path (bit-identical outputs, coherence
planes carrying traffic only when the protocol runs, invalidation and
directory accounting) and the per-device assignment surface of
``esp_run``.
"""

import numpy as np
import pytest

from repro.noc import (COH_FORWARD_PLANE, COH_REQUEST_PLANE,
                       COH_RESPONSE_PLANE)
from repro.runtime import EspRuntime, chain
from repro.soc import (COHERENCE_FULL, COHERENCE_LLC,
                       COHERENCE_NON_COHERENT, CoherenceMode, PrivateCache,
                       SoCConfig, build_soc)
from tests.conftest import make_spec

MODES = (CoherenceMode.NON_COHERENT, CoherenceMode.LLC_COHERENT,
         CoherenceMode.FULLY_COHERENT)


def coherence_soc(llc_words=1 << 14, private_cache_words=None,
                  input_words=256):
    config = SoCConfig(cols=4, rows=2, name="coh-modes")
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=1 << 16, llc_words=llc_words)
    config.add_aux((2, 0))
    spec = make_spec(input_words=input_words, output_words=input_words,
                     latency=50)
    config.add_accelerator((3, 0), "a0", spec,
                           private_cache_words=private_cache_words)
    config.add_accelerator((0, 1), "b0", spec,
                           private_cache_words=private_cache_words)
    return build_soc(config)


class TestCoherenceMode:
    def test_register_round_trip(self):
        for mode, reg in ((CoherenceMode.NON_COHERENT,
                           COHERENCE_NON_COHERENT),
                          (CoherenceMode.LLC_COHERENT, COHERENCE_LLC),
                          (CoherenceMode.FULLY_COHERENT,
                           COHERENCE_FULL)):
            assert mode.register_value == reg
            assert CoherenceMode.from_register(reg) is mode

    def test_from_register_unknown_degrades(self):
        assert CoherenceMode.from_register(99) is \
            CoherenceMode.NON_COHERENT

    def test_coerce_spellings(self):
        assert CoherenceMode.coerce(None) is CoherenceMode.NON_COHERENT
        assert CoherenceMode.coerce("fully-coherent") is \
            CoherenceMode.FULLY_COHERENT
        assert CoherenceMode.coerce(CoherenceMode.LLC_COHERENT) is \
            CoherenceMode.LLC_COHERENT
        with pytest.raises(ValueError, match="unknown coherence mode"):
            CoherenceMode.coerce("cache-me-maybe")
        with pytest.raises(TypeError):
            CoherenceMode.coerce(3.14)
        with pytest.raises(TypeError):
            CoherenceMode.coerce(True)   # a bool names no mode

    def test_enum_and_string_spellings_keep_exact_cycles(self, rng):
        """Every spelling of a mode runs the same simulation."""
        frames = rng.uniform(0, 1, (4, 256))
        cycles = {}
        for coherence in (CoherenceMode.LLC_COHERENT, "llc-coherent"):
            rt = EspRuntime(coherence_soc())
            cycles[coherence] = rt.esp_run(
                chain("ab", ["a0", "b0"]), frames, mode="pipe",
                coherence=coherence).cycles
        assert len(set(cycles.values())) == 1

    def test_explicit_non_coherent_matches_default(self, rng):
        frames = rng.uniform(0, 1, (4, 256))
        rt = EspRuntime(coherence_soc())
        baseline = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                              mode="pipe").cycles
        rt = EspRuntime(coherence_soc())
        explicit = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                              mode="pipe", coherence="non-coherent").cycles
        assert explicit == baseline


class TestFullyCoherent:
    def test_outputs_bit_identical_across_modes(self, rng):
        """Caches shape timing only; data is mode-invariant."""
        frames = rng.uniform(0, 1, (6, 256))
        outs = {}
        for mode in MODES:
            rt = EspRuntime(coherence_soc())
            outs[mode] = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                                    mode="pipe",
                                    coherence=mode).outputs
        np.testing.assert_array_equal(outs[MODES[0]], outs[MODES[1]])
        np.testing.assert_array_equal(outs[MODES[0]], outs[MODES[2]])

    def test_coherence_planes_idle_unless_fully_coherent(self, rng):
        """The three protocol planes carry flits only when a private
        cache is in play — non-coherent and LLC-coherent DMA never
        touch them, so their seed timing cannot shift."""
        frames = rng.uniform(0, 1, (4, 256))
        planes = (COH_REQUEST_PLANE, COH_FORWARD_PLANE,
                  COH_RESPONSE_PLANE)
        for mode in MODES:
            soc = coherence_soc()
            rt = EspRuntime(soc)
            rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                       coherence=mode)
            flits = soc.mesh.plane_flits()
            coh_flits = sum(flits.get(p, 0) for p in planes)
            if mode is CoherenceMode.FULLY_COHERENT:
                assert coh_flits > 0
            else:
                assert coh_flits == 0

    def test_private_cache_cuts_dram_traffic(self, rng):
        frames = rng.uniform(0, 1, (6, 256))
        dram = {}
        for mode in (CoherenceMode.NON_COHERENT,
                     CoherenceMode.FULLY_COHERENT):
            rt = EspRuntime(coherence_soc())
            dram[mode] = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                                    mode="pipe",
                                    coherence=mode).dram_accesses
        assert dram[CoherenceMode.FULLY_COHERENT] < \
            dram[CoherenceMode.NON_COHERENT]

    def test_no_llc_downgrades_with_counter(self, rng):
        """Without a directory point the fabric falls back to
        non-coherent DMA, counts the downgrade, and stays correct."""
        soc = coherence_soc(llc_words=0)
        rt = EspRuntime(soc)
        frames = rng.uniform(0, 1, (4, 256))
        result = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                            mode="pipe", coherence="fully-coherent")
        np.testing.assert_allclose(result.outputs, frames + 2.0)
        downgrades = sum(soc.accelerator(n).dma.coherence_downgrades
                         for n in ("a0", "b0"))
        assert downgrades > 0
        planes = soc.mesh.plane_flits()
        assert sum(planes.get(p, 0)
                   for p in (COH_REQUEST_PLANE, COH_FORWARD_PLANE,
                             COH_RESPONSE_PLANE)) == 0

    def test_directory_and_cache_accounting(self, rng):
        """A producer-consumer chain exercises the protocol: requests
        hit the directory, stores take exclusive grants, the shared
        intermediate buffer forces invalidations, and the private
        caches record them."""
        soc = coherence_soc()
        rt = EspRuntime(soc)
        frames = rng.uniform(0, 1, (6, 256))
        rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                   coherence="fully-coherent")
        tile = soc.memory_map.tiles[0]
        assert tile.directory is not None
        stats = tile.directory.stats
        assert stats.requests > 0
        assert stats.exclusive_grants > 0
        assert stats.invalidations_sent > 0
        received = sum(
            soc.accelerator(n).dma.cache.invalidations_received
            for n in ("a0", "b0")
            if soc.accelerator(n).dma.cache is not None)
        assert received == stats.invalidations_sent

    def test_default_runs_spawn_no_coherence_machinery(self, rng):
        """Timing neutrality at the structural level: unless a device
        runs fully-coherent, no private cache and no directory ever
        exist."""
        soc = coherence_soc()
        rt = EspRuntime(soc)
        frames = rng.uniform(0, 1, (4, 256))
        rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                   coherence="llc-coherent")
        assert soc.memory_map.tiles[0].directory is None
        assert all(soc.accelerator(n).dma.cache is None
                   for n in ("a0", "b0"))


class TestPerDeviceAssignment:
    def test_mixed_modes_via_dict(self, rng):
        frames = rng.uniform(0, 1, (6, 256))
        reference = EspRuntime(coherence_soc()).esp_run(
            chain("ab", ["a0", "b0"]), frames, mode="pipe")
        soc = coherence_soc()
        rt = EspRuntime(soc)
        mixed = rt.esp_run(
            chain("ab", ["a0", "b0"]), frames, mode="pipe",
            coherence={"a0": "fully-coherent",
                       "b0": CoherenceMode.LLC_COHERENT})
        np.testing.assert_array_equal(mixed.outputs, reference.outputs)
        # Only a0 runs fully-coherent: exactly one private cache.
        assert soc.accelerator("a0").dma.cache is not None
        assert soc.accelerator("b0").dma.cache is None

    def test_unknown_device_rejected(self, rng):
        rt = EspRuntime(coherence_soc())
        frames = rng.uniform(0, 1, (2, 256))
        with pytest.raises(ValueError, match="not in the dataflow"):
            rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                       coherence={"zz": "llc-coherent"})

    def test_dataflow_level_default_applies(self, rng):
        """A mode pinned on the dataflow itself is used without any
        call-level argument."""
        from repro.runtime.dataflow import Dataflow, DataflowEdge
        frames = rng.uniform(0, 1, (4, 256))
        dataflow = Dataflow(name="pinned", devices=["a0", "b0"],
                            edges=[DataflowEdge("a0", "b0")],
                            coherence={"a0": "llc-coherent",
                                       "b0": "llc-coherent"})
        rt_pinned = EspRuntime(coherence_soc())
        pinned = rt_pinned.esp_run(dataflow, frames, mode="pipe")
        rt_arg = EspRuntime(coherence_soc())
        explicit = rt_arg.esp_run(chain("ab", ["a0", "b0"]), frames,
                                  mode="pipe",
                                  coherence="llc-coherent")
        assert pinned.cycles == explicit.cycles
        np.testing.assert_array_equal(pinned.outputs, explicit.outputs)


class TestPrivateCacheModel:
    def test_mesi_touch_transitions(self):
        cache = PrivateCache(capacity_words=256, line_words=16, ways=2)
        cache.install_lines((0,), "E")
        assert cache.state(0) == "E"
        assert cache.probe((0,), write=True)[0] == 1   # silent E -> M hit
        assert cache.state(0) == "M"
        cache.install_lines((1,), "S")
        assert cache.probe((1,), write=False)[0] == 1  # read hit in S
        # A write to a shared line misses: it needs an upgrade request.
        assert cache.probe((1,), write=True) == (0, [], [], [1])
        assert cache.misses == 1

    def test_invalidate_and_flush(self):
        cache = PrivateCache(capacity_words=256, line_words=16, ways=2)
        cache.install_lines((0,), "M")
        cache.install_lines((1,), "S")
        # Dirty data must go back; a clean line drops silently; an
        # absent line is a no-op.
        assert cache.invalidate_lines((0, 1, 7)) == (0,)
        assert cache.invalidations_received == 2
        cache.install_lines((2,), "M")
        assert cache.flush() == 1
        assert cache.resident_lines == 0

    def test_eviction_returns_dirty_victim(self):
        cache = PrivateCache(capacity_words=32, line_words=16, ways=2)
        cache.install_lines((0,), "M")
        cache.install_lines((2,), "S")   # same set (single-set cache)
        # Evicts the LRU line 0, which is dirty.
        assert cache.install_lines((4,), "E") == [0]
