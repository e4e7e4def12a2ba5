"""Tests for per-edge communication (the ``custom`` execution mode)."""

import numpy as np
import pytest

from repro.runtime import Dataflow, DataflowEdge, chain, replicated_stage
from tests.conftest import make_runtime, make_spec


def three_stage_specs():
    return [(name, make_spec(name=name, input_words=8, output_words=8,
                             latency=40 + 13 * i))
            for i, name in enumerate(["a0", "b0", "c0"])]


class TestEdgeComm:
    def test_comm_validation(self):
        with pytest.raises(ValueError):
            DataflowEdge("a", "b", comm="warp")

    def test_chain_comm_parameter(self):
        df = chain("c", ["a", "b"], comm="p2p")
        assert df.edges[0].comm == "p2p"

    def test_replicated_comm_parameter(self):
        df = replicated_stage("r", ["p0"], ["c0"], comm="p2p")
        assert all(e.comm == "p2p" for e in df.edges)

    def test_custom_validation_allows_dma_fanout(self):
        df = Dataflow(name="f", devices=["p0", "c0", "c1"],
                      edges=[DataflowEdge("p0", "c0", comm="dma"),
                             DataflowEdge("p0", "c1", comm="dma")])
        df.validate_for_custom()   # DMA fan-out is fine

    def test_custom_validation_rejects_p2p_fanout(self):
        df = Dataflow(name="f", devices=["p0", "c0", "c1"],
                      edges=[DataflowEdge("p0", "c0", comm="p2p"),
                             DataflowEdge("p0", "c1", comm="p2p")])
        with pytest.raises(ValueError, match="p2p"):
            df.validate_for_custom()


class TestCustomExecution:
    def _mixed_chain(self):
        # a -> b over p2p, b -> c over DMA.
        return Dataflow(
            name="mixed", devices=["a0", "b0", "c0"],
            edges=[DataflowEdge("a0", "b0", comm="p2p"),
                   DataflowEdge("b0", "c0", comm="dma")])

    def test_mixed_chain_outputs_correct(self, rng):
        rt = make_runtime(three_stage_specs())
        frames = rng.uniform(0, 1, (6, 8))
        result = rt.esp_run(self._mixed_chain(), frames, mode="custom")
        np.testing.assert_allclose(result.outputs, frames + 3.0)

    def test_custom_equals_other_modes(self, rng):
        frames = rng.uniform(0, 1, (6, 8))
        outputs = {}
        for mode in ("pipe", "custom", "p2p"):
            rt = make_runtime(three_stage_specs())
            df = self._mixed_chain() if mode == "custom" \
                else chain("mixed", ["a0", "b0", "c0"])
            outputs[mode] = rt.esp_run(df, frames, mode=mode).outputs
        np.testing.assert_array_equal(outputs["custom"], outputs["pipe"])
        np.testing.assert_array_equal(outputs["custom"], outputs["p2p"])

    def test_dram_traffic_between_pipe_and_p2p(self, rng):
        """Only the DMA boundary touches DRAM: in + (b->c) + out."""
        frames = rng.uniform(0, 1, (6, 8))
        dram = {}
        for mode, df in (("pipe", chain("m", ["a0", "b0", "c0"])),
                         ("custom", self._mixed_chain()),
                         ("p2p", chain("m", ["a0", "b0", "c0"]))):
            rt = make_runtime(three_stage_specs())
            dram[mode] = rt.esp_run(df, frames, mode=mode).dram_accesses
        assert dram["p2p"] < dram["custom"] < dram["pipe"]
        # pipe: in + 2 inter round trips + out = 6 passes of 48 words;
        # custom: in + 1 inter round trip + out = 4; p2p: 2.
        assert dram["pipe"] == 6 * 48
        assert dram["custom"] == 4 * 48
        assert dram["p2p"] == 2 * 48

    def test_all_p2p_edges_skip_intermediate_buffers(self, rng):
        rt = make_runtime(three_stage_specs())
        df = chain("m", ["a0", "b0", "c0"], comm="p2p")
        plan = rt.executor.plan(df, n_frames=4, mode="custom")
        assert plan.inter_buffers == [None, None]

    def test_gather_with_mixed_edges(self, rng):
        """4 producers -> 1 consumer where half the edges are p2p."""
        specs = [(f"p{i}", make_spec(name="p", input_words=8,
                                     output_words=8, latency=60))
                 for i in range(4)]
        specs.append(("c0", make_spec(name="c", input_words=8,
                                      output_words=8, latency=20)))
        edges = [DataflowEdge(f"p{i}", "c0",
                              comm="p2p" if i % 2 == 0 else "dma")
                 for i in range(4)]
        df = Dataflow(name="g", devices=[s for s, _ in specs],
                      edges=edges)
        rt = make_runtime(specs, cols=4, rows=3)
        frames = rng.uniform(0, 1, (8, 8))
        result = rt.esp_run(df, frames, mode="custom")
        np.testing.assert_allclose(result.outputs, frames + 2.0)


class TestPipePreset:
    """``pipe`` is the ``custom`` driver with every edge DMA."""

    def test_pipe_matches_custom_over_dma_edges(self, rng):
        """``pipe`` ignores each edge's ``comm``; ``custom`` over DMA
        edges then runs the very same simulation."""
        frames = rng.uniform(0, 1, (6, 8))
        runs, outputs = {}, {}
        for mode, comm in (("pipe", "p2p"), ("custom", "dma")):
            rt = make_runtime(three_stage_specs())
            df = chain("m", ["a0", "b0", "c0"], comm=comm)
            result = rt.esp_run(df, frames, mode=mode)
            runs[mode] = (result.cycles, rt.soc.env.events_processed,
                          result.ioctl_calls, result.dram_accesses)
            outputs[mode] = result.outputs
        assert runs["pipe"] == runs["custom"]
        np.testing.assert_array_equal(outputs["pipe"], outputs["custom"])

    def test_pipe_keeps_plain_validation(self, rng):
        """Crossed edges break the frame interleaving ``custom``
        requires, but ``pipe`` routes frames round-robin regardless."""
        specs = [(name, make_spec(name=name, input_words=8,
                                  output_words=8, latency=60))
                 for name in ("p0", "p1", "c0", "c1")]
        df = Dataflow(name="crossed", devices=["p0", "p1", "c0", "c1"],
                      edges=[DataflowEdge("p0", "c1"),
                             DataflowEdge("p1", "c0")])
        with pytest.raises(ValueError, match="interleaving"):
            df.validate_for_custom()
        rt = make_runtime(specs, cols=4, rows=3)
        frames = rng.uniform(0, 1, (4, 8))
        result = rt.esp_run(df, frames, mode="pipe")
        np.testing.assert_allclose(result.outputs, frames + 2.0)
