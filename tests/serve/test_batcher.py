"""Tests for request coalescing and frame-quantum padding."""

import numpy as np
import pytest

from repro.runtime import Dataflow, DataflowEdge, chain, replicated_stage
from repro.serve import Batcher, InferenceRequest, frame_quantum


def req(n_frames, words=8, fill=1.0):
    return InferenceRequest(tenant="t",
                            frames=np.full((n_frames, words), fill))


class TestFrameQuantum:
    def test_chain_quantum_is_one(self):
        assert frame_quantum(chain("df", ["a0", "b0"])) == 1

    def test_replicated_stage_quantum_is_width(self):
        df = replicated_stage("df", ["a0", "a1", "a2", "a3"], ["c0"])
        assert frame_quantum(df) == 4

    def test_quantum_is_lcm_of_level_widths(self):
        # Widths 2 -> 1 -> 3: the quantum must be lcm(2, 1, 3) = 6,
        # not the max width.
        df = Dataflow("df", ["a0", "a1", "m0", "c0", "c1", "c2"],
                      [DataflowEdge("a0", "m0"),
                       DataflowEdge("a1", "m0"),
                       DataflowEdge("m0", "c0"),
                       DataflowEdge("m0", "c1"),
                       DataflowEdge("m0", "c2")])
        assert df.levels() == [["a0", "a1"], ["m0"],
                               ["c0", "c1", "c2"]]
        assert frame_quantum(df) == 6


class TestBatcher:
    def test_coalesces_requests_in_order(self):
        batcher = Batcher(chain("df", ["a0"]))
        batch = batcher.form([req(2, fill=1.0), req(3, fill=2.0)])
        assert batch.n_requests == 2
        assert batch.total_frames - batch.pad_frames == 5
        assert batch.total_frames == 5        # quantum 1: no padding
        np.testing.assert_array_equal(batch.frames[:2], 1.0)
        np.testing.assert_array_equal(batch.frames[2:], 2.0)

    def test_pads_to_quantum_with_zero_frames(self):
        df = replicated_stage("df", ["a0", "a1", "a2", "a3"], ["c0"])
        batcher = Batcher(df)
        batch = batcher.form([req(3), req(3)])
        assert batch.total_frames - batch.pad_frames == 6
        assert batch.pad_frames == 2
        assert batch.total_frames == 8
        np.testing.assert_array_equal(batch.frames[6:], 0.0)

    def test_split_outputs_drops_padding(self):
        df = replicated_stage("df", ["a0", "a1"], ["c0"])
        batcher = Batcher(df)
        first, second = req(1), req(2)
        batch = batcher.form([first, second])
        assert batch.total_frames == 4
        outputs = np.arange(4 * 8).reshape(4, 8)
        split = batch.split_outputs(outputs)
        assert [r for r, _ in split] == [first, second]
        np.testing.assert_array_equal(split[0][1], outputs[:1])
        np.testing.assert_array_equal(split[1][1], outputs[1:3])

    def test_split_outputs_validates_row_count(self):
        batcher = Batcher(chain("df", ["a0"]))
        batch = batcher.form([req(2)])
        with pytest.raises(ValueError, match="rows"):
            batch.split_outputs(np.zeros((3, 8)))

    def test_empty_batch_rejected(self):
        batcher = Batcher(chain("df", ["a0"]))
        with pytest.raises(ValueError, match="empty"):
            batcher.form([])

    def test_max_batch_frames_raised_to_quantum(self):
        df = replicated_stage("df", ["a0", "a1", "a2", "a3"], ["c0"])
        batcher = Batcher(df, max_batch_frames=2)
        assert batcher.max_batch_frames == 4

    def test_max_batch_frames_validated(self):
        with pytest.raises(ValueError):
            Batcher(chain("df", ["a0"]), max_batch_frames=0)

    def test_statistics_accumulate(self):
        batcher = Batcher(chain("df", ["a0"]))
        first = batcher.form([req(1), req(1)])
        second = batcher.form([req(2)])
        assert (first.n_requests, second.n_requests) == (2, 1)
        assert (first.total_frames - first.pad_frames,
                second.total_frames - second.pad_frames) == (2, 2)
