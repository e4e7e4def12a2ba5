"""Tests for the serving request queue: admission control + draining."""

import numpy as np
import pytest

from repro.serve import (
    InferenceRequest,
    REJECT_BAD_SHAPE,
    REJECT_QUEUE_FULL,
    REJECT_UNKNOWN_TENANT,
    RequestQueue,
)


def req(tenant="nv", n_frames=1, words=8):
    return InferenceRequest(tenant=tenant,
                            frames=np.ones((n_frames, words)))


def registered_queue(max_depth=4):
    queue = RequestQueue(max_depth=max_depth)
    queue.register("nv", input_words=8)
    queue.register("cl", input_words=4)
    return queue


class TestAdmission:
    def test_admit_returns_none_and_stamps_submit_time(self):
        queue = registered_queue()
        request = req()
        assert queue.submit(request, now=123) is None
        assert request.submitted_at == 123
        assert len(queue.admissions) == 1
        assert queue.depth == 1

    def test_unknown_tenant_rejected(self):
        queue = registered_queue()
        rejection = queue.submit(req(tenant="ghost"), now=5)
        assert rejection is not None
        assert rejection.reason == REJECT_UNKNOWN_TENANT
        assert rejection.at == 5
        assert queue.depth == 0

    def test_bad_shape_rejected(self):
        queue = registered_queue()
        rejection = queue.submit(req(words=16))   # nv expects 8
        assert rejection.reason == REJECT_BAD_SHAPE
        assert "16" in rejection.detail and "8" in rejection.detail

    def test_backpressure_at_max_depth(self):
        queue = registered_queue(max_depth=2)
        assert queue.submit(req()) is None
        assert queue.submit(req()) is None
        rejection = queue.submit(req())
        assert rejection.reason == REJECT_QUEUE_FULL
        assert queue.depth == 2

    def test_depth_bound_is_global_across_tenants(self):
        queue = registered_queue(max_depth=2)
        queue.submit(req(tenant="nv"))
        queue.submit(req(tenant="cl", words=4))
        rejection = queue.submit(req(tenant="nv"))
        assert rejection.reason == REJECT_QUEUE_FULL

    def test_peak_depth_tracked(self):
        queue = registered_queue()
        queue.submit(req())
        queue.submit(req())
        queue.drain("nv", max_frames=1)
        queue.submit(req())
        assert [depth for _, depth in queue.admissions] == [1, 2, 2]

    def test_on_admit_hook_fires_only_on_admission(self):
        queue = registered_queue(max_depth=1)
        seen = []
        queue.on_admit = seen.append
        queue.submit(req())
        queue.submit(req())          # rejected: full
        assert len(seen) == 1

    def test_register_validates(self):
        queue = registered_queue()
        with pytest.raises(ValueError, match="already registered"):
            queue.register("nv", input_words=8)
        with pytest.raises(ValueError):
            queue.register("new", input_words=0)
        with pytest.raises(ValueError):
            RequestQueue(max_depth=0)


class TestDraining:
    def test_pop_is_fifo_within_tenant(self):
        queue = registered_queue()
        first, second = req(), req()
        queue.submit(first)
        queue.submit(second)
        assert queue.drain("nv", max_frames=1) == [first]
        assert queue.drain("nv", max_frames=1) == [second]
        assert queue.drain("nv", max_frames=1) == []

    def test_drain_respects_frame_budget(self):
        queue = registered_queue(max_depth=16)
        for _ in range(4):
            queue.submit(req(n_frames=3))
        batch = queue.drain("nv", max_frames=7)
        assert len(batch) == 2        # 3 + 3 fit, a third would be 9
        assert queue.tenant_depth("nv") == 2

    def test_tenant_backlog_follows_admissions_and_drains(self):
        """The per-tenant frame count kept beside the deques equals the
        frames of the requests still queued, through rejections and
        drains."""
        queue = registered_queue(max_depth=5)
        for n_frames in (3, 1, 2, 4):
            queue.submit(req(n_frames=n_frames))
        queue.submit(req(tenant="cl", n_frames=2, words=4))
        assert queue.submit(req(n_frames=7)) is not None   # full
        assert queue.tenant_backlog("nv") == (4, 10)
        assert queue.tenant_backlog("cl") == (1, 2)
        queue.drain("nv", max_frames=4)       # 3 + 1
        assert queue.tenant_backlog("nv") == (2, 6)
        queue.drain("nv", max_frames=1)       # 2, oversized
        assert queue.tenant_backlog("nv") == (1, 4)
        queue.drain("nv")
        assert queue.tenant_backlog("nv") == (0, 0)
        assert queue.tenant_backlog("cl") == (1, 2)

    def test_drain_always_takes_one_even_oversized(self):
        queue = registered_queue(max_depth=16)
        queue.submit(req(n_frames=10))
        queue.submit(req(n_frames=1))
        batch = queue.drain("nv", max_frames=4)
        assert len(batch) == 1
        assert batch[0].n_frames == 10

    def test_drain_without_limit_takes_all(self):
        queue = registered_queue(max_depth=16)
        for _ in range(5):
            queue.submit(req())
        assert len(queue.drain("nv")) == 5
        assert queue.depth == 0


class TestAdmissionRecords:
    def test_records_run_since_boot_and_never_reset(self):
        queue = registered_queue(max_depth=2)
        queue.submit(req(), now=0)
        queue.submit(req(tenant="cl", words=4), now=0)
        queue.submit(req(), now=0)      # rejected: full
        queue.drain("nv")
        queue.submit(req(), now=1)
        assert len(queue.admissions) == 3
        assert queue.admissions == [("nv", 1), ("cl", 2), ("nv", 2)]
