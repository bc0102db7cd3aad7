"""Tests for the bounded micro-batch queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.serve.queue import MicroBatchQueue, PendingFrame


def _frame(i: int, t_s: float | None = None) -> PendingFrame:
    return PendingFrame(f"link-{i % 2}", float(i if t_s is None else t_s),
                        np.full(4, float(i)))


class TestValidation:
    def test_rejects_bad_max_batch(self):
        with pytest.raises(ConfigurationError):
            MicroBatchQueue(max_batch=0)

    def test_rejects_bad_latency(self):
        with pytest.raises(ConfigurationError):
            MicroBatchQueue(max_latency_s=0.0)
        with pytest.raises(ConfigurationError):
            MicroBatchQueue(max_latency_s=-1.0)

    def test_rejects_capacity_below_max_batch(self):
        with pytest.raises(ConfigurationError):
            MicroBatchQueue(max_batch=8, capacity=4)


class TestBackpressure:
    def test_push_within_capacity_evicts_nothing(self):
        q = MicroBatchQueue(max_batch=2, max_latency_s=None, capacity=3)
        assert q.push(_frame(0)) is None
        assert q.depth == 1

    def test_push_at_capacity_evicts_oldest(self):
        q = MicroBatchQueue(max_batch=2, max_latency_s=None, capacity=3)
        for i in range(3):
            q.push(_frame(i))
        evicted = q.push(_frame(3))
        assert evicted is not None
        assert evicted.t_s == 0.0  # drop-oldest
        assert q.depth == 3


class TestFlushTriggers:
    def test_max_batch_trigger(self):
        q = MicroBatchQueue(max_batch=3, max_latency_s=None)
        q.push(_frame(0))
        q.push(_frame(1))
        assert not q.ready(now_s=1e9)
        q.push(_frame(2))
        assert q.ready(now_s=0.0)

    def test_latency_trigger_in_stream_time(self):
        q = MicroBatchQueue(max_batch=100, max_latency_s=2.0)
        q.push(_frame(0, t_s=10.0))
        assert not q.ready(now_s=11.9)
        assert q.ready(now_s=12.0)  # inclusive at the budget

    def test_none_latency_disables_trigger(self):
        q = MicroBatchQueue(max_batch=100, max_latency_s=None)
        q.push(_frame(0, t_s=0.0))
        assert not q.ready(now_s=1e9)

    def test_empty_queue_never_ready(self):
        assert not MicroBatchQueue(max_latency_s=0.1).ready(now_s=1e9)


class TestDrain:
    def test_drain_is_fifo_and_capped_at_max_batch(self):
        q = MicroBatchQueue(max_batch=3, max_latency_s=None, capacity=16)
        for i in range(5):
            q.push(_frame(i))
        batch = q.drain()
        assert [f.t_s for f in batch] == [0.0, 1.0, 2.0]
        assert q.depth == 2

    def test_drain_with_explicit_limit(self):
        q = MicroBatchQueue(max_batch=3, max_latency_s=None, capacity=16)
        for i in range(5):
            q.push(_frame(i))
        assert len(q.drain(limit=1)) == 1
        assert q.depth == 4

    def test_draining_everything_empties(self):
        q = MicroBatchQueue(max_batch=3, max_latency_s=None, capacity=16)
        for i in range(5):
            q.push(_frame(i))
        batch = q.drain(limit=len(q))
        assert [f.t_s for f in batch] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert q.depth == 0
        assert len(q) == 0


class TestQueueCredit:
    def _q(self, credit=2, capacity=8):
        return MicroBatchQueue(max_batch=4, max_latency_s=None,
                               capacity=capacity, credit=credit)

    def test_rejects_bad_credit(self):
        with pytest.raises(ConfigurationError):
            MicroBatchQueue(max_batch=2, credit=0)

    def test_link_over_credit_evicts_its_own_oldest(self):
        q = self._q(credit=2)
        q.push(PendingFrame("hog", 0.0, np.zeros(4)))
        q.push(PendingFrame("meek", 1.0, np.zeros(4)))
        q.push(PendingFrame("hog", 2.0, np.zeros(4)))
        evicted = q.push(PendingFrame("hog", 3.0, np.zeros(4)))
        # The hog pays with its own oldest frame, not the meek link's.
        assert evicted is not None
        assert (evicted.link_id, evicted.t_s) == ("hog", 0.0)
        assert q.link_depth("meek") == 1
        assert q.link_depth("hog") == 2

    def test_full_queue_still_evicts_global_oldest(self):
        q = MicroBatchQueue(max_batch=2, max_latency_s=None, capacity=2,
                            credit=2)
        q.push(PendingFrame("a", 0.0, np.zeros(4)))
        q.push(PendingFrame("b", 1.0, np.zeros(4)))
        evicted = q.push(PendingFrame("c", 2.0, np.zeros(4)))
        assert (evicted.link_id, evicted.t_s) == ("a", 0.0)

    def test_link_depth_tracks_drain(self):
        q = self._q(credit=4)
        for i in range(3):
            q.push(PendingFrame("a", float(i), np.zeros(4)))
        assert q.link_depth("a") == 3
        q.drain(2)
        assert q.link_depth("a") == 1
        assert q.link_depth("never-seen") == 0

    def test_oldest_t_s(self):
        q = self._q()
        assert q.oldest_t_s is None
        q.push(PendingFrame("a", 5.0, np.zeros(4)))
        q.push(PendingFrame("a", 7.0, np.zeros(4)))
        assert q.oldest_t_s == 5.0
        q.drain()
        assert q.oldest_t_s is None


@settings(max_examples=60, deadline=None)
@given(
    max_batch=st.integers(min_value=1, max_value=6),
    extra_capacity=st.integers(min_value=0, max_value=6),
    credit=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.sampled_from(["a", "b", "c"])),
            st.tuples(
                st.just("drain"),
                st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
            ),
        ),
        max_size=60,
    ),
)
def test_queue_matches_a_list_model(max_batch, extra_capacity, credit, ops):
    """Push/drain sequences against a plain-list model of the eviction rules."""
    capacity = max_batch + extra_capacity
    q = MicroBatchQueue(
        max_batch=max_batch, max_latency_s=None, capacity=capacity, credit=credit
    )
    model: list[PendingFrame] = []
    for i, (op, arg) in enumerate(ops):
        if op == "push":
            frame = PendingFrame(arg, float(i), np.zeros(2), frame_id=i)
            own = [f for f in model if f.link_id == arg]
            if credit is not None and len(own) >= credit:
                want_evicted = own[0]
            elif len(model) >= capacity:
                want_evicted = model[0]
            else:
                want_evicted = None
            if want_evicted is not None:
                model.remove(want_evicted)
            model.append(frame)
            assert q.push(frame) is want_evicted
        else:
            n = min(len(model), max_batch if arg is None else arg)
            want, model = model[:n], model[n:]
            assert q.drain(arg) == want
        assert q.max_batch == max_batch
        assert q.depth == len(model) <= capacity
        for link in "abc":
            depth = sum(f.link_id == link for f in model)
            assert q.link_depth(link) == depth
            assert credit is None or depth <= credit
        assert q.oldest_t_s == (model[0].t_s if model else None)
