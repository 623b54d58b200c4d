"""Tests for repro.prefetch.ppf — perceptron prefetch filtering."""

import pytest

from repro.prefetch.ppf import WEIGHT_MAX, WEIGHT_MIN, PPF, PerceptronFilter

from conftest import make_ctx


def feed_stream(ppf, count, stride=1, window="4k"):
    ctx = None
    for i in range(count):
        ctx = make_ctx(i * stride, window=window, ip=0x77)
        ppf.on_access(ctx)
    return ctx


class TestPerceptronFilter:
    def test_initial_prediction_zero(self):
        filt = PerceptronFilter()
        indices = filt.feature_indices(1, 2, 3, 4, 5, 0, 1, 6)
        assert filt.predict(indices) == 0

    def test_positive_training_raises_score(self):
        filt = PerceptronFilter()
        indices = filt.feature_indices(1, 2, 3, 4, 5, 0, 1, 6)
        filt.train(indices, positive=True)
        assert filt.predict(indices) == len(filt.tables)

    def test_negative_training_lowers_score(self):
        filt = PerceptronFilter()
        indices = filt.feature_indices(1, 2, 3, 4, 5, 0, 1, 6)
        filt.train(indices, positive=False)
        assert filt.predict(indices) == -len(filt.tables)

    def test_weights_saturate(self):
        filt = PerceptronFilter()
        indices = filt.feature_indices(1, 2, 3, 4, 5, 0, 1, 6)
        for _ in range(100):
            filt.train(indices, positive=True)
        for table, i in zip(filt.tables, indices):
            assert WEIGHT_MIN <= table[i] <= WEIGHT_MAX

    def test_feature_indices_in_range(self):
        filt = PerceptronFilter()
        indices = filt.feature_indices(
            2**40, 2**41, 2**39, 2**33, -5, 7, 15, 2**42)
        for table, i in zip(filt.tables, indices):
            assert 0 <= i < len(table)

    def test_storage_bits(self):
        assert PerceptronFilter().storage_bits() > 0


class TestPPFBehaviour:
    def test_initial_weights_accept(self):
        """Untrained perceptron sums to 0 >= TAU_LO: PPF starts permissive."""
        ppf = PPF()
        ctx = feed_stream(ppf, 20)
        assert ctx.requests
        assert ppf.accepted > 0

    def test_unused_eviction_trains_reject(self):
        ppf = PPF()
        ctx = feed_stream(ppf, 30)
        issued = [block for block, _, _ in ctx.requests]
        assert issued
        # Report every issued prefetch as evicted-unused, repeatedly.
        for _ in range(60):
            ctx = feed_stream(ppf, 30)
            for target, _, _ in ctx.requests:
                ppf.on_prefetch_evicted_unused(target)
        assert ppf.rejected > 0

    def test_useful_feedback_trains_accept(self):
        ppf = PPF()
        ctx = feed_stream(ppf, 30)
        for target, _, _ in ctx.requests:
            ppf.on_prefetch_useful(target)
        # Weights moved positive: next candidates keep flowing to L2.
        ctx = feed_stream(ppf, 31)
        assert any(fill_l2 for _, fill_l2, _ in ctx.requests)

    def test_demand_miss_on_rejected_trains_accept(self):
        ppf = PPF()
        # Force rejection by hammering negative feedback.
        for _ in range(80):
            ctx = feed_stream(ppf, 30)
            for target, _, _ in ctx.requests:
                ppf.on_prefetch_evicted_unused(target)
        rejected_before = ppf.rejected
        assert rejected_before > 0
        # Now every rejected block demand-misses: filter must re-open.
        for _ in range(80):
            ctx = feed_stream(ppf, 30)
            for key in list(ppf.reject_table._data):
                ppf.on_demand_miss(key)
        ctx = feed_stream(ppf, 31)
        assert ctx.requests, "filter failed to recover from false rejects"

    def test_feedback_for_unknown_block_is_noop(self):
        ppf = PPF()
        ppf.on_prefetch_useful(12345)
        ppf.on_prefetch_evicted_unused(12345)
        ppf.on_demand_miss(12345)

    def test_inherits_spp_engine(self):
        ppf = PPF()
        assert ppf.signature_table is not None
        assert ppf.PF_THRESHOLD < 0.25   # more aggressive than plain SPP

    def test_storage_includes_filter(self):
        from repro.prefetch.spp import SPP
        assert PPF().storage_bits() > SPP().storage_bits()

    def test_rejected_candidates_recorded(self):
        ppf = PPF()
        for _ in range(80):
            ctx = feed_stream(ppf, 30)
            for target, _, _ in ctx.requests:
                ppf.on_prefetch_evicted_unused(target)
        assert len(ppf.reject_table) > 0 or ppf.rejected == 0
