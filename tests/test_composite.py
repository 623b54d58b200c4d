"""Tests for repro.core.composite — the Pref-PSA-SD composite module."""

import pytest

from repro.core.composite import CompositePSAPrefetcher
from repro.core.set_dueling import ROLE_FOLLOWER, ROLE_PSA_2MB_LEADER, ROLE_PSA_LEADER
from repro.memory.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.prefetch.base import ISSUER_PSA, ISSUER_PSA_2MB, L2Prefetcher
from repro.sim.config import DuelingConfig


class CountingPrefetcher(L2Prefetcher):
    """Counts training calls; emits one next-block candidate."""

    name = "counting"

    def __init__(self, region_bits=12):
        super().__init__(region_bits)
        self.trained = 0
        self.useful_calls = []

    def on_access(self, ctx):
        self.trained += 1
        ctx.emit(ctx.block + 1)

    def on_prefetch_useful(self, block):
        self.useful_calls.append(block)


def make(policy="proposed", num_sets=1024):
    config = DuelingConfig(policy=policy)
    module = CompositePSAPrefetcher(CountingPrefetcher, num_sets, config)
    return module


def set_with_role(module, role):
    selector = module.selector
    return next(s for s in range(selector.num_sets)
                if selector.role_of_set(s) == role)


class TestConstruction:
    def test_two_granularities(self):
        module = make()
        assert module.members[ISSUER_PSA].prefetcher.region_bits == 12
        assert module.members[ISSUER_PSA_2MB].prefetcher.region_bits == 21

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            make(policy="coin-flip")

    def test_name(self):
        assert make().name == "counting-psa-sd"


class TestTrainingPolicy:
    def test_proposed_trains_both(self):
        module = make(policy="proposed")
        leader = set_with_role(module, ROLE_PSA_LEADER)
        module.on_l2_access(0, 0, leader, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert module.members[ISSUER_PSA].prefetcher.trained == 1
        assert module.members[ISSUER_PSA_2MB].prefetcher.trained == 1

    def test_standard_trains_selected_only(self):
        module = make(policy="standard")
        leader = set_with_role(module, ROLE_PSA_LEADER)
        module.on_l2_access(0, 0, leader, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert module.members[ISSUER_PSA].prefetcher.trained == 1
        assert module.members[ISSUER_PSA_2MB].prefetcher.trained == 0


class TestIssuing:
    def test_only_selected_issues(self):
        module = make()
        leader = set_with_role(module, ROLE_PSA_LEADER)
        requests = module.on_l2_access(
            0, 0, leader, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert len(requests) == 1
        assert requests[0][2] == ISSUER_PSA

    def test_2mb_leader_issues_2mb(self):
        module = make()
        leader = set_with_role(module, ROLE_PSA_2MB_LEADER)
        requests = module.on_l2_access(
            0, 0, leader, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert requests[0][2] == ISSUER_PSA_2MB

    def test_follower_follows_csel(self):
        module = make()
        follower = set_with_role(module, ROLE_FOLLOWER)
        requests = module.on_l2_access(
            0, 0, follower, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert requests[0][2] == ISSUER_PSA   # csel starts at 0
        module.selector.csel = module.selector.csel_max
        requests = module.on_l2_access(
            64, 0, follower, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert requests[0][2] == ISSUER_PSA_2MB

    def test_page_size_policy_static_selection(self):
        module = make(policy="page-size")
        follower = set_with_role(module, ROLE_FOLLOWER)
        r4 = module.on_l2_access(0, 0, follower,
                                 PAGE_SIZE_4K, PAGE_SIZE_4K)
        r2 = module.on_l2_access(64, 0, follower,
                                 PAGE_SIZE_2M, PAGE_SIZE_2M)
        assert r4[0][2] == ISSUER_PSA
        assert r2[0][2] == ISSUER_PSA_2MB


class TestWindows:
    def test_both_components_get_psa_window(self):
        """Pref-PSA-2MB prefetches within the trigger's page only — the
        window is page-size-aware for both (Section IV-B1)."""
        module = make()
        leader = set_with_role(module, ROLE_PSA_2MB_LEADER)
        # Trigger at the last block of a 4KB page in a 4KB-truth page:
        # the +1 candidate crosses and must be discarded.
        requests = module.on_l2_access(
            63, 0, leader, PAGE_SIZE_4K, PAGE_SIZE_4K)
        assert not requests
        # Same trigger inside a 2MB page: allowed.
        requests = module.on_l2_access(
            1024 * 64 + 63, 0, leader, PAGE_SIZE_2M, PAGE_SIZE_2M)
        assert len(requests) == 1


class TestFeedback:
    def test_useful_updates_csel_and_routes(self):
        module = make()
        module.on_useful(5, ISSUER_PSA_2MB)
        assert module.selector.csel == 1
        assert module.members[ISSUER_PSA_2MB].prefetcher.useful_calls == [5]
        module.on_useful(6, ISSUER_PSA)
        assert module.selector.csel == 0
        assert module.members[ISSUER_PSA].prefetcher.useful_calls == [6]

    def test_demand_miss_broadcast(self):
        calls = []

        class MissTracking(CountingPrefetcher):
            def on_demand_miss(self, block):
                calls.append((self.region_bits, block))

        module = CompositePSAPrefetcher(MissTracking, 1024, DuelingConfig())
        module.on_demand_miss(7)
        assert (12, 7) in calls and (21, 7) in calls


class TestDiagnostics:
    def test_selection_fractions_sum_to_one(self):
        module = make()
        follower = set_with_role(module, ROLE_FOLLOWER)
        for i in range(10):
            module.on_l2_access(i * 64, 0, follower,
                                PAGE_SIZE_4K, PAGE_SIZE_4K)
        psa, psa2 = module.selection_fractions()
        assert psa + psa2 == pytest.approx(1.0)

    def test_selection_fractions_empty(self):
        assert make().selection_fractions() == (0.0, 0.0)

    def test_storage_roughly_doubles(self):
        module = make()
        single = module.members[ISSUER_PSA].prefetcher.storage_bits()
        assert module.storage_bits() >= 2 * single
