"""Shared test fixtures and helpers."""

import contextlib
import os
from typing import Optional

import pytest
from hypothesis import settings as hypothesis_settings

from repro.memory.address import BLOCKS_PER_2M, BLOCKS_PER_4K, PAGE_SIZE_4K
from repro.prefetch.base import BoundaryStats, PrefetchContext
from repro.sim import kernel

# Shared hypothesis profiles, selected via HYPOTHESIS_PROFILE.  Individual
# test files must not carry their own @settings: per-file drift is exactly
# what these profiles replace.
#
# - ``ci``  : derandomized (reproducible across runs) and more thorough;
#   what the CI workflow selects.
# - ``dev`` : fast feedback for local runs (the default).
hypothesis_settings.register_profile(
    "ci", max_examples=75, derandomize=True, deadline=None)
hypothesis_settings.register_profile(
    "dev", max_examples=25, deadline=None)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session", autouse=True)
def _hermetic_disk_cache(tmp_path_factory):
    """Point the persistent run cache at a per-session temp directory.

    The disk cache still gets exercised end-to-end, but test runs neither
    read stale entries from ``~/.cache/repro`` nor pollute it.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def make_ctx(block: int, ip: int = 0x400,
             window: str = "4k", true_page_size: int = PAGE_SIZE_4K,
             page_size_bit: Optional[int] = None,
             stats: Optional[BoundaryStats] = None) -> PrefetchContext:
    """Build a PrefetchContext with a 4KB, 2MB, or unbounded window."""
    if window == "4k":
        lo = block & ~(BLOCKS_PER_4K - 1)
        hi = lo + BLOCKS_PER_4K - 1
    elif window == "2m":
        lo = block & ~(BLOCKS_PER_2M - 1)
        hi = lo + BLOCKS_PER_2M - 1
    elif window == "open":
        lo, hi = 0, 1 << 60
    else:
        raise ValueError(f"unknown window {window!r}")
    return PrefetchContext(
        block, ip, lo, hi, stats if stats is not None else BoundaryStats(),
        page_size_bit=page_size_bit, true_page_size=true_page_size)


@pytest.fixture
def ctx_factory():
    return make_ctx


@contextlib.contextmanager
def reference_loop():
    """Run the body on the ``Core.step`` reference loop.

    ``Core.run`` and ``simulate_mix`` ask ``kernel.fused_enabled`` which
    executor to take; answering no makes them compile no runner.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "fused_enabled", lambda core: False)
        yield


def count_runners(monkeypatch) -> list:
    """Record each core ``kernel.compile_runner`` compiles a runner for."""
    built = []
    compile_runner = kernel.compile_runner

    def counting(core, h, on_record=None):
        built.append(core)
        return compile_runner(core, h, on_record)

    monkeypatch.setattr(kernel, "compile_runner", counting)
    return built
