"""Wire protocol of the serving layer: JSON bodies -> validated requests.

A ``/submit`` body is a flat JSON object of run parameters:
:data:`~repro.sim.runner.REQUEST_AXES` fields (``workload``,
``prefetcher``, ``variant``, ...) plus an optional ``config`` mapping of
dotted :class:`~repro.sim.config.SystemConfig` paths
(``llc.size_bytes``, ``dram.transfer_rate_mts``) to scalar overrides.
The daemon reads it with :func:`~repro.sim.runner.parse_run_request`,
the one rule that also expands campaign cells and builds the ``repro
run``/``compare`` requests, so a campaign cell's ``submit_body()``
names the cell's own cache address.

Validation happens entirely at admission, before anything reaches the
engine: an unknown workload/prefetcher/variant, a malformed override
path, or an out-of-range scalar raises :class:`ProtocolError` (HTTP
400), never a permanent in-worker failure that would burn an engine
slot on a request that could not possibly succeed.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.runner import RequestError, parse_run_request  # noqa: F401

#: The parser's one error type; admission answers it with HTTP 400.
ProtocolError = RequestError


def request_digest(data) -> str:
    """The content address a daemon would assign this submission.

    Validates *data* exactly like admission does and hashes the
    resolved run key — the same digest that names the job id, the
    cache entry, and (for the cluster client) the rendezvous placement
    of the request, so client-side routing and server-side coalescing
    agree by construction.
    """
    from repro.sim import cache as disk_cache

    return disk_cache.key_digest(parse_run_request(data).key())


def parse_submission(body) -> Dict[str, list]:
    """Parse a ``/batch`` body: ``{"requests": [...]}`` of objects."""
    if not (isinstance(body, dict)
            and isinstance(body.get("requests"), list)):
        raise ProtocolError("batch submission must be {'requests': [...]}")
    requests = body["requests"]
    if not requests:
        raise ProtocolError("'requests' must not be empty")
    return {"requests": requests}
