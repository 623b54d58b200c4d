"""Deterministic network fault injection for the serving layer.

``repro.sim.iofaults`` wrecks the storage plane; this module gives the
same adversarial treatment to the transport plane between
:class:`~repro.serve.client.ServeClient` and the daemon in
``repro.serve.app``.

Every client connect/send/recv and every daemon accept/respond crosses
one of the hooks below (:func:`connect`, :func:`send`, :func:`recv`,
:func:`accept`, :func:`respond`).  Connections are kept alive, so the
dial sites ``client.connect`` and ``daemon.accept`` fire once per
connection, while ``client.send``, ``client.recv`` and
``daemon.respond`` fire once per request: a seeded ``~count/seed``
clause on a dial site samples dials, not requests.  When no fault plan
is armed each hook is a single ``None`` check in front of the real
operation — the disabled overhead is bench-asserted ≤ 2%
(``benchmarks/bench_cluster.py``).

``REPRO_NET_FAULTS`` says which transport *operations* fail and how,
in the spec language of :mod:`repro.sim.faultplan` (grammar, seeded
sampling, the ``site=``/``secs=``/``of=`` parameters, lazy arming and
per-site sequencing)::

    REPRO_NET_FAULTS="refuse@0:site=client.connect"  # first dial
    REPRO_NET_FAULTS="reset~3/7"                     # 3 seeded RSTs
    REPRO_NET_FAULTS="garble:site=client.recv"       # every read
    REPRO_NET_FAULTS="drop@2:site=daemon;delay:secs=0.005"

**Sites** are dotted ``<side>.<op>`` names (sides ``client`` and
``daemon``); the op suffix decides which kinds can fire there:

    ============ ====================================================
    op            kinds that apply
    ============ ====================================================
    connect       refuse, reset, delay            (client dials)
    send          reset, drop, half-close, delay  (client writes)
    recv          reset, drop, garble, delay      (client reads)
    accept        refuse, reset, delay            (daemon accepts)
    respond       reset, drop, garble, dup-response, half-close,
                  delay                           (daemon replies)
    ============ ====================================================

Hard kinds raise :class:`InjectedNetError` (an ``OSError`` with a real
``errno``) or :class:`InjectedNetTimeout` (a ``socket.timeout``) so
every caller's existing transport-retry path is exercised; the soft
kinds mutate the payload instead — ``garble`` NUL-smashes a span of
the bytes (guaranteed to break JSON parsing, never to produce a
plausible-but-wrong payload), ``dup-response`` and ``half-close`` on
the daemon side are returned as *actions* for the response writer to
apply (send twice / send the head then sever mid-body).

``drop`` models a blackholed segment.  Literally waiting out the peer
timeout would make chaos runs crawl, so the hook raises an
:class:`InjectedNetTimeout` immediately — same exception type, same
recovery path, no wall-clock tax.  ``delay`` stalls for ``secs``.  A
malformed spec raises :class:`NetFaultSpecError`.
"""

from __future__ import annotations

import errno
import socket
import time
from typing import Set, Tuple

from repro.sim import faultplan

ENV_VAR = "REPRO_NET_FAULTS"

#: Which fault kinds can fire at which op suffix (see module docstring).
_OPS_FOR_KIND = {
    "refuse": ("connect", "accept"),
    "reset": ("connect", "send", "recv", "accept", "respond"),
    "drop": ("send", "recv", "respond"),
    "delay": ("connect", "send", "recv", "accept", "respond"),
    "garble": ("recv", "respond"),
    "dup-response": ("respond",),
    "half-close": ("send", "respond"),
}

KINDS = tuple(_OPS_FOR_KIND)


class NetFaultSpecError(faultplan.SpecError):
    """A ``REPRO_NET_FAULTS`` spec failed to parse."""


class InjectedNetError(OSError):
    """An injected transport failure (carries a real errno)."""


class InjectedNetTimeout(socket.timeout):
    """An injected blackhole: the segment never arrives."""


PLANE = faultplan.Plane(ENV_VAR, _OPS_FOR_KIND, NetFaultSpecError)

parse = PLANE.parse
plan_from_env = PLANE.from_env
arm = PLANE.arm
disarm = PLANE.disarm
reset_counters = PLANE.reset_counters


def _inject(site: str, hard: bool = True) -> Set[str]:
    """Fire *site*'s clauses: stall on ``delay`` and, with *hard* (the
    client seams), raise refuse/reset/drop.  Returns the kinds that
    fired, for the caller's soft effects."""
    kinds = set()
    for clause in PLANE.fire(site):
        kinds.add(clause.kind)
        if clause.kind == "delay":
            time.sleep(clause.secs)
        elif not hard:
            continue
        elif clause.kind == "refuse":
            raise InjectedNetError(
                errno.ECONNREFUSED, f"injected ECONNREFUSED at {site}")
        elif clause.kind == "reset":
            raise InjectedNetError(
                errno.ECONNRESET, f"injected ECONNRESET at {site}")
        elif clause.kind == "drop":
            raise InjectedNetTimeout(f"injected blackhole at {site}")
    return kinds


def _garble(data: bytes) -> bytes:
    """NUL-smash a span of *data*, keeping its length.

    NUL bytes are invalid anywhere in a JSON document and in an HTTP
    status line, so a garbled payload always fails parsing — it can
    never decode into a plausible-but-wrong result, which is what keeps
    the never-bitwise-wrong chaos invariant checkable.
    """
    if not data:
        return data
    span = max(1, len(data) // 4)
    start = len(data) // 2
    return data[:start] + b"\x00" * min(span, len(data) - start) \
        + data[start + span:]


# ----------------------------------------------------------------------
# The socket-seam shim
# ----------------------------------------------------------------------

def connect(site: str) -> None:
    """Client dial fault point (refuse/reset/delay)."""
    if PLANE.plan is not None:
        _inject(site)


def send(site: str) -> None:
    """Client request-write fault point (reset/drop/half-close/delay).

    ``half-close`` on the send side means the request never fully
    reached the peer before our FIN — indistinguishable from a reset
    for the caller, so it raises EPIPE.
    """
    if PLANE.plan is not None and "half-close" in _inject(site):
        raise InjectedNetError(
            errno.EPIPE, f"injected EPIPE at {site}")


def recv(site: str, data: bytes) -> bytes:
    """Client response-read fault point (reset/drop/garble/delay).

    ``garble`` corrupts the received bytes in place of raising — the
    caller's parse-and-validate path must catch it.
    """
    if PLANE.plan is not None and "garble" in _inject(site):
        return _garble(data)
    return data


def accept(site: str) -> str:
    """Daemon accept fault point; returns ``"ok"`` or ``"close"``.

    The daemon side cannot raise into the kernel's accept queue, so
    refuse/reset are modeled as an immediate unceremonious close of the
    just-accepted connection — the client observes a refused/reset
    dial, which is the same wire-visible outcome.
    """
    if PLANE.plan is not None \
            and _inject(site, hard=False) & {"refuse", "reset"}:
        return "close"
    return "ok"


def respond(site: str, body: bytes) -> Tuple[bytes, str]:
    """Daemon response-write fault point; returns ``(body, action)``.

    Actions for the response writer: ``"ok"`` write normally;
    ``"drop"`` write nothing and sever (blackholed reply); ``"reset"``
    abort the transport (RST); ``"half-close"`` write the head and half
    the body then sever; ``"dup"`` write the full response twice (a
    retransmit bug — the keep-alive parser must not read the duplicate
    as the answer to the *next* request).  ``garble`` corrupts the body
    bytes and composes with action ``"ok"``.
    """
    if PLANE.plan is None:
        return body, "ok"
    kinds = _inject(site, hard=False)
    if "garble" in kinds:
        body = _garble(body)
    for kind, action in (("drop", "drop"), ("reset", "reset"),
                         ("half-close", "half-close"),
                         ("dup-response", "dup")):
        if kind in kinds:
            return body, action
    return body, "ok"
