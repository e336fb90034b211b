"""The study service: a long-running, multi-tenant job server.

The batch surface (``repro study``, and its ``explore``/``campaign``
presets) runs its specs and exits.  This package turns the same engine into a *service*: a
single asyncio process that accepts :class:`~repro.study.spec.
StudySpec` submissions over a line-delimited JSON protocol
(:mod:`~repro.service.protocol`), queues them with priorities and
per-tenant fairness (:mod:`~repro.service.queue`), runs them against
one shared worker budget and one shared result cache — deduplicating
identical in-flight evaluations across concurrent studies
(:mod:`~repro.service.dedupe`) — and streams partial Pareto fronts
back to subscribed clients as points complete.  Queue state persists
through the same checkpoint machinery studies use, so a killed server
resumes its queue (:mod:`~repro.service.server`).

:class:`~repro.service.client.ServiceClient` is the blocking-socket
counterpart the CLI (``repro serve|submit|jobs|results|cancel``) and
the tests drive.

Operational telemetry is live: the server keeps a
:class:`~repro.telemetry.live.LiveRegistry` of queue/worker gauges,
job lifecycle counters and latency histograms, answers the ``metrics``
protocol op with per-tenant and global aggregates, and (via the CLI's
``--metrics-addr``) serves Prometheus text over HTTP.  ``repro top``
(:mod:`~repro.service.top`) renders the same numbers as a terminal
dashboard.
"""

from repro.service.client import ServiceClient, wait_for_server
from repro.service.dedupe import DedupeCache, InflightIndex
from repro.service.protocol import (
    METRICS_VERSION,
    PROTOCOL_VERSION,
    parse_address,
)
from repro.service.queue import Job, JobQueue, JobState
from repro.service.server import StudyServer
from repro.service.top import render_dashboard, run_top

__all__ = [
    "DedupeCache",
    "InflightIndex",
    "Job",
    "JobQueue",
    "JobState",
    "METRICS_VERSION",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "StudyServer",
    "parse_address",
    "render_dashboard",
    "run_top",
    "wait_for_server",
]
