"""Transport-abstracted Gamma evaluation service with warm-kernel persistence.

The paper's secure-view search is bounded by Gamma evaluation over module
relations; this subsystem distributes that work.  The *policy* layer
(:class:`ShardCoordinator`) hash-partitions requests by canonical
:class:`~repro.privacy.kernel_registry.RelationStructure` signature,
ships structures once, correlates out-of-order completions by request
id and retries around crashes.  The *mechanics* live behind the
:class:`~repro.service.transport.Transport` interface: in-process
(``workers=0``, the oracle), a pool over N forked servers
(``workers=N``, :class:`~repro.service.forked.ForkedServerPool`),
length-prefixed frames over unix/TCP sockets to a standalone
:class:`~repro.service.server.GammaServer` (``repro serve``) shared by
many client processes, or a federated pool of several servers
(:class:`~repro.service.pool.PooledTransport`,
``ShardCoordinator(endpoints=[...])``) with per-endpoint reconnect and
elastic membership: consistent-hash routing with bounded loads
(:class:`~repro.service.ring.HashRing`), a background health prober
that re-admits healed endpoints, and live shard rebalancing with
warm-kernel handoff.  Servers schedule tenants fairly (bounded
per-connection queues drained by deficit round-robin over estimated
batch cost, with per-tenant weights/quotas from a
:class:`~repro.service.security.PolicyTable` and ``overload`` shedding
once a flooding tenant's queue and credit are both exhausted) and
optionally terminate TLS with a pre-decode token handshake
(:mod:`repro.service.security`).  Warm kernels are
snapshotted to disk on eviction/shutdown and preloaded on start, so
repeated sweeps skip cold-start entirely; every transport returns
byte-identical results (``tests/test_transport_conformance.py`` holds
all of them to one conformance matrix).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "coordinator": ("GammaRequest", "ShardCoordinator"),
        "forked": ("ForkedServerPool",),
        "persistence": ("KernelSnapshotStore",),
        "pool": ("PooledTransport",),
        "protocol": (
            "WANT_ENTRY",
            "WANT_GAMMA",
            "GammaBatch",
            "GammaTask",
            "ShardReport",
            "TaskResult",
            "merge_kernel_stats",
            "shard_of",
        ),
        "ring": ("HashRing",),
        "security": (
            "PolicyTable",
            "TenantPolicy",
            "build_client_ssl_context",
            "build_server_ssl_context",
            "generate_self_signed_cert",
        ),
        "server": ("GammaServer",),
        "transport": (
            "ExponentialBackoff",
            "InProcessTransport",
            "SocketTransport",
            "Transport",
            "build_transport",
            "parse_address",
            "probe_endpoint",
        ),
    },
)
