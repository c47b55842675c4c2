"""HTTP API gateway: the job service's network surface.

The spool service (PR 2) deliberately has no network dependency — a
daemon and its clients share a directory.  This package adds the
missing network tier without adding a dependency: a hand-rolled
asyncio HTTP/1.1 server (:mod:`repro.gateway.http`,
:mod:`repro.gateway.server`) that fronts one spool directory with a
REST API (:mod:`repro.gateway.app`), multi-tenant bearer-token
namespaces with quotas and deterministic rate limits
(:mod:`repro.gateway.tenants`), and a stdlib HTTP client mirroring the
spool client's interface (:mod:`repro.gateway.client`).

See DESIGN.md §12 for the architecture and tenancy semantics, and
``metaprep gateway --help`` for the CLI entry point.
"""
