"""repro.service — a long-running multi-graph query server.

The serving layer the ROADMAP's "heavy traffic" north star calls for:
instead of paying process startup, graph construction, and a cold
:class:`~repro.indexes.graph_cache.GraphIndexCache` on every invocation,
a process loads named graphs once into a :class:`GraphCatalog` (pinned
indexes + warm :class:`~repro.core.dsql.DSQL` sessions with their
``query_many`` memos) and answers diversified top-k queries over HTTP for
its whole lifetime.

Pieces (all stdlib; no web framework):

* :class:`GraphCatalog` / :class:`CatalogEntry` — named warm graphs
  (:mod:`repro.service.catalog`);
* :class:`AdmissionController` / :class:`WorkUnitAdmissionController` —
  load shedding behind one seam: bounded request counts (default) or an
  estimated work-unit budget priced by :mod:`repro.cost`, both answering
  429 with an occupancy-scaled ``Retry-After``; :class:`ClientQuotas`
  adds per-client token buckets keyed by ``X-Client-Id``
  (:mod:`repro.service.admission`);
* :class:`AccessLog` — opt-in JSONL per-request log with estimated vs
  actual work units (:mod:`repro.service.accesslog`);
* :class:`QueryService` / :class:`ServiceServer` — request handling and
  the ``HTTPServer`` transport (reused handler threads) with graceful
  SIGTERM drain (:mod:`repro.service.server`);
* :class:`MultiWorkerServer` — N pre-forked worker processes, each started
  with the catalog's graphs, behind one ``SO_REUSEPORT`` port, with merged
  ``/healthz`` + ``/metrics`` views (:mod:`repro.service.multiworker`);
* :class:`ServiceClient` — a ``urllib`` client
  (:mod:`repro.service.client`);
* the wire schemas and :class:`ServiceError` (:mod:`repro.service.schemas`).

Graphs served by the single-process server are *live*: ``POST
/v1/graphs/{g}/edges`` and ``POST /v1/graphs/{g}/ingest`` apply mutations
under a per-graph write lock with delta-based index repair (contract in
``docs/mutation.md``). The pre-forked multi-worker front is read-only and
answers 501 ``mutation_unsupported``.

Start one from the CLI (``repro-dsql serve --dataset dblp``) or in
process::

    from repro.core.config import DSQLConfig
    from repro.datasets.registry import make_dataset
    from repro.service import GraphCatalog, QueryService, ServiceServer

    catalog = GraphCatalog(default_config=DSQLConfig(k=10))
    catalog.add_graph("dblp", make_dataset("dblp"))
    server = ServiceServer(QueryService(catalog), port=0).start()
    print(server.url)
    ...
    server.close()  # drain: finish in-flight work, flush traces

Endpoints, JSON schemas, and admission-control knobs are documented in
``docs/service.md``; the ``service.*`` metrics are in the catalog of
``docs/observability.md``.
"""

from repro.service.accesslog import AccessLog, read_access_log
from repro.service.admission import (
    ADMISSION_MODES,
    AdmissionController,
    ClientQuotas,
    NullAdmissionController,
    WorkUnitAdmissionController,
    build_admission_controller,
)
from repro.service.catalog import CatalogEntry, GraphCatalog, build_catalog
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.schemas import (
    BATCH_STRATEGIES,
    BatchRequest,
    MutationRequest,
    QueryRequest,
    ServiceError,
    mutation_to_json,
    parse_batch_request,
    parse_edge_mutation,
    parse_ingest_request,
    parse_json_body,
    parse_query_request,
    query_graph_from_json,
    query_graph_to_json,
    result_to_json,
)
from repro.service.multiworker import MultiWorkerServer
from repro.service.server import QueryService, ServiceServer

__all__ = [
    "ADMISSION_MODES",
    "AccessLog",
    "AdmissionController",
    "ClientQuotas",
    "NullAdmissionController",
    "WorkUnitAdmissionController",
    "build_admission_controller",
    "read_access_log",
    "CatalogEntry",
    "GraphCatalog",
    "build_catalog",
    "MultiWorkerServer",
    "ServiceClient",
    "ServiceClientError",
    "QueryService",
    "ServiceServer",
    "ServiceError",
    "QueryRequest",
    "BatchRequest",
    "MutationRequest",
    "BATCH_STRATEGIES",
    "parse_query_request",
    "parse_batch_request",
    "parse_edge_mutation",
    "parse_ingest_request",
    "mutation_to_json",
    "parse_json_body",
    "query_graph_from_json",
    "query_graph_to_json",
    "result_to_json",
]
