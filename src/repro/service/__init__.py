"""Analysis-as-a-service: a persistent server for repeated queries.

The one-shot CLI (``python -m repro analyze``) pays interpreter
startup, parsing and CPS compilation per request.  k-CFA being
EXPTIME-complete, a serving layer must make per-request budgets,
request coalescing and cache reuse first-class — this package is that
layer:

* :mod:`repro.service.jobs` — one analysis request as a value
  (:class:`~repro.service.jobs.JobSpec`), plus the compile-and-run
  core shared by ``analyze``, ``bench`` workers and the server's
  worker pool;
* :mod:`repro.service.protocol` — the streaming NDJSON wire format;
* :mod:`repro.service.server` — the concurrent job scheduler
  (``python -m repro serve``);
* :mod:`repro.service.client` — a thin client
  (``python -m repro submit``).

Importing the package stays light: the server and client modules pull
in sockets and the process pool only when actually imported.
"""

from repro.service.jobs import (
    FJ_ANALYSES, JobSpec, REPORT_CHOICES, SCHEME_ANALYSES, job_cache_key,
    run_job,
)
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError

__all__ = [
    "FJ_ANALYSES", "JobSpec", "REPORT_CHOICES", "SCHEME_ANALYSES",
    "job_cache_key", "run_job",
    "PROTOCOL_VERSION", "ProtocolError",
]
