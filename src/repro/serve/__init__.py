"""``repro serve``: an asyncio job service over the shared kernels.

The serving layer turns the library's paradigm kernels (DMM solve,
Shor factoring, oscillator distance/detect) into a long-running
multi-tenant service: jobs are validated, coalesced when identical,
and either run at submission (the few-millisecond kernels) or admitted
through a bounded priority queue and executed on kernel threads and the
one persistent worker pool -- with the content-addressed
:class:`~repro.core.cache.ResultCache` as the shared result store.  See
``docs/serving.md``.
"""

from .admission import AdmissionQueue
from .app import ServeApp, run_app
from .jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobTable
from .service import JobService, ServeConfig, validate_request

__all__ = [
    "AdmissionQueue",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "Job",
    "JobTable",
    "JobService",
    "ServeApp",
    "ServeConfig",
    "run_app",
    "validate_request",
]
