"""Result persistence: the content-addressed run-unit cache.

:mod:`repro.io.artifacts` holds the content-addressed :class:`RunStore`
cache and its one document builder (ensembles use ``.npz`` via their own
save/load) behind the :class:`RunStoreBackend` protocol; :mod:`repro.io.remote`
adds the HTTP client backend and the :func:`open_store` path-or-URL factory;
:mod:`repro.io.service` is the ``repro serve-store`` server fronting a
filesystem store for remote workers.  A single measurement is written as
JSON with :func:`repro.viz.save_json` and read back with
:meth:`repro.core.self_organization.SelfOrganizationResult.from_dict`.
"""

from repro.io.artifacts import RunStore, RunStoreBackend, RunStoreError
from repro.io.remote import HTTPRunStore, open_store

__all__ = [
    "RunStore",
    "RunStoreBackend",
    "RunStoreError",
    "HTTPRunStore",
    "open_store",
]
