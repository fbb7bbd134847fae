"""Result persistence: measurement round-trips and the run-unit cache.

:mod:`repro.io.storage` saves and loads measurement time series;
:mod:`repro.io.artifacts` holds the content-addressed :class:`RunStore` cache
and its one document builder (ensembles use ``.npz`` via their own
save/load) behind the :class:`RunStoreBackend` protocol; :mod:`repro.io.remote`
adds the HTTP client backend and the :func:`open_store` path-or-URL factory;
:mod:`repro.io.service` is the ``repro serve-store`` server fronting a
filesystem store for remote workers.
"""

from repro.io.artifacts import RunStore, RunStoreBackend, RunStoreError
from repro.io.remote import HTTPRunStore, open_store
from repro.io.storage import load_measurement, save_measurement

__all__ = [
    "save_measurement",
    "load_measurement",
    "RunStore",
    "RunStoreBackend",
    "RunStoreError",
    "HTTPRunStore",
    "open_store",
]
