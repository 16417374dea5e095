"""Performance benchmark harness for the chunk-search reproduction.

The harness drives the library in-process (single client, closed loop)
and measures it from the outside only: no attribute of any ``repro``
module is patched.  Layers are reached either through a public argument
(a proxy: ``ChunkIndex.store``, the searcher handed to ``QueryService``,
a ``FaultInjector`` subclass) or by re-issuing, after the real call, the
module-level calls its ``SearchTrace`` names (a replay).

Modules
-------
``env``        BLAS pinning, locating the checkout's ``src``, RSS.
``stats``      nearest-rank percentiles, median of rounds, quartile spread.
``tracing``    in-memory spans and self-time arithmetic.
``yardstick``  the reference computation the gated timings are relative to.
``data``       seeded input generation and the on-disk input cache.
``reference``  brute-force k-NN the exact results are checked against.
``runner``     the run loop shared by every workload.
``search_workloads`` / ``serving`` / ``ingest``  the five workloads.
"""
