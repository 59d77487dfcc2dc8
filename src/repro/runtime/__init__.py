"""Shared parallel experiment runtime.

The paper's evaluation is a collection of *grids*: independent
(topology, quorum system, demand, seed) points whose results are assembled
into figures, and independent candidate placements whose delays select a
winner. This package provides the machinery every such workload shares:

* :mod:`repro.runtime.grid` — :class:`GridPoint`/:class:`GridSpec`, the
  data model figure runners use to *declare* their parameter grids instead
  of looping over them imperatively;
* :mod:`repro.runtime.runner` — :class:`GridRunner`, which executes a grid
  serially or over a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
  with results guaranteed identical to serial execution. Runners nest
  without nesting pools: inside one of its own workers a runner always
  runs inline, so a whole experiment (outer grid plus inner candidate
  searches) uses exactly one pool;
* :mod:`repro.runtime.cache` — :class:`ResultCache`, an on-disk cache keyed
  by a content hash of each point's inputs, so repeated sweeps (benchmarks,
  figure regeneration, CI) skip work that has already been done;
* :mod:`repro.runtime.shm` — :class:`TopologyBroker`, which publishes a
  topology's O(n^2) delay matrix into one shared-memory block per content
  fingerprint so parallel candidate searches ship a tiny handle per grid
  point instead of pickling the matrix per task.

``python -m repro figure <id|all>`` surfaces the runtime through
``--jobs`` and ``--no-cache`` flags.
"""

from repro.runtime.cache import (  # cache-key-input
    ResultCache,
    content_key,
    default_cache_dir,
    system_fingerprint,
    topology_fingerprint,
)
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.runner import GridRunner
from repro.runtime.shm import (
    TopologyBroker,
    TopologyHandle,
    resolve_topology,
    shm_available,
)

__all__ = [
    "GridPoint",
    "GridSpec",
    "GridRunner",
    "ResultCache",
    "TopologyBroker",
    "TopologyHandle",
    "content_key",
    "default_cache_dir",
    "resolve_topology",
    "shm_available",
    "system_fingerprint",
    "topology_fingerprint",
]
