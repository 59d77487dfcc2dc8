"""Bring your own topology: generate it, save it, reload it, place on it.

Shows the topology substrate end to end: generate a custom cluster
topology, save its RTT matrix with numpy, reload the matrix into a
:class:`~repro.network.graph.Topology`, and place a Grid on the reloaded
topology. Any measured RTT matrix loads the same way.

Run: ``python examples/custom_topology.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    GridQuorumSystem,
    Topology,
    best_placement,
    evaluate,
    generate_cluster_topology,
)
from repro.network.generators import ClusterSpec
from repro.strategies.simple import closest_strategy


def main() -> None:
    clusters = [
        ClusterSpec("frankfurt", 50.1, 8.7, 2.0, 0.4),
        ClusterSpec("virginia", 38.9, -77.5, 2.5, 0.4),
        ClusterSpec("singapore", 1.3, 103.8, 1.5, 0.2),
    ]
    generated = generate_cluster_topology(40, clusters, seed=7)
    print(
        f"generated {generated.n_nodes}-site topology; median avg distance "
        f"{generated.mean_distances()[generated.median()]:.1f} ms"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "custom.npz"
        np.savez_compressed(
            path, rtt=generated.rtt, names=np.array(generated.names)
        )
        with np.load(path) as data:
            # The saved matrix is already metric; a raw measured matrix
            # would keep the default metric_closure=True.
            topology = Topology(
                data["rtt"],
                names=data["names"].tolist(),
                metric_closure=False,
            )
        print(f"reloaded {path.name}: {topology.n_nodes} sites")

    system = GridQuorumSystem(4)
    search = best_placement(topology, system)
    placed = search.placed
    delay = evaluate(placed, closest_strategy(placed)).avg_network_delay
    hosts = [topology.names[w] for w in sorted(set(placed.placement.assignment))]
    print(f"\n{system.name} placed around {topology.names[search.v0]}:")
    print(f"   average network delay (closest strategy): {delay:.1f} ms")
    print(f"   hosting sites: {', '.join(hosts)}")


if __name__ == "__main__":
    main()
