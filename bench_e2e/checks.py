"""Output checks: each workload's results must have the paper's shape.

The figure checks are the paper-claim assertions of the seed-era
``benchmarks/bench_fig_*.py`` scripts, restated as plain functions over a
``FigureResult`` that raise :class:`CheckFailed` (never ``assert``, which
``python -O`` strips). The benchmark runs every check after the timed
calls; a failed check counts as a failed operation and is reported by
name.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

#: Committed network delays, per workload: every network-delay series of
#: ``model-figs`` and the two network delays of the ``wan-plan`` plan.
#: Rewrite with ``python3 bench_e2e/run.py reference``.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance against :data:`REFERENCE_PATH`. Network delay is a
#: search or LP objective, so it is stable across solver paths; response
#: times are not (degenerate LP optima split load differently, and a site
#: renumbering is enough to pick another one) and are not pinned.
REFERENCE_RTOL = 1e-6


class CheckFailed(Exception):
    """An output check did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- Section 3: Q/U simulation -------------------------------------------------


def fig_3_1(result: Any) -> None:
    """Queueing grows with demand: response at the most clients is not
    below the fewest-clients response, for every universe size."""
    for series in result.series:
        if series.label.startswith("response"):
            require(
                series.y[-1] >= series.y[0] - 1.0,
                f"{series.label}: response fell with more clients",
            )


def fig_3_2a(result: Any) -> None:
    """Network delay grows with the universe; response >= network delay."""
    net = result.series_by_label("network delay")
    resp = result.series_by_label("response time")
    require(net.y[-1] > net.y[0], "network delay did not grow with n")
    require(
        all(r >= n for n, r in zip(net.y, resp.y)),
        "response time below network delay",
    )


def fig_3_2b(result: Any) -> None:
    """Network delay is flat in the client count; processing grows."""
    net = result.series_by_label("network delay")
    resp = result.series_by_label("response time")
    require(
        abs(net.y[-1] - net.y[0]) < 0.1 * net.y[0],
        "network delay moved with the client count",
    )
    require(
        resp.y[-1] - net.y[-1] > resp.y[0] - net.y[0],
        "processing delay did not grow with the client count",
    )


def fig_throughput(result: Any) -> None:
    """The fluid backend conserves requests."""
    require(
        bool(result.metadata.get("request_conservation_ok")),
        "fluid backend lost or invented requests",
    )


# -- Sections 6-8: the analytic model ----------------------------------------


def fig_6_3(result: Any) -> None:
    """The singleton is the floor; the Grid starts near it; the largest
    Majority ends worst."""
    singleton = min(result.series_by_label("Singleton").y)
    grid = result.series_by_label("Grid")
    large = result.series_by_label("Majority (4t+1, 5t+1)")
    require(
        all(min(s.y) >= singleton - 1e-9 for s in result.series),
        "a series beat the singleton floor",
    )
    require(grid.y[0] <= singleton * 1.25, "Grid far above the singleton")
    require(max(large.y) > max(grid.y), "largest Majority not the worst")


def fig_6_4(result: Any) -> None:
    """Closest wins somewhere at demand 1000, balanced at 4000, and the
    balanced advantage grows with demand."""
    c1 = result.series_by_label("closest demand=1000").y
    b1 = result.series_by_label("balanced demand=1000").y
    c4 = result.series_by_label("closest demand=4000").y
    b4 = result.series_by_label("balanced demand=4000").y
    require(any(c <= b for c, b in zip(c1, b1)), "closest never wins at 1000")
    require(any(b <= c for c, b in zip(c4, b4)), "balanced never wins at 4000")
    require(
        sum(c - b for c, b in zip(c4, b4)) > sum(c - b for c, b in zip(c1, b1)),
        "balanced advantage did not grow with demand",
    )


def fig_6_5(result: Any) -> None:
    """At demand 16000 balanced improves with n and beats closest."""
    resp_bal = result.series_by_label("response balanced").y
    resp_clo = result.series_by_label("response closest").y
    nd_bal = result.series_by_label("netdelay balanced").y
    require(min(resp_bal) < resp_bal[0], "balanced response never improved")
    require(resp_bal[-1] < resp_clo[-1], "balanced lost at the largest n")
    require(nd_bal[-1] > nd_bal[0], "balanced network delay did not grow")


def fig_7_6(result: Any) -> None:
    """Network delay falls with capacity; response rises."""
    for series in result.series:
        y = series.y
        if series.label.startswith("netdelay"):
            require(
                all(a >= b - 1e-6 for a, b in zip(y, y[1:])),
                f"{series.label}: network delay rose with capacity",
            )
        if series.label.startswith("response"):
            require(
                y[-1] >= y[0] - 1e-6,
                f"{series.label}: response fell with capacity",
            )


def fig_7_7(result: Any) -> None:
    """Non-uniform capacities never lose meaningfully, win in aggregate,
    and coincide with uniform at the smallest interval."""
    for series in result.series:
        if not series.label.startswith("uniform"):
            continue
        uni = series.y
        non = result.series_by_label(
            series.label.replace("uniform", "nonuniform")
        ).y
        require(
            all(n <= u * 1.01 + 0.5 for u, n in zip(uni, non)),
            f"{series.label}: non-uniform lost at a point",
        )
        require(sum(non) <= sum(uni) + 1e-6, "non-uniform lost in aggregate")
        require(
            abs(uni[0] - non[0]) <= 0.05 * uni[0],
            "uniform and non-uniform differ at the smallest interval",
        )


def fig_7_8(result: Any) -> None:
    """7x7 Grid: network delay falls with capacity, uniform response
    rises, non-uniform wins in aggregate."""
    nd = result.series_by_label("network delay").y
    uni = result.series_by_label("response uniform").y
    non = result.series_by_label("response nonuniform").y
    require(
        all(a >= b - 1e-6 for a, b in zip(nd, nd[1:])),
        "network delay rose with capacity",
    )
    require(uni[-1] >= uni[0], "uniform response fell with capacity")
    require(sum(non) <= sum(uni) + 1e-6, "non-uniform lost in aggregate")


def fig_8_9(result: Any) -> None:
    """The iterative algorithm beats one-to-one at every capacity, and
    the second iteration changes little."""
    it1 = result.series_by_label("netdelay 1st iteration").y
    it2 = result.series_by_label("netdelay 2nd iteration").y
    o2o = result.series_by_label("netdelay one-to-one").y
    require(all(a < b for a, b in zip(it1, o2o)), "iterative lost to one-to-one")
    require(
        all(abs(a - b) <= 10.0 for a, b in zip(it1, it2)),
        "second iteration moved network delay by > 10 ms",
    )


FIGURE_CHECKS = {
    "fig_3_1": fig_3_1,
    "fig_3_2a": fig_3_2a,
    "fig_3_2b": fig_3_2b,
    "fig_throughput": fig_throughput,
    "fig_6_3": fig_6_3,
    "fig_6_4": fig_6_4,
    "fig_6_5": fig_6_5,
    "fig_7_6": fig_7_6,
    "fig_7_7": fig_7_7,
    "fig_7_8": fig_7_8,
    "fig_8_9": fig_8_9,
}


# -- network-delay reference --------------------------------------------------


def is_network_delay(figure_id: str, label: str) -> bool:
    """Whether a series is a network delay (the LP objective).

    Figure 6.3 runs at alpha = 0, so every one of its series is one.
    """
    return (
        figure_id == "fig_6_3"
        or label.startswith("netdelay")
        or label == "network delay"
    )


def network_delay_series(results: dict[str, Any]) -> dict[str, list[float]]:
    """``{"<figure>/<label>": y}`` for every network-delay series."""
    return {
        f"{fid}/{s.label}": list(s.y)
        for fid, result in sorted(results.items())
        for s in result.series
        if is_network_delay(fid, s.label)
    }


def matches_reference(
    series: dict[str, list[float]], reference: dict[str, list[float]]
) -> None:
    """Every reference series is present and equal within
    :data:`REFERENCE_RTOL`."""
    require(
        sorted(series) == sorted(reference),
        f"network-delay series differ: {sorted(set(series) ^ set(reference))}",
    )
    for key, expected in reference.items():
        got = series[key]
        require(len(got) == len(expected), f"{key}: length changed")
        for g, e in zip(got, expected):
            require(
                math.isclose(g, e, rel_tol=REFERENCE_RTOL),
                f"{key}: {g!r} != reference {e!r}",
            )


def plan_delays(plan: dict[str, Any]) -> dict[str, list[float]]:
    """The plan's network delays: the search objective and the LP-tuned
    strategy's. Both are invariant under a renumbering of the sites."""
    return {
        "search_network_delay": [plan["avg_network_delay"]],
        "plan_network_delay": [plan["network_delay_ms"]],
    }


def load_reference() -> dict[str, dict[str, list[float]]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# -- closed loop and planning -------------------------------------------------


def clairvoyant_floor(mean_delay: dict[str, float]) -> None:
    """No policy beats the clairvoyant re-optimizer on mean delay."""
    floor = mean_delay["clairvoyant"]
    for policy, delay in mean_delay.items():
        require(delay >= floor, f"{policy} beat the clairvoyant optimum")


def tuned_is_best(mean_regret: dict[str, float], best: str) -> None:
    """The tuner picked a threshold of least mean regret."""
    require(
        mean_regret[best] <= min(mean_regret.values()),
        f"tuned {best} is not a least-regret threshold",
    )


def adapting_pays(
    mean_delay: dict[str, float], policy: str, strict: bool
) -> None:
    """clairvoyant <= ``policy`` < (or <=) static, by mean delay.

    Holds on the figures' fixed seeds, not on every scenario: over seeds
    0-123 of the tuned 240-epoch scenario the tuned threshold lost to
    static on 5 and tied it on 5, so seeded runs check only
    :func:`clairvoyant_floor` and :func:`tuned_is_best`.
    """
    clairvoyant_floor(
        {k: mean_delay[k] for k in ("clairvoyant", policy, "static")}
    )
    static = mean_delay["static"]
    require(
        mean_delay[policy] < static if strict else mean_delay[policy] <= static,
        f"{policy} lost to static",
    )


def plan_consistent(plan: dict[str, Any]) -> None:
    """The hierarchical search kept its best candidate, and the tuned
    plan's response time covers its network delay."""
    delays = plan["delays_by_candidate"]
    # Exact equality: the result is one of the evaluated values, bit for bit.
    require(
        plan["avg_network_delay"] == min(delays.values()),
        "search did not keep its best candidate",
    )
    require(
        plan["response_ms"] >= plan["network_delay_ms"] > 0,
        "plan response time below its network delay",
    )


# -- output digest -------------------------------------------------------------


def canonical(value: Any) -> Any:
    """A JSON-ready form of a workload output, for digests.

    Figure results drop their ``cache`` metadata: it records hits and
    misses, which differ between a cold and a warm run of the same outputs.
    """
    if hasattr(value, "series") and hasattr(value, "figure_id"):
        return {
            "figure_id": value.figure_id,
            "series": [[s.label, list(s.x), list(s.y)] for s in value.series],
            "metadata": {
                k: v for k, v in value.metadata.items() if k != "cache"
            },
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def digest(outputs: dict[str, Any]) -> str:
    """SHA-256 of the canonical outputs (floats in full precision)."""
    blob = json.dumps(canonical(outputs), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
