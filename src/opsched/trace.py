"""Chrome-tracing JSON export of solved schedules.

Each machine gets a process lane, each channel a lane below the
machines, and dynamic weight traffic a lane per machine. All events use
complete-event ("X") semantics; one internal time unit maps to 1000
microseconds, declared in the trace metadata. Output bytes depend only
on the solution content.
"""
from __future__ import annotations

from .graph import ComputationGraph, HardwareCluster
from .solver import Solution

__all__ = ["trace_document", "US_PER_UNIT"]

US_PER_UNIT = 1000


def trace_document(sol: Solution, g: ComputationGraph,
                   h: HardwareCluster) -> dict:
    """The chrome://tracing JSON document of the solution.

    Lanes are numbered stably: machines first, then channels, then one
    weight-traffic lane per machine that loads or unloads. A solution
    that names an op the graph lacks, leaves a timed op on no machine of
    `h`, times a transfer that is not an edge of `g`, or loads or
    unloads for an untimed op or an unknown weight raises ValueError."""
    for i in sorted({*sol.op_times, *sol.assignment}):
        if i not in g.operations:
            raise ValueError(f"solution names operation {i!r}, not in graph")
        if i in sol.op_times and sol.assignment.get(i) not in h.machines:
            raise ValueError(f"timed operation {i!r} has no cluster machine")
    for (a, b) in sorted(sol.comm_times):
        if (a, b) not in g.edges:
            raise ValueError(f"solution times transfer {a}->{b}, "
                             "not a graph edge")
    loads_of: dict[str, list[str]] = {}
    unloads_of: dict[str, list[str]] = {}
    for (i, wid, kind) in sol.load_events:
        if i not in sol.op_times or wid not in g.weights:
            raise ValueError(f"load event of {i!r} or {wid!r} is unknown")
        (loads_of if kind == "load" else unloads_of).setdefault(
            i, []).append(wid)
    loaded = sorted(set(loads_of) | set(unloads_of))
    loaders = {sol.assignment[i] for i in loaded}
    labels = {("machine", j): f"machine {j}" for j in sorted(h.machines)}
    labels.update({("channel", c): f"channel {c[0]}->{c[1]}"
                   for c in sorted(h.channels)})
    labels.update({("weights", j): f"weights {j}" for j in sorted(loaders)})
    pid = {lane: k for k, lane in enumerate(labels)}
    events = [{"ph": "M", "pid": pid[lane], "name": "process_name",
               "args": {"name": label}} for lane, label in labels.items()]

    def span(name, cat, start, dur, lane):
        events.append({"name": name, "cat": cat, "ph": "X",
                       "ts": round(start * US_PER_UNIT),
                       "dur": round(dur * US_PER_UNIT), "pid": pid[lane],
                       "tid": 0})

    for i in sorted(sol.op_times):
        s, e = sol.op_times[i]
        span(i, "compute", s, e - s, ("machine", sol.assignment[i]))
    for (a, b) in sorted(sol.comm_times):
        (j1, j2), cs, ce = sol.comm_times[(a, b)]
        lane = ("channel", (j1, j2))
        if lane not in pid:
            continue  # a channel the cluster does not have
        span(f"{a}->{b}", "comm", cs, ce - cs, lane)

    # load/unload events extend the op's machine interval: the op's
    # listed loads run right before its compute window, unloads after
    for i in loaded:
        s, e = sol.op_times[i]
        lane = ("weights", sol.assignment[i])
        t = s
        for wid in loads_of.get(i, ()):
            cost = g.weights[wid].load_cost
            span(f"load {wid}", "load", t, cost, lane)
            t += cost
        t = e
        for wid in unloads_of.get(i, ()):
            cost = g.weights[wid].unload_cost
            span(f"unload {wid}", "unload", t, cost, lane)
            t += cost

    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"us_per_time_unit": US_PER_UNIT}}
