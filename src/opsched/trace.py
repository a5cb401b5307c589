"""Chrome-tracing JSON export of solved schedules.

Each machine gets a process lane, each channel a lane below the
machines, and dynamic weight traffic a lane per machine. All events use
complete-event ("X") semantics; one internal time unit maps to 1000
microseconds, declared in the trace metadata. Output bytes depend only
on the solution content.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO

from .graph import ComputationGraph, HardwareCluster
from .solver import Solution

__all__ = ["TraceEvent", "build_trace_events", "export_trace",
           "US_PER_UNIT"]

US_PER_UNIT = 1000

COMPUTE = "compute"
COMM = "comm"
LOAD = "load"
UNLOAD = "unload"


@dataclass(frozen=True)
class TraceEvent:
    name: str
    category: str
    start_us: int
    duration_us: int
    process_id: int
    thread_id: int


def _us(t: float) -> int:
    return round(t * US_PER_UNIT)


def _lanes(h: HardwareCluster, sol: Solution):
    """Stable lane numbering: machines first, then channels, then one
    weight-traffic lane per machine that loads or unloads."""
    machines = {j: pid for pid, j in enumerate(sorted(h.machines))}
    base = len(machines)
    channels = {key: base + k
                for k, key in enumerate(sorted(h.channels))}
    base += len(channels)
    traffic = {}
    loaders = sorted({sol.assignment[i] for (i, _w, _k) in sol.load_events})
    for j in loaders:
        traffic[j] = base + len(traffic)
    return machines, channels, traffic


def build_trace_events(sol: Solution, g: ComputationGraph,
                       h: HardwareCluster) -> list[TraceEvent]:
    machines, channels, traffic = _lanes(h, sol)
    events: list[TraceEvent] = []
    for i in sorted(sol.op_times):
        s, e = sol.op_times[i]
        events.append(TraceEvent(i, COMPUTE, _us(s), _us(e - s),
                                 machines[sol.assignment[i]], 0))
    for (a, b) in sorted(sol.comm_times):
        (j1, j2), cs, ce = sol.comm_times[(a, b)]
        if (j1, j2) not in channels:
            continue  # same-machine handoff, nothing moves
        events.append(TraceEvent(f"{a}->{b}", COMM, _us(cs), _us(ce - cs),
                                 channels[(j1, j2)], 0))

    # load/unload events extend the op's machine interval: the op's
    # listed loads run right before its compute window, unloads after
    loads_of: dict[str, list[str]] = {}
    unloads_of: dict[str, list[str]] = {}
    for (i, wid, kind) in sol.load_events:
        (loads_of if kind == "load" else unloads_of).setdefault(
            i, []).append(wid)
    for i in sorted(set(loads_of) | set(unloads_of)):
        s, e = sol.op_times[i]
        lane = traffic[sol.assignment[i]]
        t = s
        for wid in loads_of.get(i, ()):
            cost = g.weights[wid].load_cost
            events.append(TraceEvent(f"load {wid}", LOAD, _us(t),
                                     _us(cost), lane, 0))
            t += cost
        t = e
        for wid in unloads_of.get(i, ()):
            cost = g.weights[wid].unload_cost
            events.append(TraceEvent(f"unload {wid}", UNLOAD, _us(t),
                                     _us(cost), lane, 0))
            t += cost
    return events


def export_trace(sol: Solution, g: ComputationGraph, h: HardwareCluster,
                 dest: IO[str]) -> None:
    """Write the solution as a chrome://tracing JSON document."""
    machines, channels, traffic = _lanes(h, sol)
    trace_events = []
    for j, pid in machines.items():
        trace_events.append({"ph": "M", "pid": pid, "name": "process_name",
                             "args": {"name": f"machine {j}"}})
    for key, pid in channels.items():
        trace_events.append({"ph": "M", "pid": pid, "name": "process_name",
                             "args": {"name": f"channel {key[0]}->{key[1]}"}})
    for j, pid in traffic.items():
        trace_events.append({"ph": "M", "pid": pid, "name": "process_name",
                             "args": {"name": f"weights {j}"}})
    for ev in build_trace_events(sol, g, h):
        trace_events.append({"name": ev.name, "cat": ev.category, "ph": "X",
                             "ts": ev.start_us, "dur": ev.duration_us,
                             "pid": ev.process_id, "tid": ev.thread_id})
    doc = {"traceEvents": trace_events,
           "displayTimeUnit": "ms",
           "metadata": {"us_per_time_unit": US_PER_UNIT}}
    json.dump(doc, dest, indent=1, sort_keys=True)
    dest.write("\n")
