"""What the host says about a run: process-tree memory and CPU from
``/proc``, and the validity stamp printed with every result.

Memory and CPU are read per process tree (a process plus every live
descendant), because the program under test may be a caller with a
process pool or a server with its workers.
"""

from __future__ import annotations

import os
import platform
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["finish_stamp", "nproc", "tree_cpu_s", "tree_peak_rss_mb",
           "validity_stamp"]

#: Client lag beyond this means the load generator, not the server, set
#: the request timing.
MAX_LAG_MS = 5.0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def _tree(pid: int) -> Iterator[int]:
    """``pid`` and its live descendants."""
    children: Dict[int, List[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry.name))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we scanned
        children.setdefault(ppid, []).append(int(entry.name))
    todo = [pid]
    while todo:
        current = todo.pop()
        yield current
        todo.extend(children.get(current, ()))


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident memory (``VmHWM``) over the process tree."""
    total_kb = 0
    for member in _tree(pid):
        try:
            lines = Path(f"/proc/{member}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def tree_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of the process tree, including
    children it has already reaped."""
    ticks = 0
    for member in _tree(pid):
        try:
            fields = _stat_fields(member)
        except OSError:
            continue
        ticks += sum(int(f) for f in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def _loadavg() -> List[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def validity_stamp(root: Path) -> Dict[str, Any]:
    """Host facts at the start of a run (see :func:`finish_stamp`)."""
    from repro.utils.provenance import provenance_stamp

    return {
        "nproc": nproc(),
        "loadavg_start": _loadavg(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "provenance": provenance_stamp(root),
    }


def finish_stamp(stamp: Dict[str, Any],
                 lag_ms_p99: Optional[float] = None) -> Dict[str, Any]:
    """Add the end-of-run load and the flags that mark a run whose
    numbers measure the scheduler rather than the program.

    The host is flagged busy when its one-minute load exceeds ``nproc +
    1``: the benchmark itself keeps at most ``nproc`` CPUs busy plus a
    load-generating process, so anything above that is another tenant.
    """
    stamp["loadavg_end"] = _loadavg()
    flags = []
    limit = stamp["nproc"] + 1
    for when in ("start", "end"):
        load = stamp[f"loadavg_{when}"][0]
        if load > limit:
            flags.append(f"host load {load:.2f} at {when} exceeds "
                         f"nproc + 1 = {limit}")
    if lag_ms_p99 is not None and lag_ms_p99 > MAX_LAG_MS:
        flags.append(f"client lag p99 {lag_ms_p99:.2f} ms exceeds "
                     f"{MAX_LAG_MS:g} ms")
    stamp["flags"] = flags
    return stamp
