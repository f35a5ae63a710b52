"""CPU time, peak RSS and shared-memory segments of a process tree, from /proc.

Pool workers are grandchildren of the daemon (through the forkserver), so
the walk follows ``/proc/<pid>/task/*/children`` all the way down.
"""

from __future__ import annotations

import glob
import os

_TICKS = os.sysconf("SC_CLK_TCK")


def tree_pids(root: int) -> "list[int]":
    """``root`` and every live descendant."""
    seen: "list[int]" = []
    stack = [root]
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.append(pid)
        for path in glob.glob(f"/proc/{pid}/task/*/children"):
            try:
                with open(path) as fh:
                    stack.extend(int(p) for p in fh.read().split())
            except OSError:
                pass  # the task ended during the walk
    return seen


def tree_cpu_seconds(root: int) -> "dict[int, float]":
    """utime + stime of each live process in the tree, in seconds."""
    out = {}
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the parenthesised command name; utime/stime are 14/15
        fields = stat[stat.rindex(")") + 2 :].split()
        out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def cpu_delta(before: "dict[int, float]", after: "dict[int, float]") -> float:
    """CPU spent between two snapshots; processes born in between count whole."""
    return sum(after[pid] - before.get(pid, 0.0) for pid in after)


def tree_hwm_mb(root: int) -> float:
    """Sum of VmHWM (peak resident set) over the tree, in MiB."""
    total_kb = 0
    for pid in tree_pids(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_cpu_ticks() -> "tuple[int, int]":
    """``(steal, total)`` jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def shm_segments() -> "set[str]":
    """Names of the pool's shared-memory segments currently in /dev/shm."""
    return {os.path.basename(p) for p in glob.glob("/dev/shm/psm_*")}
