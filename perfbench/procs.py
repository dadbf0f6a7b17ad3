"""Process-table and host readings from ``/proc`` (Linux only)."""

from __future__ import annotations

import os


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    return data[data.rindex(")") + 2:].split()


def _cmdline(pid: str) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def live_pids(session: int, marker: str | None = None) -> list[int]:
    """Running processes in ``session``, plus any whose command line names
    ``marker`` (a run's private directory, which every Ray process of the
    run is given).  Zombies have already exited and are not counted."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        fields = _stat_fields(pid)
        if fields is None or fields[0] == "Z":
            continue
        if int(fields[3]) == session or (marker and marker in _cmdline(pid)):
            found.append(int(pid))
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Largest peak resident set (VmHWM) among ``pids``, in MiB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def reset_peak_rss(pids: list[int]) -> None:
    """Restart each process's VmHWM from its current RSS."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            continue


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) cumulative jiffies of all CPUs."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def nproc() -> int:
    """CPUs as coreutils ``nproc`` counts them: ``OMP_NUM_THREADS`` when it
    is set, capped by the affinity mask."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n
