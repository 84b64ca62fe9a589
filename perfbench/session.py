"""The benchmark's own Ray session: started with ``num_cpus`` from the
CPUs this process may use, logs and sockets under ``.perfbench/r`` in the
checkout, and every process it started stopped and waited for.

Processes of an earlier run that was killed before it could stop its
session are listed in ``.perfbench/ray_pids.json``; ``start`` kills those
that are still alive before it clears their session directory.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import signal
import sys
import time

from perfbench.inputs import CACHE, ROOT

TEMP_DIR = CACHE / "r"
PID_FILE = CACHE / "ray_pids.json"
# a Ray session puts unix sockets at <temp>/session_<stamp>_<pid>/sockets/
# plasma_store (up to ~66 bytes below <temp>); sun_path holds 107 bytes
_MAX_TEMP_LEN = 40


def num_cpus() -> int:
    """What ``nproc`` reports: the CPUs this process may use, lowered by
    ``OMP_NUM_THREADS`` when that is set."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def _proc_table() -> dict[int, tuple[int, str, str]]:
    """pid → (ppid, state, start time) from /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(d)] = (int(rest[1]), rest[0], rest[19])
    return out


def descendants() -> dict[int, str]:
    """pid → start time of every live descendant of this process."""
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = {}, [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            if table[c][1] != "Z":
                out[c] = table[c][2]
                todo.append(c)
    return out


def _alive(procs: dict[int, str]) -> dict[int, str]:
    table = _proc_table()
    return {p: st for p, st in procs.items()
            if p in table and table[p][2] == st and table[p][1] != "Z"}


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def _stop_all(procs: dict[int, str], grace_s: float) -> None:
    deadline = time.monotonic() + grace_s
    while _alive(procs) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.05)
    left = _alive(procs)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while _alive(left) and time.monotonic() < deadline:
        _reap()
        time.sleep(0.05)


def record_pids() -> None:
    """Remember this session's processes for a later run's stale check."""
    procs = {**_recorded(), **descendants()}
    PID_FILE.write_text(json.dumps({str(p): st for p, st in procs.items()}))


def _recorded() -> dict[int, str]:
    try:
        return {int(p): st for p, st in
                json.loads(PID_FILE.read_text()).items()}
    except (OSError, ValueError):
        return {}


def start() -> None:
    import ray

    _stop_all(_alive(_recorded()), grace_s=0)
    PID_FILE.unlink(missing_ok=True)
    temp = None
    if len(str(TEMP_DIR)) <= _MAX_TEMP_LEN:
        shutil.rmtree(TEMP_DIR, ignore_errors=True)
        TEMP_DIR.mkdir(parents=True)
        temp = str(TEMP_DIR)
    else:
        print(f"perfbench: checkout path too long for Ray sockets under "
              f"{TEMP_DIR}; using Ray's default temp dir", file=sys.stderr)
    # workers start in their own directory: make the package importable
    # wherever the benchmark is launched from
    path = os.environ.get("PYTHONPATH", "")
    if str(ROOT) not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT), path) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ray.init(address="local", num_cpus=num_cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=temp,
             object_store_memory=512 << 20)
    from ray.data import DataContext
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    record_pids()


def stop() -> None:
    """Shut the session down and wait until every process it started has
    ended (SIGKILL after a grace period)."""
    import ray

    procs = descendants()
    if ray.is_initialized():
        record_pids()
        ray.shutdown()
    _stop_all(procs, grace_s=15)
    PID_FILE.unlink(missing_ok=True)
