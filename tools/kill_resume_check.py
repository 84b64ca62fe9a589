"""True kill-and-resume check: SIGKILL a suite run mid-flight, resume in a
fresh process, assert no completed partition recomputes and the final
report equals an uninterrupted run's.

Usage: python tools/kill_resume_check.py
Exit 0 on success.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

# the checkout this script lives in: imported here and run by the child
# processes, so a check always tests its own checkout's code
REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

ROOT = Path("/tmp/prompture_ray_killtest")

RUN_CODE = """
import ray, sys
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from prompture_ray.specs import default_webpages_suite
from prompture_ray.pipelines.validate_pipeline import run_suite
suite = default_webpages_suite(ref_warc="warc_records")
report = run_suite(sys.argv[1], suite, sys.argv[2],
                   ref_tables={"warc_records": sys.argv[3]},
                   run_id=sys.argv[4], batch_size=2048)
import json
print("REPORT " + json.dumps({"rows": report["run"]["rows"],
                              "by": report["run"]["violations_by_check"]}))
ray.shutdown()
"""


def main() -> int:
    shutil.rmtree(ROOT, ignore_errors=True)
    ROOT.mkdir(parents=True)
    # generate data in-process (no ray needed for 16 small parts)
    from prompture_ray.synth import generate
    generate(ROOT / "data", n_rows=120000, n_parts=96, use_ray=False)
    pages, warc = str(ROOT / "data" / "pages"), str(ROOT / "data" / "warc")

    # reference: uninterrupted run
    out_ref = str(ROOT / "ref")
    ref = subprocess.run([sys.executable, "-c", RUN_CODE, pages, out_ref,
                          warc, "ref"], capture_output=True, text=True,
                         cwd=REPO)
    ref_line = [l for l in ref.stdout.splitlines() if l.startswith("REPORT ")]
    assert ref_line, ref.stderr[-2000:]
    ref_report = json.loads(ref_line[0][7:])

    # killed run: SIGKILL once some (but not all) partitions are done
    out_kill = str(ROOT / "killed")
    proc = subprocess.Popen([sys.executable, "-c", RUN_CODE, pages, out_kill,
                             warc, "k1"], cwd=REPO,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    manifest_dir = Path(out_kill) / "manifest"
    deadline = time.time() + 120
    while time.time() < deadline:
        n = len(list(manifest_dir.glob("*.json"))) if manifest_dir.exists() else 0
        if 8 <= n <= 80:
            break
        if proc.poll() is not None:
            print("run finished before kill window; partitions too fast")
            return 1
        time.sleep(0.05)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    subprocess.run(["ray", "stop", "--force"], capture_output=True)
    done_after_kill = sorted(int(p.stem) for p in manifest_dir.glob("*.json"))
    assert done_after_kill, "no partitions completed before kill"
    mtimes = {p: p.stat().st_mtime_ns for p in manifest_dir.glob("*.json")}
    print(f"killed with {len(done_after_kill)} partitions complete")

    # resume in a fresh process
    res = subprocess.run([sys.executable, "-c", RUN_CODE, pages, out_kill,
                          warc, "k2"], capture_output=True, text=True,
                         cwd=REPO)
    res_line = [l for l in res.stdout.splitlines() if l.startswith("REPORT ")]
    assert res_line, res.stderr[-2000:]
    res_report = json.loads(res_line[0][7:])

    # completed partitions untouched
    for p, m in mtimes.items():
        assert p.stat().st_mtime_ns == m, f"recomputed {p}"
    # totals identical to uninterrupted run
    assert res_report == ref_report, (res_report, ref_report)
    print("kill-and-resume OK:", res_report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
