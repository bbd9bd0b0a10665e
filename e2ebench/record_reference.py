"""Record the reference outputs the benchmark compares every run against.

    python3 e2ebench/record_reference.py

Runs each workload's CLI command once per input seed 0..REFERENCE_SEEDS-1
and writes the output digests to ``reference.json``. The checked-in file
was recorded at the commit that introduced the benchmark; re-record only
when a change to the outputs is intended, and say so where the change is
described. A run whose own checks fail is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, cli_process, git_revision
from workloads import REFERENCE_RTOL, REFERENCE_SEEDS, WORKLOADS, input_digest


def main() -> int:
    doc = {"git_revision": git_revision(), "rtol": REFERENCE_RTOL, "workloads": {}}
    tmp_root = Path(tempfile.mkdtemp(prefix=".e2ebench-ref-", dir=ROOT))
    try:
        for name, wl in WORKLOADS.items():
            table = doc["workloads"][name] = {}
            for seed in range(REFERENCE_SEEDS):
                work = tmp_root / f"{name}{seed}"
                work.mkdir()
                inputs = wl.make_inputs(seed, work)
                out = work / "out"
                code, wall, _ = cli_process(
                    [wl.command, "--config", inputs["config"], "--out", str(out)],
                    work / "run.log", tmp_root / "pycache")
                if code != 0:
                    print(f"{name} seed {seed}: exit {code}\n"
                          f"{(work / 'run.log').read_text()}", file=sys.stderr)
                    return 1
                problems, digest = wl.check(out)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[str(seed)] = {"inputs": input_digest(inputs), "digest": digest}
                print(f"{name} seed {seed}: {wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
