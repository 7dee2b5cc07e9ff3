"""Record the reference outputs the benchmark checks every replicate against.

    python3 perfbench/make_references.py

Runs every seed of every workload's pool once, and writes the trace
fingerprints to ``references.json``. Replicates that already fail their
invariant or fit checks are reported and the file is not written, so a
reference is only ever taken from a run that passes. Re-record only when a
change is meant to alter controller behaviour, and say so in its log.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile

import worker  # puts this checkout's src/ on sys.path
import workloads


def record(wl, tmp):
    ctx = wl.context(tmp)
    entries, failures = {}, []
    for seed in range(wl.pool):
        raw = wl.run_round(ctx, seed)
        round_entries = wl.reference_entries(ctx, seed, raw)
        for outcome in wl.check_round(ctx, seed, raw, round_entries):
            if outcome.problems:
                failures.append((outcome.key, outcome.problems))
        entries.update(round_entries)
    return entries, failures


def main():
    refs = {}
    tmp_root = worker.ROOT / ".perfbench_out"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        for name in sorted(workloads.WORKLOADS):
            entries, failures = record(workloads.WORKLOADS[name](), worker.Path(tmp))
            if failures:
                print(f"{name}: {len(failures)} replicates fail their checks: {failures[:5]}",
                      file=sys.stderr)
                return 1
            refs[name] = entries
            print(f"{name}: {len(entries)} references")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # One replicate per line: lists collapsed onto their key's line.
    text = re.sub(r"\[\s+([^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(refs, indent=1, sort_keys=True))
    workloads.REFERENCES.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
