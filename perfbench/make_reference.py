#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the committed per-seed ratios.

    python3 perfbench/make_reference.py [--seeds 100] [--jobs 4]
                                        [--workload W ...]

Run from the top of the repository after perfbench/run.py has built the
benchmark program.
Each (workload, seed) runs once with --seconds 0 (one sweep or replay) on
a single CPU; the library's results do not depend on the thread count.
With --workload, only those workloads' entries are regenerated; the
others are kept from the committed file.
Only regenerate when a change is meant to move the ratios, and say why.
"""

import argparse
import concurrent.futures
import json
import os
import queue
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "coyote_perfbench")
WORKLOADS = ["geant-plan", "fattree-k12-plan", "geant-daemon"]
PREFIX = "# reference entry: "


def entry(workload, seed, free_cpus):
    cpu = free_cpus.get()
    try:
        out = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, check=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    finally:
        free_cpus.put(cpu)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks")
    for line in out.stdout.splitlines():
        if line.startswith(PREFIX):
            return workload, seed, json.loads(line[len(PREFIX):])
    raise SystemExit(f"{workload} seed {seed}: no reference entry")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="regenerate only this workload (repeatable)")
    args = ap.parse_args()
    redo = args.workload or WORKLOADS
    cpus = sorted(os.sched_getaffinity(0))[:args.jobs]
    free_cpus = queue.Queue()
    for cpu in cpus:
        free_cpus.put(cpu)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = {w: e for w, e in json.load(fh).items() if w not in redo}
    ref.update({w: {} for w in redo})
    with concurrent.futures.ThreadPoolExecutor(len(cpus)) as ex:
        futures = [ex.submit(entry, w, s, free_cpus)
                   for s in range(args.seeds) for w in redo]
        for f in futures:
            w, s, e = f.result()
            ref[w][str(s)] = e
    write(ref)


def write(ref):
    """One line per seed, so a regenerated file diffs by seed."""
    blocks = []
    for w in WORKLOADS:
        lines = [f'  "{s}": {json.dumps(e)}' for s, e in ref[w].items()]
        blocks.append(f' "{w}": {{\n' + ",\n".join(lines) + "\n }")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
