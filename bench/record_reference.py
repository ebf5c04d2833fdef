"""Record the reference outputs that ``run.py`` compares against.

    python3 bench/record_reference.py

Runs one untraced operation of every workload for each seed in SEEDS and
writes their outputs to reference.json. Run it only at a commit whose
outputs are known to be right: later runs are judged against this file.
"""

import json
import os
import sys

import run
import workloads

SEEDS = range(16)


def main():
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in SEEDS:
            with run.workspace(f"record-{os.getpid()}") as workdir:
                r = run.Run(workload, seed, 0.0, workdir)
                r.references = {}
                r.op("plain")
            if r.problems:
                sys.exit("\n".join(r.problems))
            refs[name][str(seed)] = workloads.reference_entry(workload, r.first_outputs)
            print(name, seed, workloads.ss_max_y(workload, r.first_outputs), flush=True)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
