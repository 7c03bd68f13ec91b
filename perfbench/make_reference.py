"""Write `reference.json`: the checked outputs of every workload on the
inputs of `workloads.REF_SEED`, computed by the code in this checkout.

    python3 perfbench/make_reference.py [workload ...]

Only rerun it when a change is meant to alter these numbers; a change that
claims a speed-up must pass the checks against the stored values instead.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, REFERENCE, git_commit, use_source_tree


def main(argv: list) -> int:
    use_source_tree()
    from tracer import Tracer
    from workloads import REF_SEED, WORKLOADS

    names = argv or list(WORKLOADS)
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
    workdir = OUT / "reference-work"
    try:
        for name in names:
            stored["workloads"][name] = WORKLOADS[name]().reference_outputs(workdir / name, Tracer())
            print(f"{name}: done", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stored["seed"] = REF_SEED
    stored["commit"] = git_commit()
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
