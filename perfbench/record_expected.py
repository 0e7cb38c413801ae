"""Record the digests of each workload's outputs in ``expected_outputs.json``.

Usage, from the root of a praggen checkout::

    python3 perfbench/record_expected.py 0 31

For every seed from the first to the last number, this runs each workload's
decode command once, checks its outputs, and stores their digest (see
``run.output_digest``) under the workload and seed. ``run.py`` then marks a
run at a recorded seed as not correct when its outputs differ. Record again
only for a change to praggen that is meant to change what it writes.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import EXPECTED, WORK, decode_once, output_digest, setup, train
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    work = WORK / "record"
    for seed in range(first, last + 1):
        for w in WORKLOADS.values():
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            files, ids = setup(w, seed, work)
            train(files, work)
            decode = decode_once(w, files, ids, work)
            if decode.failed:
                print(f"error: {w.name} seed {seed}: {decode.failed} decodes failed",
                      file=sys.stderr)
                return 1
            digest = output_digest(w, decode, ids)
            recorded.setdefault(w.name, {})[str(seed)] = digest
            print(f"{w.name} seed {seed} {digest}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
