"""Write ``pinned.json``: the outputs the benchmark checks every operation against.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/pin.py

The values were written from the initial commit.  Rewriting them is a
change to the benchmark's correctness checks, never part of a change that
claims a speed-up.  Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (  # noqa: E402
    PIN_SEEDS,
    PINNED_PATH,
    WORKLOADS,
    counters_digest,
    image_digest,
    virtual_stats,
)


def main() -> None:
    doc: dict = {"pin_seeds": PIN_SEEDS}
    for name in ("frame", "frame-p16"):
        w = WORKLOADS[name]
        doc[name] = {
            str(s): [image_digest(img) for img in w.op(w.make_inputs(s))] for s in range(PIN_SEEDS)
        }
        print(f"pinned {name}", file=sys.stderr)
    sweep = WORKLOADS["sweep"]
    doc["sweep_counters"] = {}
    for s in range(PIN_SEEDS):
        reports = sweep.op(sweep.make_inputs(s))
        doc["sweep_counters"][str(s)] = counters_digest(r for rep in reports for r in rep.rows)
    print("pinned sweep", file=sys.stderr)
    stream = WORKLOADS["stream"]
    # the virtual clock depends on the image size and point count, not the pixels
    _, virtual = stream.op(stream.make_inputs(0))
    doc["stream_virtual"] = virtual_stats(virtual)
    PINNED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
