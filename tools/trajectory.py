"""Benchmark a change against its parent in alternating pairs; write a BENCH file.

    python3 tools/trajectory.py --parent a962fec --bench 16 --what "..." \\
        --workloads frame,frame-p16,sweep,stream --pairs 10 --seconds 20 --trace 0

Each run is ``perfbench/run.py`` in a fresh process and a fresh ``git
archive`` checkout of its commit, deleted afterwards. Within a pair the first
side alternates (parent first in even pairs), and the checkout names rotate
over ``P|C``, ``P_a|C_a`` and ``P_bbbbbbbb|C_bbbbbbbb``, because ``frame`` has
been seen to move with the directory's name. Both sides of a pair get the
same seed.

The file gets, per workload: the median, quartiles (``numpy.percentile``,
linear), interquartile range, minimum and maximum of each metric on each
side, the check counts, each side's short commit and line counts, in how
many pairs the change read lower, each run, and ``op_s`` per checkout name.
Workloads go under ``--section`` (``workloads`` by default); an existing
file keeps its other entries, the header included (``what``, ``method``,
``src_lines``, ``c_lines`` describe the first section written), and it is
rewritten after every workload.

There is no gate: the change is printed beside the newest earlier BENCH
file's figures for reading only. Host load moves ``op_s`` by up to ~50 %
within an hour and medians drift between files, so only a file's own pairs
compare.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SUFFIXES = ("", "_a", "_bbbbbbbb")  # checkout names P<suffix> and C<suffix>
SIDES = ("parent", "change")


def checkout(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(rev: str, dest: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` run in a fresh checkout: its metrics, meta lines and check counts."""
    checkout(rev, dest)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        lines = subprocess.run(cmd, cwd=dest, capture_output=True, text=True, check=True).stdout
        lines = lines.strip().splitlines()
        c_lines = sum(len(p.read_text().splitlines()) for p in (dest / "src").rglob("*.c"))
    finally:
        shutil.rmtree(dest)
    doc = json.loads(lines[-1])
    meta = dict(line.split(" ", 2)[:2] for line in lines[:-1] if line.startswith("meta."))
    return {
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
        "meta": meta,
        "c_lines": c_lines,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
    }


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "iqr": round(float(q3 - q1), 6),
            "min": round(min(values), 6), "max": round(max(values), 6)}


def pairs_for(args, revs: dict, workload: str, work: Path) -> tuple[dict, dict]:
    """The workload's entry for the file, and the meta lines of its first change run."""
    runs = []
    for p in range(args.pairs):
        seed, suffix, parent_first = args.seed0 + p, SUFFIXES[p % len(SUFFIXES)], p % 2 == 0
        run = {"seed": seed, "dir": f"P{suffix}|C{suffix}", "parent_first": parent_first}
        for side in SIDES if parent_first else SIDES[::-1]:
            dest = work / f"{side[0].upper()}{suffix}"
            run[side] = run_once(revs[side], dest, workload, seed, args.seconds, args.trace)
            print(f"[{workload}] pair {p + 1}/{args.pairs} {side}: "
                  f"op_s {run[side]['metrics'].get('op_s', float('nan')):.4g}",
                  file=sys.stderr, flush=True)
        runs.append(run)

    names = [n for n in runs[0]["parent"]["metrics"]
             if any(r[s]["metrics"].get(n) for r in runs for s in SIDES)]  # not all zero
    out = {"trace": args.trace, "pairs": args.pairs, "seconds": args.seconds,
           "seeds": [r["seed"] for r in runs], "directories": [r["dir"] for r in runs],
           "parent_first": [r["parent_first"] for r in runs]}
    for side in SIDES:
        out[side] = {n: summary([r[side]["metrics"][n] for r in runs]) for n in names}
        out[side].update(
            attempted=sum(r[side]["attempted"] for r in runs),
            failed=sum(r[side]["failed"] for r in runs),
            all_correct=all(r[side]["failed"] == 0 for r in runs),
            rev=revs[side],
            src_lines=sorted({r[side]["meta"].get("meta.src_lines", "?") for r in runs}),
            c_lines=sorted({r[side]["c_lines"] for r in runs}),
        )
    out["change_lower"] = {
        n: f"{sum(r['change']['metrics'][n] < r['parent']['metrics'][n] for r in runs)}/{len(runs)}"
        for n in names
    }
    if "op_s" in names:
        out["op_s_by_directory"] = {
            d: {side: summary([r[side]["metrics"]["op_s"] for r in runs if r["dir"] == d])
                for side in SIDES}
            for d in dict.fromkeys(r["dir"] for r in runs)
        }
    out["runs"] = [
        {**{k: r[k] for k in ("seed", "dir", "parent_first")},
         **{side: {**{n: r[side]["metrics"][n] for n in names},
                   "attempted": r[side]["attempted"]} for side in SIDES}}
        for r in runs
    ]
    return out, runs[0]["change"]["meta"]


def earlier_bench(bench: int) -> Path | None:
    found = [(int(m[1]), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m[1]) < bench]
    return max(found)[1] if found else None


def print_against_earlier(doc: dict, section: str, bench: int) -> None:
    path = earlier_bench(bench)
    old = json.loads(path.read_text()).get("workloads", {}) if path else {}
    for workload, res in doc[section].items():
        for name, s in res["change"].items():
            if not isinstance(s, dict):
                continue
            before = old.get(workload, {}).get("change", {}).get(name, {}).get("median")
            print(f"{workload:10} {name:32} parent {res['parent'][name]['median']:<12.6g} "
                  f"change {s['median']:<12.6g} lower {res['change_lower'][name]:6} "
                  f"{path.name if path else 'earlier'} change {before}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit (default HEAD)")
    ap.add_argument("--bench", type=int, required=True, help="N of BENCH_<N>.json")
    ap.add_argument("--what", default="", help="one line on what the change is")
    ap.add_argument("--workloads", default="frame,frame-p16,sweep,stream")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed0", type=int, default=400, help="seed of the first pair")
    ap.add_argument("--section", default="workloads", help="key the workloads go under")
    ap.add_argument("--out", type=Path, help="default: BENCH_<N>.json at the repository root")
    ap.add_argument("--workdir", type=Path, help="where checkouts go (default: a temporary directory)")
    args = ap.parse_args(argv)

    out = args.out or ROOT / f"BENCH_{args.bench}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    doc.setdefault("bench", args.bench)
    doc.setdefault("what", f"parent {revs['parent']} against {revs['change']}: {args.what}")
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds T --trace X")
    doc.setdefault("method", (
        "alternating parent/change pairs (the first side alternates, parent first in even "
        f"pairs), each run a fresh process in its own git archive checkout (parent "
        f"{revs['parent']}, change {revs['change']}); checkout names rotate over "
        + ", ".join(f"P{s}|C{s}" for s in SUFFIXES)
        + "; quartiles are numpy.percentile linear 25/75 over the runs' values; each run's "
        "op_s is run.py's median over its operations; attempted and failed are run.py's check "
        "counts summed over the runs; change_lower counts pairs where the change read lower; "
        "metrics that read 0 in every run are left out; written by tools/trajectory.py"))
    section = doc.setdefault(args.section, {})
    with tempfile.TemporaryDirectory(prefix="trajectory-", dir=args.workdir) as work:
        for workload in args.workloads.split(","):
            res, meta = pairs_for(args, revs, workload, Path(work))
            doc.setdefault("host", "{} CPUs {}, L2 {}, Python {}, NumPy {}".format(
                meta.get("meta.nproc"), meta.get("meta.cpu_model"), meta.get("meta.l2_size"),
                meta.get("meta.python"), meta.get("meta.numpy")))
            doc.setdefault("src_lines", {side: int(res[side]["src_lines"][0]) for side in SIDES})
            doc.setdefault("c_lines", {side: res[side]["c_lines"][0] for side in SIDES})
            section[workload] = res
            out.write_text(json.dumps(doc, indent=1) + "\n")
    print_against_earlier(doc, args.section, args.bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
