"""Run the benchmark in alternating before/after pairs and summarise each end-to-end metric.

Usage, from anywhere in the repository::

    python tools/pairs.py --base REV --workload capture|study|convert --seeds A-B [--seconds S]

For each seed from A to B it runs ``perfbench/run.py --trace 0`` twice: once in a fresh
export of ``REV`` (``git archive``) and once in a fresh copy of the working tree (every file
``git ls-files --cached --others --exclude-standard`` names). Each run gets its own new
temporary directory and ``PYTHONDONTWRITEBYTECODE=1``, so neither side reads bytecode or
files another run left. An even seed runs the base first, an odd seed the change first.

It prints every run, then, for each end-to-end metric in ``BENCHMARK.json``, both medians,
the base's quartiles (``statistics.quantiles``, exclusive method), how many pairs the change
won (the direction is the metric's ``better``; a tie counts for neither side) and a verdict:

- ``OUTSIDE`` when the change's median is worse than the base's by more than the bound;
- else ``unresolved`` when the base's IQR, as a share of its median, is wider than the bound
  and some change run does not beat every base run: the runs spread too widely to call the
  metric unchanged;
- else ``within``.

A last line names the metrics of each verdict. Then it writes the trajectory file
``BENCH_<base short rev>_<workload>.json`` at the repository root: every run's metrics, and
per end-to-end metric the medians, base quartiles, wins and verdict, as printed. The exit
status is 1 if any run failed, reported ``correct: false`` or printed no result, else 2 if any
metric is ``OUTSIDE``, else 0. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_base(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as archive:
        archive.extractall(dest, filter="data")


def export_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():  # a tracked file deleted in the tree is not exported
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run(side: str, rev: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run in a fresh export, or None if it printed none."""
    with tempfile.TemporaryDirectory(prefix=f"pairs-{side}-") as tmp:
        tree = Path(tmp)
        if side == "base":
            export_base(rev, tree)
        else:
            export_tree(tree)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"  {side} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
    return result


def seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=("capture", "study", "convert"))
    parser.add_argument("--seeds", required=True, type=seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results = {"base": [], "change": []}
    runs = []
    ok = True
    for seed in args.seeds:
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for side in order:
            result = run(side, args.base, args.workload, seed, args.seconds)
            ok = ok and result is not None and result["correct"] is True
            results[side].append(result)
            runs.append({"seed": seed, "side": side, "result": result})
            if result is not None:
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                  for m in metrics)
                print(f"seed {seed} {side:6} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    pairs = [(b, c) for b, c in zip(results["base"], results["change"]) if b and c]
    if len(pairs) < 2:
        print("fewer than two complete pairs: no summary")
        return 1
    print(f"\n{args.workload}: {len(pairs)} pairs, base {args.base} against the working tree")
    verdicts = {"within": [], "unresolved": [], "OUTSIDE": []}
    summary = {}
    for metric in metrics:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        q1, _, q3 = statistics.quantiles(base, n=4)
        base_med, change_med = statistics.median(base), statistics.median(change)
        limit = base_med * (1 + bound if lower else 1 - bound)
        spread = (q3 - q1) / abs(base_med) if base_med else math.inf
        beats_all = max(change) < min(base) if lower else min(change) > max(base)
        if not (change_med <= limit if lower else change_med >= limit):
            verdict = "OUTSIDE"
        elif spread > bound and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "within"
        verdicts[verdict].append(name)
        summary[name] = {"unit": metric["unit"], "better": metric["better"], "bound": bound,
                         "base_median": base_med, "change_median": change_med,
                         "base_q1": q1, "base_q3": q3, "base_iqr_share": spread,
                         "won": won, "pairs": len(pairs), "verdict": verdict}
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
              f"median {base_med:.6g} -> {change_med:.6g}, base IQR {q1:.6g}-{q3:.6g} "
              f"({spread:.1%} of median), change won {won} of {len(pairs)}, "
              f"{verdict} bound {bound:g}")
    print("verdict: " + "; ".join(f"{verdict} {', '.join(names)}"
                                  for verdict, names in verdicts.items() if names))
    short = git("rev-parse", "--short", args.base).decode().strip()
    trajectory = ROOT / f"BENCH_{short}_{args.workload}.json"
    trajectory.write_text(json.dumps(
        {"base": short, "workload": args.workload, "seconds": args.seconds, "runs": runs,
         "summary": summary, "verdicts": verdicts}, indent=1) + "\n")
    print(f"wrote {trajectory.name}")
    return 1 if not ok else 2 if verdicts["OUTSIDE"] else 0


if __name__ == "__main__":
    sys.exit(main())
