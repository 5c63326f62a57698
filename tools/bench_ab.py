"""Run bench/run.py on a parent commit and on the working tree, alternating, and
write the runs and their summary to BENCH_<workload>.json.

Usage, from the repository root:

    python3 tools/bench_ab.py --parent HEAD~1 --workload train-mix --pairs 10
    python3 tools/bench_ab.py --parent HEAD~1 --workload train-mix --pairs 4 --seed 7 --append

The parent is exported with ``git archive``; the change is a copy of the
working tree's tracked and untracked, not ignored files. Both run from such
copies, without ``.git``, so their ``env.git_rev`` reads unknown and
``env.src_sha256`` tells them apart. Each run lasts BENCHMARK.json's
``run_seconds``. Pair i runs the parent first when i is odd and the change
first when i is even. Each run's record keeps the env line, the check lines
(the errors of a failed repeat among them) and the final JSON line of
``bench/run.py``, the throughput of each repeat and the set-up samples of an
untraced run, and the ``layer`` lines of a traced run. A run that reports
``correct: false`` or a failed operation stops the summary with an error.
``--append`` adds the series to an existing file for the same parent, after
every series already in it, one of the same command included; without it
the file is written anew. Either way ``src_lines`` records each side's line
count of ``src/**/*.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WHAT = ("stdout of bench/run.py (its env line, its check lines and its final JSON line) for "
        "the parent commit and for the change, run alternately, one after another, on one "
        "host; pair i runs the parent first when i is odd and the change first when i is even")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; returns the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files into ``dest``."""
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listing.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def src_lines(tree: Path) -> int:
    """The line count of every ``src/**/*.py`` file under ``tree``, as ``wc -l``
    counts it: the number of newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def parse_run(stdout: str) -> dict:
    """The record of one bench/run.py run, from its standard output."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("bench/run.py printed no final JSON line")
    env, golden, digests, errors, layers, throughput, setup = {}, [], [], [], {}, [], []
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("check golden_report: "):
            golden.append(line[len("check "):])
        elif line.startswith("check repeat "):
            errors.append(line[len("check "):])
        elif line.startswith("check ") and "_sha256 repeat " in line:
            digests.append(line.split(": ", 1)[1].split())
        elif line.startswith("throughput of each repeat 1/s: "):
            throughput = [float(v) for v in line.split(": ", 1)[1].split()]
        elif line.startswith("setup samples s: "):
            setup = [float(v) for v in line.split(": ", 1)[1].split()]
        elif line.startswith("layer ") and " = " in line:
            name, value = line[len("layer "):].split(" = ", 1)
            layers[name] = value
    shas = list(dict.fromkeys(sha for sha, _ in digests))
    return {
        "golden_check": golden,
        "output_sha256": shas,
        "repeats_checked": len(digests),
        "repeats_ok": all(status == "ok" for _, status in digests),
        "errors": errors,
        "repeat_throughput": throughput,
        "setup_samples": setup,
        "layers": layers,
        "env": env,
        "result": json.loads(lines[-1]),
    }


def run_bench(tree: Path, command: list[str]) -> dict:
    done = subprocess.run([sys.executable, *command], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{done.stderr}")
    return parse_run(done.stdout)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _compare(pairs: list[tuple[float, float]], higher: bool, bound: float | None = None) -> dict:
    """Quartiles of each side of (parent, change) ``pairs``, the median ratio,
    the pairs in which the change was better, the parent's IQR and, given a
    ``bound``, a verdict (see ``summarize``)."""
    parent = [float(p) for p, _ in pairs]
    change = [float(c) for _, c in pairs]
    better = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    pq, cq = _quartiles(parent), _quartiles(change)
    compared = {
        "parent": pq,
        "change": cq,
        "median_ratio_change_over_parent": cq["median"] / pq["median"],
        "pairs_change_better": f"{better}/{len(pairs)}",
        "parent_iqr": pq["q3"] - pq["q1"],
    }
    if bound is not None:
        gap = (cq["median"] - pq["median"]) * (1 if higher else -1)  # > 0: the change is better
        if 10 * better >= 9 * len(pairs) and gap > pq["q3"] - pq["q1"]:
            compared["verdict"] = "gain"
        elif -gap > bound * pq["median"]:
            compared["verdict"] = "loss"
        else:
            compared["verdict"] = "unresolved"
    return compared


def summarize(runs: list[dict], spec: dict, traced: bool) -> dict:
    """Each side's output SHA-256s and whether they are the same; then per
    metric: medians (traced), or quartiles, the median ratio, the pairs in
    which the change was better, the parent's IQR and a verdict (untraced).

    The verdict is ``gain`` when the change was better in at least 9 of 10
    pairs and its median beats the parent's by more than the parent's IQR;
    ``loss`` when its median is worse than the parent's by more than the
    metric's ``bound`` in BENCHMARK.json, a fraction of the parent's median;
    ``unresolved`` otherwise.

    Untraced, ``repeat_throughput`` compares in the same way each run's
    median throughput of a whole repeat (its operations over its busy time),
    with no verdict. ``ops_per_s`` takes the best of two repeats for each
    operation apart, so work that moves between operations from one repeat
    to the next reads it high; a whole repeat does not. ``setup_samples``
    pools each side's set-up samples, the fresh-interpreter times whose
    median is ``setup_s``, into its quartiles and their median ratio, and
    counts the pairs in which the change's run median was lower, with no
    verdict.

    Raises ValueError if any run was not correct or failed an operation.
    """
    for r in runs:
        for side in ("parent", "change"):
            result = r[side]["result"]
            if not result["correct"] or result["failed"]:
                raise ValueError(
                    f"pair {r['pair']}, {side}: correct={result['correct']}, "
                    f"failed {result['failed']} of {result['attempted']}; "
                    + "; ".join(r[side]["errors"] + r[side]["golden_check"]))
    kinds = {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}
    shas = {side: list(dict.fromkeys(sha for r in runs for sha in r[side]["output_sha256"]))
            for side in ("parent", "change")}
    summary = {"output_sha256": shas, "same_output": shas["parent"] == shas["change"]}
    for name, kind in kinds.items():
        pairs = [(r["parent"]["result"]["metrics"][name]["value"],
                  r["change"]["result"]["metrics"][name]["value"]) for r in runs
                 if name in r["parent"]["result"]["metrics"]
                 and name in r["change"]["result"]["metrics"]]
        if not pairs:
            continue
        if traced:
            summary[name] = {"unit": kind["unit"],
                             "parent_median": statistics.median(float(p) for p, _ in pairs),
                             "change_median": statistics.median(float(c) for _, c in pairs)}
            continue
        summary[name] = {"unit": kind["unit"], "better": kind["better"],
                         **_compare(pairs, kind["better"] == "higher", kind["bound"])}
    throughput = [tuple(statistics.median(r[side]["repeat_throughput"])
                        for side in ("parent", "change")) for r in runs
                  if r["parent"]["repeat_throughput"] and r["change"]["repeat_throughput"]]
    if throughput and not traced:
        summary["repeat_throughput"] = {"unit": "1/s", "better": "higher",
                                        **_compare(throughput, higher=True)}
    setup = [(r["parent"]["setup_samples"], r["change"]["setup_samples"]) for r in runs
             if r["parent"]["setup_samples"] and r["change"]["setup_samples"]]
    if setup and not traced:
        pooled = {side: _quartiles([s for samples in sides for s in samples])
                  for side, sides in zip(("parent", "change"), zip(*setup))}
        lower = sum(statistics.median(c) < statistics.median(p) for p, c in setup)
        summary["setup_samples"] = {
            "unit": "s", "better": "lower", **pooled,
            "median_ratio_change_over_parent": pooled["change"]["median"]
            / pooled["parent"]["median"],
            "pairs_change_better": f"{lower}/{len(setup)}"}
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=300)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", action="store_true",
                        help="add the series to an existing BENCH file for the same parent")
    parser.add_argument("--work", type=Path, default=None,
                        help="where the two trees are exported, made if missing "
                             "(default: a system temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # a terminated run still removes its exported trees (and kills its child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_path = ROOT / f"BENCH_{args.workload}.json"
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
    command = ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{spec['run_seconds']:g}", "--trace", str(args.trace)]
    with tempfile.TemporaryDirectory(prefix="bench-ab-", dir=args.work) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        commit = export_parent(args.parent, trees["parent"])
        export_worktree(trees["change"])
        if args.append:
            doc = json.loads(out_path.read_text(encoding="utf-8"))
            if doc["parent"] != commit:
                parser.error(f"{out_path.name} compares against {doc['parent']}, not {commit}")
        else:
            doc = {"workload": args.workload, "what": WHAT,
                   "host": f"{os.cpu_count()} CPUs, BLAS on one thread",
                   "parent": commit,
                   "change_note": "both sides ran from exported copies without .git, so "
                                  "env.git_rev reads unknown on both; env.src_sha256 "
                                  "identifies each side's sources",
                   "series": []}
        doc["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        runs = []
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            record = {"pair": pair, "first": order[0]}
            for side in order:
                record[side] = run_bench(trees[side], command)
            runs.append(record)
            before, after = (record[s]["result"]["metrics"] for s in ("parent", "change"))
            print(f"pair {pair}/{args.pairs}: " + ", ".join(
                f"{name} {before[name]['value']:.4g} -> {after[name]['value']:.4g}"
                for name in before if name in after), flush=True)

    summary = summarize(runs, spec, bool(args.trace))
    shown = "python3 " + " ".join(command)
    doc["series"].append({"command": shown, "pairs": args.pairs, "summary": summary,
                          "runs": runs})
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
