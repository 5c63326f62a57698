"""tools/bench_ab.py: the run record it keeps and the summary it writes.

The tool is imported by path; its parser and summary are fed the standard
output that ``bench/run.py`` prints, so no benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = load_tool()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def stdout(ops: float, rss: float, setup: float, errors=(), correct=True, failed=0,
           sha="c976", throughput=(88.5, 91.25), setup_samples=(0.12, 0.13)) -> str:
    """What bench/run.py prints for an untraced train-mix run, shortened."""
    lines = ['env {"nproc": 2, "seed": 300, "src_sha256": "abc"}',
             "check golden_report: ok sha256=d16b",
             f"check loss_history_sha256 repeat 0: {sha} ok",
             f"check loss_history_sha256 repeat 1: {sha} ok"]
    lines += [f"check repeat 1: {e}" for e in errors]
    lines += ["repeats 2, operations per repeat 90",
              "setup samples s: " + " ".join(f"{s:.4f}" for s in setup_samples),
              "throughput of each repeat 1/s: " + " ".join(f"{t:.4f}" for t in throughput),
              f"metric peak_rss_mb = {rss} MB",
              "metric fail_ratio = 0 (failed 0 of 180)"]
    lines.append(json.dumps({"correct": correct, "attempted": 180, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": setup, "unit": "s"}}}))
    return "\n".join(lines) + "\n"


def pairs(values, change_sha="c976"):
    """Run records for (parent, change) ops_per_s values; the other metrics fixed."""
    return [{"pair": i, "first": "parent",
             "parent": bench_ab.parse_run(stdout(p, 50.0, 0.12)),
             "change": bench_ab.parse_run(stdout(c, 49.0, 0.12, sha=change_sha))}
            for i, (p, c) in enumerate(values, start=1)]


def test_parse_run_keeps_the_checks_and_the_errors():
    record = bench_ab.parse_run(stdout(100.0, 49.5, 0.12, errors=["aspect scores off"]))
    assert record["golden_check"] == ["golden_report: ok sha256=d16b"]
    assert record["output_sha256"] == ["c976"]
    assert (record["repeats_checked"], record["repeats_ok"]) == (2, True)
    assert record["errors"] == ["repeat 1: aspect scores off"]
    assert record["env"]["src_sha256"] == "abc"
    assert record["repeat_throughput"] == [88.5, 91.25]
    assert record["setup_samples"] == [0.12, 0.13]
    assert record["result"]["metrics"]["ops_per_s"]["value"] == 100.0


def test_parse_run_needs_the_final_json_line():
    with pytest.raises(ValueError, match="no final JSON line"):
        bench_ab.parse_run("env {}\ncheck golden_report: ok sha256=d16b\n")


def test_summary_quartiles_pairs_and_parent_iqr():
    runs = pairs([(90.0, 100.0), (100.0, 95.0), (110.0, 130.0), (80.0, 120.0), (120.0, 140.0)])
    summary = bench_ab.summarize(runs, SPEC, traced=False)
    ops = summary["ops_per_s"]
    # inclusive quartiles of 80, 90, 100, 110, 120 and of 95, 100, 120, 130, 140
    assert ops["parent"] == {"q1": 90.0, "median": 100.0, "q3": 110.0}
    assert ops["change"] == {"q1": 100.0, "median": 120.0, "q3": 130.0}
    assert ops["parent_iqr"] == 20.0
    assert ops["median_ratio_change_over_parent"] == 1.2
    assert ops["pairs_change_better"] == "4/5"  # pair 2 is slower
    # lower is better for memory: 49 < 50 in every pair; setup ties count as not better
    assert summary["peak_rss_mb"]["pairs_change_better"] == "5/5"
    assert summary["setup_s"]["pairs_change_better"] == "0/5"


def runs_of(ops, rss):
    """Run records from (parent, change) pairs of ops_per_s and of peak_rss_mb."""
    return [{"pair": i, "first": "parent",
             "parent": bench_ab.parse_run(stdout(po, pr, 0.12)),
             "change": bench_ab.parse_run(stdout(co, cr, 0.12))}
            for i, ((po, co), (pr, cr)) in enumerate(zip(ops, rss), start=1)]


PARENT_OPS = [100.0 + i for i in range(10)]  # inclusive quartiles 102.25, 104.5, 106.75
PARENT_RSS = [50.0 + i for i in range(10)]


def verdicts(ops, rss) -> dict:
    summary = bench_ab.summarize(runs_of(ops, rss), SPEC, traced=False)
    return {name: summary[name]["verdict"] for name in ("ops_per_s", "peak_rss_mb", "setup_s")}


def test_verdict_gain_needs_nine_of_ten_pairs_and_a_gap_above_the_parent_iqr():
    ops = [(p, p + 30.0) for p in PARENT_OPS]
    rss = [(p, p - 5.0) for p in PARENT_RSS]
    # setup_s ties in every pair: never better, never worse
    assert verdicts(ops, rss) == {"ops_per_s": "gain", "peak_rss_mb": "gain",
                                  "setup_s": "unresolved"}
    ops[0] = (100.0, 90.0)  # 9 of 10 pairs better: still a gain
    assert verdicts(ops, rss)["ops_per_s"] == "gain"
    ops[1] = (101.0, 90.0)  # 8 of 10
    assert verdicts(ops, rss)["ops_per_s"] == "unresolved"
    # better in every pair, by less than the parent's IQR of 4.5
    assert verdicts([(p, p + 1.0) for p in PARENT_OPS], rss)["ops_per_s"] == "unresolved"


def test_verdict_loss_is_a_median_worse_by_more_than_the_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert (bounds["ops_per_s"], bounds["peak_rss_mb"]) == (0.25, 0.2)
    same_rss = [(p, p) for p in PARENT_RSS]
    assert verdicts([(p, 0.7 * p) for p in PARENT_OPS], same_rss)["ops_per_s"] == "loss"
    assert verdicts([(p, 0.8 * p) for p in PARENT_OPS], same_rss)["ops_per_s"] == "unresolved"
    # lower is better for memory: a median 25% higher is a loss, 10% is not
    same_ops = [(p, p) for p in PARENT_OPS]
    assert verdicts(same_ops, [(p, 1.25 * p) for p in PARENT_RSS])["peak_rss_mb"] == "loss"
    assert verdicts(same_ops, [(p, 1.1 * p) for p in PARENT_RSS])["peak_rss_mb"] == "unresolved"


def test_summary_compares_whole_repeat_throughput():
    # each run's median over its repeats; ops_per_s, the best of two repeats
    # per operation, is not what is compared here
    sides = [((80.0, 84.0, 82.0), (90.0, 100.0)), ((70.0, 90.0), (95.0, 97.0)),
             ((85.0, 86.0), (84.0, 85.0))]
    runs = [{"pair": i, "first": "parent",
             "parent": bench_ab.parse_run(stdout(100.0, 50.0, 0.12, throughput=p)),
             "change": bench_ab.parse_run(stdout(150.0, 50.0, 0.12, throughput=c))}
            for i, (p, c) in enumerate(sides, start=1)]
    summary = bench_ab.summarize(runs, SPEC, traced=False)
    whole = summary["repeat_throughput"]
    # run medians: parent 82, 80, 85.5; change 95, 96, 84.5
    assert whole["parent"] == {"q1": 81.0, "median": 82.0, "q3": 83.75}
    assert whole["change"] == {"q1": 89.75, "median": 95.0, "q3": 95.5}
    assert whole["median_ratio_change_over_parent"] == 95.0 / 82.0
    assert whole["pairs_change_better"] == "2/3"
    assert whole["parent_iqr"] == 2.75
    assert (whole["unit"], whole["better"]) == ("1/s", "higher") and "verdict" not in whole
    assert summary["ops_per_s"]["pairs_change_better"] == "3/3"
    # a traced run prints no such line, and its summary has no such entry
    assert "repeat_throughput" not in bench_ab.summarize(runs, SPEC, traced=True)


def test_summary_pools_the_setup_samples():
    # run medians: parent 0.23, 0.24; change 0.22, 0.25
    sides = [((0.22, 0.24, 0.23), (0.21, 0.23, 0.22)), ((0.25, 0.23), (0.24, 0.26))]
    runs = [{"pair": i, "first": "parent",
             "parent": bench_ab.parse_run(stdout(100.0, 50.0, 0.12, setup_samples=p)),
             "change": bench_ab.parse_run(stdout(100.0, 50.0, 0.12, setup_samples=c))}
            for i, (p, c) in enumerate(sides, start=1)]
    summary = bench_ab.summarize(runs, SPEC, traced=False)
    setup = summary["setup_samples"]
    # inclusive quartiles of 0.22, 0.23, 0.23, 0.24, 0.25 and of 0.21, 0.22, 0.23, 0.24, 0.26
    assert setup["parent"] == pytest.approx({"q1": 0.23, "median": 0.23, "q3": 0.24})
    assert setup["change"] == pytest.approx({"q1": 0.22, "median": 0.23, "q3": 0.24})
    assert setup["median_ratio_change_over_parent"] == pytest.approx(1.0)
    assert setup["pairs_change_better"] == "1/2"
    assert (setup["unit"], setup["better"]) == ("s", "lower") and "verdict" not in setup
    assert "setup_samples" not in bench_ab.summarize(runs, SPEC, traced=True)


def test_summary_refuses_an_incorrect_run():
    runs = pairs([(90.0, 100.0), (100.0, 95.0)])
    runs[1]["change"] = bench_ab.parse_run(
        stdout(95.0, 49.0, 0.12, errors=["no generated claims"], correct=False, failed=3))
    with pytest.raises(ValueError, match="pair 2, change: correct=False, failed 3 of 180; "
                                         "repeat 1: no generated claims"):
        bench_ab.summarize(runs, SPEC, traced=False)


def test_summary_records_both_sides_output_and_whether_it_held():
    held = bench_ab.summarize(pairs([(90.0, 100.0), (100.0, 95.0)]), SPEC, traced=False)
    assert held["output_sha256"] == {"parent": ["c976"], "change": ["c976"]}
    assert held["same_output"] is True
    moved = bench_ab.summarize(pairs([(90.0, 100.0), (100.0, 95.0)], change_sha="d4c2"), SPEC,
                               traced=False)
    assert moved["output_sha256"] == {"parent": ["c976"], "change": ["d4c2"]}
    assert moved["same_output"] is False
    # a side whose runs disagree with each other is not the same output either
    runs = pairs([(90.0, 100.0), (100.0, 95.0)])
    runs[1]["change"] = bench_ab.parse_run(stdout(95.0, 49.0, 0.12, sha="d4c2"))
    mixed = bench_ab.summarize(runs, SPEC, traced=False)
    assert mixed["output_sha256"]["change"] == ["c976", "d4c2"]
    assert mixed["same_output"] is False


def test_src_lines_counts_every_python_line_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "top.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("\n\nc = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not counted\n")
    (tmp_path / "tools.py").write_text("outside src\n")
    assert bench_ab.src_lines(tmp_path) == 5


def test_main_records_both_sides_src_lines(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))

    def write_tree(dest: Path, lines: int) -> str:
        (dest / "src").mkdir()
        (dest / "src" / "m.py").write_text("x = 0\n" * lines)
        return "c0ffee"

    monkeypatch.setattr(bench_ab, "ROOT", root)
    monkeypatch.setattr(bench_ab, "export_parent", lambda rev, dest: write_tree(dest, 7))
    monkeypatch.setattr(bench_ab, "export_worktree", lambda dest: write_tree(dest, 4))
    monkeypatch.setattr(bench_ab, "run_bench",
                        lambda tree, command: bench_ab.parse_run(stdout(100.0, 50.0, 0.12)))
    monkeypatch.setattr(bench_ab.signal, "signal", lambda *args: None)
    assert bench_ab.main(["--parent", "HEAD", "--workload", "train-mix", "--pairs", "2",
                          "--work", str(tmp_path)]) == 0
    doc = json.loads((root / "BENCH_train-mix.json").read_text())
    assert doc["src_lines"] == {"parent": 7, "change": 4}
    assert doc["parent"] == "c0ffee" and len(doc["series"][0]["runs"]) == 2


def test_main_makes_a_missing_work_directory(tmp_path, monkeypatch):
    root, work = tmp_path / "repo", tmp_path / "missing" / "work"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    trees = []
    monkeypatch.setattr(bench_ab, "ROOT", root)
    monkeypatch.setattr(bench_ab, "export_parent", lambda rev, dest: trees.append(dest) or "c0ffee")
    monkeypatch.setattr(bench_ab, "export_worktree", lambda dest: trees.append(dest))
    monkeypatch.setattr(bench_ab, "src_lines", lambda tree: 0)
    monkeypatch.setattr(bench_ab, "run_bench",
                        lambda tree, command: bench_ab.parse_run(stdout(100.0, 50.0, 0.12)))
    monkeypatch.setattr(bench_ab.signal, "signal", lambda *args: None)
    assert bench_ab.main(["--parent", "HEAD", "--workload", "train-mix", "--pairs", "1",
                          "--work", str(work)]) == 0
    assert [tree.parent.parent for tree in trees] == [work, work]
    assert work.is_dir() and list(work.iterdir()) == []  # the exported trees are removed


def test_append_keeps_every_series_of_the_same_command(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    ops = iter([100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0])
    monkeypatch.setattr(bench_ab, "ROOT", root)
    monkeypatch.setattr(bench_ab, "export_parent", lambda rev, dest: "c0ffee")
    monkeypatch.setattr(bench_ab, "export_worktree", lambda dest: None)
    monkeypatch.setattr(bench_ab, "src_lines", lambda tree: 0)
    monkeypatch.setattr(bench_ab, "run_bench",
                        lambda tree, command: bench_ab.parse_run(stdout(next(ops), 50.0, 0.12)))
    monkeypatch.setattr(bench_ab.signal, "signal", lambda *args: None)
    args = ["--parent", "HEAD", "--workload", "train-mix", "--pairs", "1", "--work", str(tmp_path)]
    assert bench_ab.main(args) == 0
    assert bench_ab.main(args + ["--append"]) == 0
    assert bench_ab.main(args + ["--seed", "7", "--append"]) == 0
    series = json.loads((root / "BENCH_train-mix.json").read_text())["series"]
    assert [s["command"].split("--seed ")[1].split()[0] for s in series] == ["300", "300", "7"]
    assert [[r["parent"]["result"]["metrics"]["ops_per_s"]["value"] for r in s["runs"]]
            for s in series] == [[100.0], [120.0], [140.0]]
    # without --append the file is written anew
    assert bench_ab.main(args) == 0
    assert len(json.loads((root / "BENCH_train-mix.json").read_text())["series"]) == 1
