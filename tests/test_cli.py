"""The ``python -m repro`` command line, driven through ``main()``."""

import csv
import io
import json

import pytest

from repro.__main__ import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    assert "crypt" in out and "spaces:" in out
    # the registries behind the study layer are listed too
    assert "objectives:" in out and "strategies:" in out


def test_list_objectives_flag(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "area" in out and "cycles" in out and "test_cost" in out
    assert "workloads:" not in out and "strategies:" not in out


def test_list_strategies_flag(capsys):
    code, out, _ = _run(capsys, "list", "--strategies")
    assert code == 0
    for name in ("exhaustive", "iterative", "random", "simulated_annealing"):
        assert name in out
    assert "params:" in out
    assert "workloads:" not in out and "objectives:" not in out


def test_list_shows_energy_objectives_and_technologies(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "energy" in out and "edp" in out
    assert "[needs energy pass]" in out

    code, out, _ = _run(capsys, "list", "--technologies")
    assert code == 0
    assert "default" in out and "low_power" in out
    assert "objectives:" not in out


def test_energy_breakdown_command(capsys):
    code, out, _ = _run(capsys, "energy", "gcd", "--space", "small",
                        "--index", "1")
    assert code == 0
    assert "energy report: gcd" in out
    assert "bus0" in out and "fetch" in out and "leakage" in out
    assert "total" in out and "share" in out


def test_energy_command_rejects_bad_index(capsys):
    code, _, err = _run(capsys, "energy", "gcd", "--index", "99")
    assert code == 1
    assert "outside space" in err


def test_energy_command_rejects_unmappable_workload(capsys):
    # fir needs a multiplier; the small space has none
    code, _, err = _run(capsys, "energy", "fir", "--space", "small")
    assert code == 1
    assert "does not compile" in err


def test_energy_command_clean_error_on_cycle_budget(capsys):
    code, _, err = _run(capsys, "energy", "gcd", "--space", "small",
                        "--index", "3", "--max-cycles", "10")
    assert code == 1
    assert "error:" in err and "no halt" in err
    assert "Traceback" not in err


def test_study_with_energy_objective(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--objectives", "cycles,area,energy", "--select",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "cycles+area+energy" in out
    assert "selected [gcd/small/w16]" in out


def test_study_summary(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'study'" in out
    assert "gcd/small/w16" in out


def test_study_random_strategy_csv(capsys, tmp_path):
    out_file = tmp_path / "sample.csv"
    code, _, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--strategy", "random", "--param", "budget=5", "--param", "seed=2",
        "--no-cache", "-q", "--format", "csv", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 5


def test_study_spec_file_with_selection(capsys, tmp_path):
    from repro.study import StudySpec

    spec_file = tmp_path / "study.json"
    spec_file.write_text(
        StudySpec(
            name="from-file",
            workloads=("gcd",),
            space="small",
            objectives=("area", "cycles", "test_cost"),
            select=True,
        ).to_json()
    )
    code, out, _ = _run(
        capsys, "study", "--spec", str(spec_file), "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'from-file'" in out
    assert "selected [gcd/small/w16]" in out


def test_study_unknown_objective_fails(capsys):
    code, _, err = _run(
        capsys, "study", "--workloads", "gcd", "--objectives", "area,nope",
        "--no-cache", "-q",
    )
    assert code == 1
    assert "unknown objective" in err


def test_study_needs_spec_or_workloads(capsys):
    with pytest.raises(SystemExit):
        main(["study", "-q"])


def test_explore_summary(capsys):
    code, out, _ = _run(
        capsys, "explore", "--workload", "gcd", "--space", "small",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'explore-gcd'" in out
    assert "gcd/small/w16" in out and "Pareto" in out


def test_explore_csv_pareto(capsys, tmp_path):
    out_file = tmp_path / "points.csv"
    code, _, _ = _run(
        capsys, "explore", "--workload", "gcd", "--no-cache", "-q",
        "--format", "csv", "--pareto", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert rows and all(r["feasible"] == "True" for r in rows)
    assert "config" in rows[0]


def test_explore_unknown_workload_fails(capsys):
    code, _, err = _run(capsys, "explore", "--workload", "nope", "-q")
    assert code == 1
    assert "unknown workload" in err


def test_campaign_flags_and_resume(capsys, tmp_path):
    cache = tmp_path / "cache"
    out_dir = tmp_path / "out"
    argv = (
        "campaign", "--workloads", "gcd,checksum", "--spaces", "small",
        "--cache-dir", str(cache), "--out-dir", str(out_dir), "-q",
    )
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert "24 evaluated, 0 cache hits" in out
    assert (out_dir / "spec.json").exists()
    assert (out_dir / "gcd__small__w16.csv").exists()

    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert "0 evaluated, 24 cache hits" in out


def test_campaign_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(
        {"name": "from-file", "workloads": ["gcd"], "spaces": ["small"],
         "select": True}
    ))
    code, out, _ = _run(
        capsys, "campaign", "--spec", str(spec_file), "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'from-file'" in out
    assert "selected [gcd/small/w16]" in out


def test_campaign_legacy_spec_file_all_fields(capsys, tmp_path):
    # A campaign file exactly as the old CampaignSpec.to_json wrote it.
    spec_file = tmp_path / "legacy.json"
    spec_file.write_text("""{
  "name": "legacy",
  "workloads": [
    "gcd",
    "checksum"
  ],
  "spaces": [
    "small"
  ],
  "widths": [
    16,
    32
  ],
  "attach_test_costs": true,
  "march": "MATS+",
  "select": true,
  "weights": [
    2.0,
    1.0,
    1.0
  ]
}
""")
    out_dir = tmp_path / "out"
    code, out, _ = _run(
        capsys, "campaign", "--spec", str(spec_file), "--no-cache", "-q",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    labels = ["gcd/small/w16", "checksum/small/w16",
              "gcd/small/w32", "checksum/small/w32"]
    assert "objectives=area+cycles+test_cost" in out
    assert "4 runs, 48 evaluated" in out
    for label in labels:
        assert label in out
        assert f"selected [{label}]: " in out
    # spec.json records the campaign dict in the legacy format
    assert (out_dir / "spec.json").read_text() == spec_file.read_text()


def test_campaign_reports_failed_points(capsys):
    from repro.resilience import faults
    from repro.resilience.faults import FaultPlan

    faults.install(FaultPlan(kind="raise", label="b1-alu2-8r1R1W"))
    try:
        code, _, err = _run(
            capsys, "campaign", "--workloads", "gcd", "--spaces", "small",
            "--no-cache", "--fault-policy", "skip", "-q",
        )
    finally:
        faults.clear()
    assert code == 4
    assert "failed: b1-alu2-8r1R1W" in err


def test_campaign_needs_spec_or_workloads(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "-q"])


def test_report_round_trip(capsys, tmp_path):
    result = tmp_path / "points.json"
    code, _, _ = _run(
        capsys, "explore", "--workload", "gcd", "--no-cache", "-q",
        "--format", "json", "-o", str(result),
    )
    assert code == 0

    code, out, _ = _run(capsys, "report", str(result), "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(result.read_text())

    code, out, _ = _run(
        capsys, "report", str(result), "--pareto", "--format", "summary",
    )
    assert code == 0
    assert "architecture" in out


def test_report_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "report", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err


def test_explore_profile_flag(capsys):
    code, out, err = _run(
        capsys, "explore", "--workload", "gcd", "--space", "small",
        "--no-cache", "-q", "--profile",
    )
    assert code == 0
    assert "study 'explore-gcd'" in out
    # cProfile top-25 cumulative goes to stderr
    assert "cumulative" in err and "ncalls" in err


def test_bench_small_suite(capsys, tmp_path):
    out_file = tmp_path / "bench.json"
    history = tmp_path / "benchmarks" / "history.jsonl"
    code, out, _ = _run(
        capsys, "bench", "--suite", "small", "-o", str(out_file),
        "--history", str(history),
    )
    assert code == 0
    assert "speedup" in out
    report = json.loads(out_file.read_text())
    assert report["sweeps"] and all(
        s["pareto_identical"] for s in report["sweeps"]
    )
    assert "small_speedup" in report
    # every run appends one trend line: timestamp, commit, speedups
    lines = history.read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["timestamp"] == report["generated_at"]
    assert entry["small_speedup"] == report["small_speedup"]
    assert set(entry) == {
        "timestamp", "commit", "small_speedup", "medium_speedup",
        "python",
    }
    # a second run appends, never truncates
    from repro.bench import append_history

    append_history(report, history)
    assert len(history.read_text().splitlines()) == 2


def test_bench_no_write(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "bench", "--suite", "small", "--no-write")
    assert code == 0
    assert "pareto filter" in out
    assert not (tmp_path / "BENCH_evaluate.json").exists()
    assert not (tmp_path / "benchmarks").exists()


def test_study_trace_and_metrics_out(capsys, tmp_path):
    trace = tmp_path / "study.jsonl"
    metrics = tmp_path / "metrics.json"
    code, out, err = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--no-cache", "-q",
        "--trace", str(trace), "--metrics-out", str(metrics),
    )
    assert code == 0
    assert "phase" in out and "schedule" in out  # summary prints the table
    report = json.loads(metrics.read_text())
    run = report["runs"][0]
    counters = run["counters"]
    assert counters["proposed"] == counters["cache_hits"] + counters["evaluated"]
    assert report["merged"]["phases"]
    # the trace validates and summarizes through the CLI
    code, out, _ = _run(capsys, "trace", "validate", str(trace))
    assert code == 0 and "schema OK" in out
    code, out, _ = _run(capsys, "trace", "summarize", str(trace))
    assert code == 0
    assert "gcd/small/w16" in out and "12 points" in out
    # --format json round-trips the whole summary dict
    code, out, _ = _run(
        capsys, "trace", "summarize", str(trace), "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"][0]["label"] == "gcd/small/w16"
    assert summary["runs"][0]["points"] == 12
    assert summary["jobs"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("study", "--workloads", "gcd,crc16", "--space", "small",
         "--no-cache", "-q"),
        ("energy", "gcd", "--space", "small", "--index", "3"),
    ],
    ids=["study", "energy"],
)
def test_metrics_out_carries_every_histogram(
    capsys, tmp_path, monkeypatch, argv
):
    """Each run's histograms reach ``--metrics-out`` and the trace."""
    import repro.__main__ as cli
    from repro.telemetry import load_trace, merge_histogram_snapshots

    seen = []
    write = cli._write_metrics

    def spy(runs, args):
        seen.extend(runs)
        write(runs, args)

    monkeypatch.setattr(cli, "_write_metrics", spy)
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.jsonl"
    code, _, _ = _run(
        capsys, *argv, "--trace", str(trace), "--metrics-out", str(metrics),
    )
    assert code == 0
    report = json.loads(metrics.read_text())
    # ``energy`` writes its one snapshot flat; ``study`` one entry per run
    entries = report.get("runs", [report])
    events = [
        r["data"] for r in load_trace(trace)
        if r["kind"] == "event" and r["name"] == "metrics"
    ]
    assert len(events) == len(entries)
    for event, run in zip(events, entries):
        assert run["histograms"]["eval_seconds"]["count"] >= 1
        assert event["histograms"] == run["histograms"]
    if argv[0] != "study":
        return
    assert len(seen) == len(report["runs"]) == 2
    for run, written in zip(seen, report["runs"]):
        assert run.stats.histograms, "no histograms collected"
        assert written["histograms"] == json.loads(
            json.dumps(run.stats.histograms)
        )
    names = {name for run in seen for name in run.stats.histograms}
    assert set(report["merged"]["histograms"]) == names
    for name in names:
        merged = merge_histogram_snapshots(
            [r.stats.histograms[name] for r in seen]
        )
        assert report["merged"]["histograms"][name] == json.loads(
            json.dumps(merged)
        )
        assert merged["count"] == sum(r.stats.evaluated for r in seen)


def test_trace_rejects_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1, "kind": "event", "ts": 0.0, "name": "x"}\n')
    code, _, err = _run(capsys, "trace", "validate", str(bad))
    assert code == 1
    assert "meta" in err


def test_energy_metrics_out(capsys, tmp_path):
    metrics = tmp_path / "energy-metrics.json"
    code, out, _ = _run(
        capsys, "energy", "gcd", "--space", "small", "--index", "5",
        "--metrics-out", str(metrics),
    )
    assert code == 0
    snapshot = json.loads(metrics.read_text())
    assert "simulate" in snapshot["phases"]
    assert "energy_model" in snapshot["phases"]


def test_rtl_emit_json(capsys):
    code, out, _ = _run(
        capsys, "rtl", "emit", "gcd", "--space", "small", "--index", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["lint_problems"] == []
    assert data["top"] == "tta_core"
    assert data["top"] in data["modules"]
    assert data["num_instructions"] > 0
    # each imem word carries the encoded instruction plus a halt bit
    assert data["imem_bits"] == (
        data["num_instructions"] * (data["instruction_bits"] + 1)
    )


def test_rtl_emit_verilog_to_file(capsys, tmp_path):
    core = tmp_path / "core.v"
    code, _, err = _run(
        capsys, "rtl", "emit", "--space", "small", "--index", "5",
        "--top", "my_core", "-o", str(core),
    )
    assert code == 0
    assert "lint" not in err
    text = core.read_text()
    assert "module my_core" in text
    assert text.rstrip().endswith("endmodule")


def test_rtl_emit_rejects_bad_index(capsys):
    code, _, err = _run(capsys, "rtl", "emit", "--space", "small",
                        "--index", "99")
    assert code == 1
    assert "outside space" in err


def test_rtl_calibrate_text_and_json(capsys):
    code, out, _ = _run(
        capsys, "rtl", "calibrate", "gcd", "--space", "small", "--index", "5",
    )
    assert code == 0
    assert "calibration gcd" in out and ": OK" in out
    assert "delta=+0" in out and "interconnect" in out
    assert "(unmodelled)" in out

    code, out, _ = _run(
        capsys, "rtl", "calibrate", "gcd", "--space", "small", "--index", "5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["cycles_delta"] == 0


def test_rtl_calibrate_rejects_unmappable_workload(capsys):
    # fir needs a multiplier the small space's first point lacks
    code, _, err = _run(capsys, "rtl", "calibrate", "fir", "--space", "small",
                        "--index", "0")
    assert code == 1
    assert "does not map" in err


def test_study_calibrate_flag(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--objectives", "area,cycles,code_size", "--calibrate",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "calibrated" in out and "0 drifted" in out


def test_list_objectives_shows_code_size(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "code_size" in out and "instruction-memory bits" in out
