"""CLI contract: exit codes, output trees, byte-identical reruns."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from expmarket.cli import main
from expmarket.config import bundled_scenario
from expmarket.reporting import read_csv
from expmarket.sim import failure_distribution


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _write_scenario(tmp_path, name="scenario.json", **overrides) -> Path:
    doc = bundled_scenario("shopping")
    doc["sim"]["forays"] = 3
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_verify_convergence_union_ok(capsys):
    code = main(["verify-convergence", "--robots", "2", "--forays", "3",
                 "--trials", "10", "--policy", "union", "--seed", "4"])
    assert code == 0
    assert "divergence_events=0" in capsys.readouterr().out


def test_verify_convergence_rejects_single_robot():
    try:
        main(["verify-convergence", "--robots", "1"])
        raised = None
    except SystemExit as exc:
        raised = exc.code
    assert raised == 2


def test_verify_convergence_lhs_injection_fails(capsys):
    code = main(["verify-convergence", "--robots", "2", "--forays", "4",
                 "--trials", "10", "--policy", "match", "--gamma", "lhs",
                 "--overlap", "0.5", "--seed", "4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "divergence_events=0" not in out


def test_verify_convergence_writes_report(tmp_path):
    out = tmp_path / "conv"
    code = main(["verify-convergence", "--robots", "2", "--forays", "3",
                 "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "convergence_points.csv")
    assert header == ["trial", "k", "robot", "nodes", "digest8"]
    assert len(rows) == 5 * 3 * 2
    _, summary = read_csv(out / "summary.csv")
    assert summary[0][-1] == "0"


def test_run_scenario_missing_config(tmp_path, capsys):
    code = main(["run-scenario", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "absent.json" in capsys.readouterr().err


def test_run_scenario_config_that_is_a_directory(tmp_path, capsys):
    code = main(["run-scenario", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path}: cannot read")
    assert "Traceback" not in err


def test_run_scenario_bad_config_field(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["team"]["robots"] = 1
    path.write_text(json.dumps(doc))
    code = main(["run-scenario", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "team.robots" in capsys.readouterr().err


def test_run_scenario_outputs_and_determinism(tmp_path):
    path = _write_scenario(tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run-scenario", "--config", str(path), "--seed", "9",
                 "--trials", "2", "--out", str(out1)]) == 0
    assert main(["run-scenario", "--config", str(path), "--seed", "9",
                 "--trials", "2", "--out", str(out2)]) == 0
    assert (out1 / "summary.json").exists()
    for trial in ("trial_000", "trial_001"):
        for name in ("dropouts.csv", "bytes.csv", "map_sizes.csv",
                     "trades.csv", "beliefs.csv"):
            assert (out1 / trial / name).exists()
    assert _tree_hash(out1) == _tree_hash(out2)


def test_report_merges_and_matches_recomputation(tmp_path):
    path = _write_scenario(tmp_path)
    base = _write_scenario(tmp_path, name="baseline.json",
                           **{"strategies.trading": "NONE"})
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["run-scenario", "--config", str(path), "--seed", "3",
                 "--trials", "2", "--out", str(run_a)]) == 0
    assert main(["run-scenario", "--config", str(base), "--seed", "3",
                 "--trials", "2", "--out", str(run_b)]) == 0
    report = tmp_path / "report"
    assert main(["report", "--input", str(run_a), "--compare", str(run_b),
                 "--out", str(report)]) == 0

    header, rows = read_csv(report / "failure_ccdf.csv")
    assert header == ["strategy", "x_meters", "p_ge_x"]
    strategies = {r[0] for r in rows}
    assert strategies == {"ALL", "NONE"}

    # cross-check: CCDF rows equal failure_distribution on the raw dropouts
    _, raw = read_csv(run_a / "aggregate" / "dropouts.csv")
    values = [float(r[3]) for r in raw]
    expected = failure_distribution(values)
    got = [(float(r[1]), float(r[2])) for r in rows if r[0] == "ALL"]
    assert got == expected


def test_report_rejects_non_run_directory(tmp_path, capsys):
    code = main(["report", "--input", str(tmp_path), "--out",
                 str(tmp_path / "rep")])
    assert code == 2
    assert "summary.json" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EXPMARKET_SEED", "321")
    code = main(["verify-convergence", "--robots", "2", "--forays", "2",
                 "--trials", "3"])
    assert code == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("EXPMARKET_SEED", "999")
    main(["verify-convergence", "--robots", "2", "--forays", "2",
          "--trials", "3"])
    # different env seed, same shape of report line
    assert "divergence_events=0" in first


def _empty_run(tmp_path) -> Path:
    """A run directory whose aggregate tables have headers and no rows."""
    run = tmp_path / "run"
    (run / "aggregate").mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(
        {"strategy": "ALL", "robots": 2, "forays": 1}))
    (run / "aggregate" / "dropouts.csv").write_text("trial,k,robot,meters\n")
    (run / "aggregate" / "bytes_summary.csv").write_text(
        "robot,sent_mean,sent_std,recv_mean,recv_std,query_mean,query_std,"
        "match_ops_mean,match_ops_std\n")
    (run / "aggregate" / "map_sizes.csv").write_text(
        "k,robot,nodes_mean,nodes_std\n")
    return run


def test_report_handles_empty_dropouts(tmp_path):
    # a scenario whose map fully explains every epoch would have no dropouts;
    # emulate by writing a run directory with an empty aggregate table
    run = _empty_run(tmp_path)
    report = tmp_path / "rep"
    assert main(["report", "--input", str(run), "--out", str(report)]) == 0
    header, rows = read_csv(report / "failure_ccdf.csv")
    assert header == ["strategy", "x_meters", "p_ge_x"]
    assert rows == []


def test_report_rejects_malformed_run_data(tmp_path, capsys):
    """A dropout row with too few fields, a table narrower than the columns
    the report reads, and a summary that is not a JSON object or nests too
    deeply to parse are usage errors (exit 2), not tracebacks."""
    run_doc = json.dumps({"strategy": "ALL", "robots": 2, "forays": 1})
    no_drops = "trial,k,robot,meters\n"
    cases = {"short_row": (run_doc, no_drops + "0,1,0\n"),
             "list_summary": (json.dumps([{"strategy": "ALL"}]), no_drops),
             "narrow_dropouts": (run_doc, "a,b\n1,2\n"),
             "narrow_bytes_summary": (run_doc, no_drops, "robot,sent_mean\n0,1.0\n"),
             "deep_summary": ("[" * 200000, no_drops)}
    for name, (summary, dropouts, *bytes_summary) in cases.items():
        run = tmp_path / name
        (run / "aggregate").mkdir(parents=True)
        (run / "summary.json").write_text(summary)
        (run / "aggregate" / "dropouts.csv").write_text(dropouts)
        for text in bytes_summary:
            (run / "aggregate" / "bytes_summary.csv").write_text(text)
        code = main(["report", "--input", str(run), "--out", str(tmp_path / "rep")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed run data: ")
        assert "Traceback" not in err


def _usage_exit(argv, capsys) -> str:
    """Run the CLI expecting a usage error; return what it printed."""
    try:
        main(argv)
        raised = None
    except SystemExit as exc:
        raised = exc.code
    assert raised == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_run_scenario_rejects_non_positive_trials_and_jobs(tmp_path, capsys):
    path = _write_scenario(tmp_path)
    for flags in (["--trials", "0"], ["--jobs", "0"], ["--jobs", "-3"]):
        err = _usage_exit(["run-scenario", "--config", str(path),
                           "--out", str(tmp_path / "out"), *flags], capsys)
        assert flags[0] in err
    assert not (tmp_path / "out").exists()


def test_verify_convergence_rejects_bad_overlap_and_sigma(monkeypatch, capsys):
    """Each bad value is one usage-error line, and no trial runs: a --mu or
    --sigma above the bound would draw a patch too large for memory."""
    import expmarket.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran a trial")

    monkeypatch.setattr(cli, "monte_carlo_convergence", no_run)
    base = ["verify-convergence", "--robots", "2", "--forays", "2", "--trials", "2"]
    for flags in (["--overlap", "2"], ["--overlap", "-0.1"], ["--overlap", "nan"],
                  ["--sigma", "-1"], ["--sigma", "2,-1"], ["--mu", "inf"],
                  ["--tau-m", "0"], ["--tau-m", "-1"], ["--tau-m", "nan"],
                  ["--tau-m", "inf"], ["--robots", "1025"], ["--robots", str(10**12)],
                  ["--sigma", "1e308"], ["--mu", "1e308"], ["--sigma", "10,1e6"],
                  ["--mu", "1000.5"], ["--forays", "10001"]):
        err = _usage_exit(base + flags, capsys)
        assert flags[0] in err and err.count("\n") == 1
    assert cli._parse_rates("1000", 2, "--mu") == [1000.0, 1000.0]


def test_malformed_env_seed_is_a_usage_error(monkeypatch, capsys):
    for value in ("abc", "1e3"):
        monkeypatch.setenv("EXPMARKET_SEED", value)
        for argv in (["verify-convergence", "--robots", "2", "--forays", "1", "--trials", "1"],
                     ["report", "--input", "x", "--out", "y"]):
            assert "EXPMARKET_SEED" in _usage_exit(argv, capsys)


def test_match_convergence_output_ignores_string_hash_seed(tmp_path):
    """Under MATCH with overlap, near-duplicates are drawn from an id-ordered
    pool, so the report does not depend on PYTHONHASHSEED."""
    src = Path(__file__).resolve().parent.parent / "src"
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "expmarket.cli", "verify-convergence",
                               "--robots", "2", "--forays", "3", "--trials", "4",
                               "--policy", "match", "--overlap", "0.5", "--seed", "3",
                               "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] == trees[1]
    assert trees[0]


def test_the_package_runs_as_a_module_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "expmarket", "verify-convergence",
                           "--robots", "2", "--forays", "2", "--trials", "1"],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "divergence_events=0" in proc.stdout


def test_run_scenario_rejects_out_of_range_config_values(tmp_path, capsys):
    cases = [{"strategies.shopping": "WINDOW", "strategies.window_radius": -1},
             {"network.latency_low_ms": float("nan")},
             {"network.latency_high_ms": float("inf")},
             {"sim.tau_loc": float("nan")},
             {"sim.forays": 10**9},
             {"world.descriptor_dim": 10**6},
             {"world.noise_sigma": -0.01},
             {"world.drift_sigma": -0.05},
             {"world.latent_scale": -1.0},
             {"world.node_spacing_m": 1e-9},
             {"network.latency_low_ms": 1e308, "network.latency_high_ms": 1.7e308}]
    for overrides in cases:
        path = _write_scenario(tmp_path, **overrides)
        code = main(["run-scenario", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert list(overrides)[-1] in err
    assert not (tmp_path / "out").exists()


def test_out_that_is_not_a_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """A file at ``--out`` (or at a parent of it) is refused before any run."""
    import expmarket.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking --out")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(cli, "monte_carlo_convergence", no_run)
    monkeypatch.setattr(cli, "write_report", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    path = _write_scenario(tmp_path)
    run = tmp_path / "run"
    run.mkdir()
    (run / "summary.json").write_text("{}\n")
    for out in (blocker, blocker / "sub"):
        for argv in (["run-scenario", "--config", str(path), "--out", str(out)],
                     ["verify-convergence", "--forays", "1", "--trials", "1",
                      "--out", str(out)],
                     ["report", "--input", str(run), "--out", str(out)]):
            err = _usage_exit(argv, capsys)
            assert err.startswith(f"error: cannot write --out {out}")
    assert blocker.read_text() == "not a directory\n"


def test_report_that_cannot_write_names_the_output(tmp_path, capsys):
    """A directory where ``report`` writes a table is an output error
    (exit 2, naming the path), not malformed run data."""
    run = _empty_run(tmp_path)
    blocked = tmp_path / "rep" / "failure_ccdf.csv"
    blocked.mkdir(parents=True)
    err = _usage_exit(["report", "--input", str(run), "--out", str(tmp_path / "rep")], capsys)
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert "malformed" not in err


def test_run_scenario_that_cannot_write_names_the_output(tmp_path, capsys):
    """A directory where ``write_run`` writes a file exits 2 and names it."""
    path = _write_scenario(tmp_path, **{"sim.forays": 2})
    blocked = tmp_path / "out" / "summary.json"
    blocked.mkdir(parents=True)
    err = _usage_exit(["run-scenario", "--config", str(path),
                       "--out", str(tmp_path / "out")], capsys)
    assert err.startswith(f"error: cannot write {blocked}: ")


def test_paths_the_os_refuses_are_usage_errors(tmp_path, capsys):
    """A name longer than the file system allows (ENAMETOOLONG) at --out,
    --config or --input exits 2 with one error line, not a traceback."""
    long = "x" * 300
    path = _write_scenario(tmp_path)
    for argv in (["verify-convergence", "--trials", "1", "--forays", "1",
                  "--out", str(tmp_path / long)],
                 ["run-scenario", "--config", str(path), "--out", str(tmp_path / long)]):
        err = _usage_exit(argv, capsys)
        assert err.startswith(f"error: cannot write --out {tmp_path / long}: ")
        assert err.count("\n") == 1
    code = main(["run-scenario", "--config", str(tmp_path / f"{long}.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path / long}.json: cannot read")
    assert err.count("\n") == 1
    err = _usage_exit(["report", "--input", str(tmp_path / long),
                       "--out", str(tmp_path / "rep")], capsys)
    assert err.startswith(f"error: cannot read {tmp_path / long}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_verify_convergence_that_cannot_write_names_the_output(tmp_path, capsys):
    """A directory where the convergence report writes a CSV exits 2 and
    names it, like run-scenario and report."""
    blocked = tmp_path / "conv" / "convergence_points.csv"
    blocked.mkdir(parents=True)
    err = _usage_exit(["verify-convergence", "--forays", "1", "--trials", "1",
                       "--out", str(tmp_path / "conv")], capsys)
    assert err.startswith(f"error: cannot write {blocked}: ")
