"""CSV emission and plot-data reports.

Every file is UTF-8 with LF line endings and a header row; float columns use
``repr`` so identical runs serialize to identical bytes. The report command
merges run directories into the tables behind the usual figures: failure
CCDFs per strategy, bytes against team size, map growth, and belief
trajectories.
"""

from __future__ import annotations

import json
from pathlib import Path

from .integrity import ConvergenceReport
from .sim import TrialMetrics, failure_distribution


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path: Path, width: int = 0) -> tuple[list[str], list[list[str]]]:
    """A table's header and rows; one with rows but under ``width`` columns is refused."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: a row's field count differs from the header's")
    if rows and len(header) < width:
        raise ValueError(f"{path}: {len(header)} columns, {width} needed")
    return header, rows


def write_trial_metrics(out_dir: Path, metrics: TrialMetrics) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "dropouts.csv", ["k", "robot", "meters"], metrics.dropouts)
    write_csv(
        out_dir / "bytes.csv",
        ["k", "robot", "sent_query", "sent_patch", "sent_advisory",
         "recv_query", "recv_patch", "recv_advisory", "match_ops"],
        metrics.traffic,
    )
    write_csv(out_dir / "map_sizes.csv", ["k", "robot", "nodes", "edges"],
              metrics.map_sizes)
    write_csv(
        out_dir / "trades.csv",
        ["k", "buyer", "seller", "nodes_in", "nodes_deleted", "matches", "bytes"],
        [(t.k, t.buyer, t.seller, t.nodes_in, t.nodes_deleted, t.matches, t.bytes)
         for t in metrics.trades],
    )
    write_csv(
        out_dir / "beliefs.csv",
        ["k", "robot", "seller", "count", "mean", "variance"],
        metrics.beliefs,
    )


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, var ** 0.5


def write_run(out_dir: Path, config_doc: dict, seed: int,
              trials: list[TrialMetrics]) -> None:
    """Per-trial directories plus cross-trial aggregates and a summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in trials:
        write_trial_metrics(out_dir / f"trial_{t.trial:03d}", t)

    agg = out_dir / "aggregate"
    agg.mkdir(exist_ok=True)
    pooled = [d for t in trials for d in t.dropout_values()]
    write_csv(agg / "dropouts.csv", ["trial", "k", "robot", "meters"],
              [(t.trial, k, r, d) for t in trials for k, r, d in t.dropouts])
    write_csv(agg / "failure_ccdf.csv", ["x_meters", "p_ge_x"],
              failure_distribution(pooled))

    robots = trials[0].robots
    rows = []
    for robot in range(robots):
        sent = [float(t.bytes_sent(robot)) for t in trials]
        recv = [float(t.bytes_received(robot)) for t in trials]
        query = [float(t.bytes_sent(robot, kinds=("query",))) for t in trials]
        ops = [float(t.match_ops(robot)) for t in trials]
        rows.append((robot, *_mean_std(sent), *_mean_std(recv),
                     *_mean_std(query), *_mean_std(ops)))
    write_csv(agg / "bytes_summary.csv",
              ["robot", "sent_mean", "sent_std", "recv_mean", "recv_std",
               "query_mean", "query_std", "match_ops_mean", "match_ops_std"],
              rows)

    size_rows = []
    for k in range(1, trials[0].forays + 1):
        for robot in range(robots):
            sizes = [float(n) for t in trials
                     for kk, r, n, _e in t.map_sizes if kk == k and r == robot]
            mean, std = _mean_std(sizes)
            size_rows.append((k, robot, mean, std))
    write_csv(agg / "map_sizes.csv", ["k", "robot", "nodes_mean", "nodes_std"],
              size_rows)

    summary = {
        "seed": seed,
        "trials": len(trials),
        "strategy": trials[0].strategy,
        "robots": robots,
        "forays": trials[0].forays,
        "total_dropout_m": [t.total_dropout() for t in trials],
        "final_digests": [t.final_digests for t in trials],
        "clock_ms": [t.clock_ms for t in trials],
        "config": config_doc,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_convergence_report(out_dir: Path, report: ConvergenceReport,
                             seed: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [(m, k, r, report.node_counts[(m, k, r)], report.digests[(m, k, r)])
            for m in range(report.M)
            for k in range(1, report.K + 1)
            for r in range(report.R)]
    write_csv(out_dir / "convergence_points.csv",
              ["trial", "k", "robot", "nodes", "digest8"], rows)
    write_csv(out_dir / "summary.csv",
              ["R", "K", "M", "policy", "seed", "divergence_events"],
              [(report.R, report.K, report.M, report.policy, seed,
                report.divergence_events)])
    write_csv(out_dir / "mutual_history.csv",
              ["robot_i", "robot_j", "agreed_points"],
              [(i, j, report.mutual_history[i][j])
               for i in range(report.R) for j in range(report.R)])


# -- report command --------------------------------------------------------


def _load_run(run_dir: Path) -> tuple[dict, list[list[str]]]:
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise FileNotFoundError(f"{run_dir}: no summary.json (not a run directory)")
    try:
        summary = json.loads(summary_path.read_text())
    except RecursionError:
        raise ValueError(f"{summary_path}: JSON nested too deeply") from None
    if not isinstance(summary, dict):
        raise ValueError(f"{summary_path}: not a JSON object")
    _, rows = read_csv(run_dir / "aggregate" / "dropouts.csv", width=4)
    return summary, rows


def read_report(run_dirs: list[Path]) -> dict[str, tuple[list[str], list]]:
    """Merge one or more run directories into plot-ready tables, keyed by
    the file name ``write_report`` gives each."""
    ccdf_rows = []
    bytes_rows = []
    size_rows = []
    belief_rows = []
    for run_dir in run_dirs:
        summary, dropout_rows = _load_run(Path(run_dir))
        strategy = summary["strategy"]
        robots = summary["robots"]
        values = [float(r[3]) for r in dropout_rows]
        for x, p in failure_distribution(values):
            ccdf_rows.append((strategy, x, p))
        _, brows = read_csv(Path(run_dir) / "aggregate" / "bytes_summary.csv", width=6)
        sent_means = [float(r[1]) for r in brows]
        query_means = [float(r[5]) for r in brows]
        if sent_means:
            bytes_rows.append((strategy, robots,
                               sum(sent_means) / len(sent_means),
                               sum(query_means) / len(query_means)))
        _, srows = read_csv(Path(run_dir) / "aggregate" / "map_sizes.csv")
        for r in srows:
            size_rows.append((strategy, *r))
        for trial_dir in sorted(Path(run_dir).glob("trial_*")):
            _, rows = read_csv(trial_dir / "beliefs.csv")
            t = trial_dir.name.split("_")[1]
            for r in rows:
                belief_rows.append((strategy, t, *r))
    return {
        "failure_ccdf.csv": (["strategy", "x_meters", "p_ge_x"], ccdf_rows),
        "bytes_by_team.csv": (["strategy", "robots", "sent_mean_per_robot",
                               "query_mean_per_robot"], bytes_rows),
        "map_size_vs_k.csv": (["strategy", "k", "robot", "nodes_mean", "nodes_std"],
                              size_rows),
        "belief_trajectories.csv": (["strategy", "trial", "k", "robot", "seller",
                                     "count", "mean", "variance"], belief_rows),
    }


def write_report(out_dir: Path, tables: dict[str, tuple[list[str], list]]) -> None:
    """Write ``read_report``'s tables into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
