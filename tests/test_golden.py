"""Golden outputs pinned across commits.

The other tests compare a run with itself; these compare it with values
recorded from an earlier build, so a restructuring that reorders one
random draw or one written byte fails here even when every run still
repeats exactly. The pinned values do not depend on the interpreter's
string-hash seed. Do not edit a pinned value to make a change pass: a
different value means the program computes something else.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expmarket.cli import main
from expmarket.config import bundled_scenario
from expmarket.integrity import generate_configurations, merge_coverage, run_battery_trial
from expmarket.localiser import LocaliserConfig
from expmarket.merging import Choice, ChoicePolicy, Commutation, CommutationPolicy


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


SCENARIOS = {
    "robustness-bandit-recommend": (
        "robustness", {"strategies.trading": "BANDIT_EXPLORE_EXPLOIT",
                       "strategies.shopping": "RECOMMEND"},
        "8070fa514e49ac22b076d0f95b369fbe911d504021e77bb6169584ebc0769c8b"),
    "robustness-bandit-exploit": (
        "robustness", {"strategies.trading": "BANDIT_EXPLOIT"},
        "5318b6d4cbec6891b2398a3984e0da9a685b53ac0ec61c56170ff4b31a436dfa"),
    "robustness-bandit-explore": (
        "robustness", {"strategies.trading": "BANDIT_EXPLORE"},
        "d9a7712041d93db5617d16518552b0dcda6b306b6a742eb2baec6d5e4e69ec7e"),
    "robustness-central": (
        "robustness", {"strategies.trading": "CENTRAL"},
        "7957122b5a9bf5d7f3aac7d41a03945761f053aa77e539ce01c2ae2591cd60ce"),
    "robustness-none": (
        "robustness", {"strategies.trading": "NONE"},
        "6b29c84871ad2af67d736aacb267c3b9ddfc40356b0df3d2a7a94d333d291540"),
    "scaling-match": (
        "scaling", {"team.robots": 3},
        "aa1a23fbbcbd1d47b8da942e8a22203991cddcc8a12b8ba0bc681bccdc4f7640"),
    "shopping": (
        "shopping", {},
        "b5198860efd98c826a0e7263cff30704b39dc58a02b35b577fb16cacb307e991"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_scenario_tree_is_pinned(tmp_path, name):
    bundled, overrides, expected = SCENARIOS[name]
    doc = bundled_scenario(bundled)
    doc["sim"]["forays"] = 4
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True))
    out = tmp_path / "run"
    assert main(["run-scenario", "--config", str(config), "--seed", "3",
                 "--out", str(out)]) == 0
    assert _tree_hash(out) == expected


def test_long_horizon_fleet_tree_is_pinned(tmp_path):
    """The scaling fleet at R=8 over 48 forays: every epoch of MATCH trades
    deletes nodes, so a map's products lose and gain nodes many times over."""
    doc = bundled_scenario("scaling")
    doc["team"]["robots"] = 8
    doc["sim"]["forays"] = 48
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True))
    out = tmp_path / "run"
    assert main(["run-scenario", "--config", str(config), "--seed", "0",
                 "--out", str(out)]) == 0
    assert _tree_hash(out) == "6d7748fa42d2464831ef514dfebd62b99a0e929a0b5f67863e9e8bf8d727a5b0"


def test_float_choice_tree_ignores_string_hash_seed(tmp_path):
    """The FAB-MAP choice sums float scores in patch order, so a patch's
    iteration order must not follow the interpreter's string-hash seed."""
    doc = bundled_scenario("scaling")
    doc["strategies"]["choice"] = "fabmap"
    doc["team"]["robots"] = 3
    doc["sim"]["forays"] = 3
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc, indent=2, sort_keys=True))
    src = Path(__file__).resolve().parent.parent / "src"
    trees = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hashseed{hash_seed}"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "expmarket.cli", "run-scenario",
                               "--config", str(config), "--seed", "0", "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append(_tree_hash(out))
    assert trees[0] == trees[1]


def test_match_convergence_tree_is_pinned(tmp_path):
    out = tmp_path / "conv"
    assert main(["verify-convergence", "--robots", "3", "--forays", "3",
                 "--trials", "4", "--policy", "match", "--overlap", "0.3",
                 "--seed", "3", "--out", str(out)]) == 0
    assert _tree_hash(out) == "0498a8b01b8ee6e723ffa0472e33a21b83b8fe04ba1e263a53acf75b02222e5f"


TEAM_MATCH = {
    "inliers": "64d85172bd7ac00505157addeef34bb9d0e7dc3e9efe901a517b980cc32e0187",
    "fabmap": "aae4c309789c3db12924339f4a9141be61d1e416a72a3d54622c7d4cade72cde",
    "path_memory": "d56fb6cd70c0821ef1a40694ef195d629decd5c39d6c0a2644e8b1a8bdb94086",
}


@pytest.mark.parametrize("gamma", sorted(TEAM_MATCH))
def test_team_match_convergence_tree_is_pinned(tmp_path, gamma):
    """A team of eight merges under MATCH: drops on both sides of a trade,
    carried edges into dropped nodes, rewired edges that meet carried ones."""
    out = tmp_path / "conv"
    assert main(["verify-convergence", "--robots", "8", "--forays", "4",
                 "--trials", "2", "--policy", "match", "--overlap", "0.3",
                 "--gamma", gamma, "--seed", "0", "--out", str(out)]) == 0
    assert _tree_hash(out) == TEAM_MATCH[gamma]


BATTERY = {
    (): {(1, 1): 596},
    ("no_reconnect",): {(0, 1): 112, (1, 1): 484},
    ("no_delete",): {(1, 0): 232, (1, 1): 364},
    ("no_delete", "no_reconnect"): {(0, 0): 112, (1, 0): 120, (1, 1): 364},
}


@pytest.mark.parametrize("faults", sorted(BATTERY))
def test_battery_coverage_is_pinned(faults):
    policy = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.INLIERS),
                               LocaliserConfig(tau_m=0.1))
    configs = generate_configurations(5, 60)
    coverage = merge_coverage([run_battery_trial(c, policy, frozenset(faults))
                               for c in configs])
    assert coverage.multiset == BATTERY[faults]
