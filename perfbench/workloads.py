"""The benchmark's workloads.

Each workload makes its inputs from the seed in ``setup`` and then offers
one *cycle*: a fixed list of units of work.  A run repeats the cycle until
its time is up.  Every unit returns an outcome (hashes, digests, counts);
a repetition must reproduce the outcome of the first, and a seed pinned in
``expected.json`` must reproduce the pinned outcome.

Programs are driven through their public entry points: the CLI for
``verify-convergence`` and ``run-scenario``, ``Repository``/``build_patch``/
``execute_trade`` for the map pairs.  Module attributes are looked up at
call time so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import random
import shutil
import sys
from pathlib import Path
from typing import Callable


class Mismatch(Exception):
    """An output differs from what the workload requires."""


@dataclasses.dataclass
class Unit:
    """One timed call into the program.

    ``run`` is timed; ``summarize`` turns its result into
    ``(work done, outcome)`` outside the timed region.
    """

    name: str
    run: Callable[[], object]
    summarize: Callable[[object], tuple[int, dict]]
    label: str | None = None
    probe: bool = False  # timed for latencies only, not for work_per_s
    pin_keys: tuple[str, ...] | None = None  # outcome keys pinned across processes (None: all)


def sub_seed(*parts) -> int:
    """A stable integer seed for a label path (independent of the program)."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def tree_hash(root: Path) -> str:
    """SHA-256 over sorted relative paths and file bytes (criterion 10)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli(argv: list[str]) -> int:
    from expmarket import cli

    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


class Convergence:
    """The criterion-1 ``verify-convergence`` sweep, 25 trials per call.

    Under MATCH with overlap the program's state digests depend on the
    interpreter's string-hash seed: ``_toy_patch`` draws duplicates from
    ``list(patch.inserted_nodes())``, the iteration order of a frozenset
    of ``PatchElement`` whose hash includes an Enum (hashed by its name).
    Node counts and agreement history do not, so only they are pinned
    across processes for those calls; the whole output tree must still
    repeat within a run.
    """

    work_unit = "trials"
    SWEEP = [("union", "inliers", "0.0"), ("match", "inliers", "0.3"),
             ("match", "fabmap", "0.3"), ("match", "path_memory", "0.3")]

    def __init__(self, seed: int, smoke: bool, out: Path) -> None:
        self.seed, self.out = seed, out
        self.trials = 2 if smoke else 25
        self.forays = 3 if smoke else 9

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def cycle(self) -> list[Unit]:
        return [Unit(f"{policy}-{gamma}",
                     lambda p=policy, g=gamma, o=overlap: self._run(p, g, o),
                     self._summarize,
                     pin_keys=("counts", "final_nodes") if policy == "match" else None)
                for policy, gamma, overlap in self.SWEEP]

    def _run(self, policy: str, gamma: str, overlap: str):
        out = self.out / f"{policy}-{gamma}"
        code = _cli(["verify-convergence", "--robots", "2", "--forays", str(self.forays),
                     "--trials", str(self.trials), "--policy", policy, "--gamma", gamma,
                     "--overlap", overlap, "--seed", str(self.seed), "--out", str(out)])
        return code, out

    def _summarize(self, raw) -> tuple[int, dict]:
        code, out = raw
        if code != 0:
            raise Mismatch(f"verify-convergence exited {code} (divergence events)")
        events = int(_read_rows(out / "summary.csv")[0]["divergence_events"])
        if events != 0:
            raise Mismatch(f"{events} divergence events")
        points = _read_rows(out / "convergence_points.csv")
        final = [r for r in points if int(r["k"]) == self.forays]
        counts = hashlib.sha256(json.dumps(
            [[r["trial"], r["k"], r["robot"], r["nodes"]] for r in points]).encode())
        counts.update((out / "mutual_history.csv").read_bytes())
        outcome = {"tree": tree_hash(out), "counts": counts.hexdigest(),
                   "final_nodes": sum(int(r["nodes"]) for r in final)}
        shutil.rmtree(out)
        return self.trials, outcome


class Scenario:
    """``run-scenario`` on a bundled config with overrides, one trial per call."""

    def __init__(self, seed: int, out: Path, bundled: str, overrides: dict,
                 work_unit: str, repeat_every: int = 0) -> None:
        self.seed, self.out = seed, out
        self.bundled, self.overrides = bundled, overrides
        self.work_unit = work_unit
        self.repeat_every = repeat_every  # see tracing.OpTimer

    def setup(self) -> None:
        from expmarket import config

        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        doc = config.bundled_scenario(self.bundled)
        for key, value in self.overrides.items():
            section, field = key.split(".")
            doc[section][field] = value
        self.config_path = self.out / "scenario.json"
        self.config_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        cfg = config.load_scenario_config(self.config_path)
        self.robots, self.forays = cfg.robots, cfg.forays

    def cycle(self) -> list[Unit]:
        return [Unit("trial", self._run, self._summarize)]

    def _run(self):
        out = self.out / "run"
        code = _cli(["run-scenario", "--config", str(self.config_path), "--seed",
                     str(self.seed), "--trials", "1", "--jobs", "1", "--out", str(out)])
        return code, out

    def _summarize(self, raw) -> tuple[int, dict]:
        code, out = raw
        if code != 0:
            raise Mismatch(f"run-scenario exited {code}")
        trial = out / "trial_000"
        summary = json.loads((out / "summary.json").read_text())
        last = [r for r in _read_rows(trial / "map_sizes.csv") if int(r["k"]) == self.forays]
        traffic = _read_rows(trial / "bytes.csv")
        trades = _read_rows(trial / "trades.csv")
        outcome = {
            "tree": tree_hash(out),
            "final_digests": summary["final_digests"][0],
            "nodes": sum(int(r["nodes"]) for r in last),
            "edges": sum(int(r["edges"]) for r in last),
            "trades": len(trades),
            "trade_bytes": sum(int(r["bytes"]) for r in trades),
            "patch_bytes_sent": sum(int(r["sent_patch"]) for r in traffic),
            "match_ops": sum(int(r["match_ops"]) for r in traffic),
        }
        shutil.rmtree(out)
        work = len(trades) if self.work_unit == "trades" else self.robots * self.forays
        return work, outcome


def fleet(seed: int, smoke: bool, out: Path) -> Scenario:
    """The scaling config at R=8, K=12: MATCH/inliers with ALL trading.

    Every 4th trade is repeated to time a no-op trade on the fleet's maps.
    """
    robots, forays = (3, 2) if smoke else (8, 12)
    return Scenario(seed, out, "scaling",
                    {"team.robots": robots, "sim.forays": forays}, "trades",
                    repeat_every=4)


class Solo(Scenario):
    """The criterion-8 baseline: the robustness config with no trading.

    It makes no trades of its own, so each cycle also runs a probe:
    ``PROBE_REPEATS`` cycles of a seeded 1k-node ``MapPairs``, whose trades
    give the solo trade latencies and whose time is left out of work_per_s.
    A run holds only a few trials, so the probe is repeated within a cycle
    to give each of its trades more than a few timings.
    """

    latency_label = "probe"
    PROBE_REPEATS = 4

    def __init__(self, seed: int, smoke: bool, out: Path) -> None:
        super().__init__(seed, out, "robustness",
                         {"strategies.trading": "NONE", "sim.forays": 4 if smoke else 96},
                         "robot-forays")
        self.probe = MapPairs(seed, smoke, out, sizes=(100 if smoke else 1000,),
                              label="probe")

    def setup(self) -> None:
        super().setup()
        self.probe.setup()

    def cycle(self) -> list[Unit]:
        probe = [dataclasses.replace(u, probe=True) for u in self.probe.cycle()]
        return super().cycle() + probe * self.PROBE_REPEATS


class MapPairs:
    """Seeded map pairs: each round both sides commit, then trade twice.

    A base map has ``n`` nodes with 16-dim descriptors across 8 products, a
    chain edge and one random chord per node.  Each round both sides commit
    a 10-node chain anchored to a base node, then make one UNION trade with
    content and one repeat trade with nothing to exchange.  Every cycle
    starts again from the base maps, so cycles are identical.
    """

    work_unit = "trades"
    PRODUCTS = 8
    DIM = 16
    PATCH_NODES = 10

    def __init__(self, seed: int, smoke: bool, out: Path,
                 sizes: tuple[int, ...] | None = None, label: str | None = None) -> None:
        self.seed = seed
        self.sizes = sizes or ((200, 20) if smoke else (10_000, 1_000))
        self.rounds = 2 if smoke else 8
        self.label = label
        self.patch_nodes = 3 if smoke else self.PATCH_NODES
        # trade latencies are those of the largest pair
        self.latency_label = label or str(max(self.sizes))

    def setup(self) -> None:
        self.bases = {n: self._base(n) for n in self.sizes}
        self.pairs: dict[int, list] = {}

    def _node(self, ids, rng: random.Random, product: int, creator: int, foray: int):
        from expmarket.graph import Node

        return Node(id=ids.next_id(),
                    descriptor=tuple(rng.gauss(0.0, 1.0) for _ in range(self.DIM)),
                    inlier_count=rng.randrange(100), fabmap_score=rng.random(),
                    product=product, creator=creator, foray=foray)

    def _base(self, n: int):
        from expmarket.graph import Edge, Graph
        from expmarket.ids import NodeIdGenerator
        from expmarket.pose import Pose

        rng = random.Random(sub_seed(self.seed, "base", n))
        ids = NodeIdGenerator(sub_seed(self.seed, "base-ids", n), 0)
        nodes = [self._node(ids, rng, i * self.PRODUCTS // n, 0, 0) for i in range(n)]
        graph = Graph()
        for node in nodes:
            graph.insert_node(node)
        for a, b in zip(nodes, nodes[1:]):
            graph.insert_edge(Edge(a.id, b.id, Pose.from_translation(5.0)))
        for a in nodes:
            b = nodes[rng.randrange(n)]
            if a.id != b.id and not graph.has_edge(a.id, b.id) and not graph.has_edge(b.id, a.id):
                graph.insert_edge(Edge(a.id, b.id, Pose.from_translation(rng.uniform(1.0, 50.0))))
        graph.digest()
        return graph, [node.id for node in nodes]

    def cycle(self) -> list[Unit]:
        return [Unit(f"{n}-r{r}", lambda n=n, r=r: self._round(n, r), self._summarize,
                     label=self.label or str(n))
                for r in range(self.rounds) for n in self.sizes]

    def _round(self, n: int, r: int):
        from expmarket import merging, patches
        from expmarket.graph import Edge
        from expmarket.ids import NodeIdGenerator
        from expmarket.pose import Pose

        graph, base_ids = self.bases[n]
        if r == 0:
            self.pairs[n] = [patches.Repository(0, graph), patches.Repository(1, graph)]
        pair = self.pairs[n]
        for side, repo in enumerate(pair):
            rng = random.Random(sub_seed(self.seed, "round", n, r, side))
            ids = NodeIdGenerator(sub_seed(self.seed, "round-ids", n, r, side), side + 1)
            nodes = [self._node(ids, rng, rng.randrange(self.PRODUCTS), side + 1, r + 1)
                     for _ in range(self.patch_nodes)]
            anchor = base_ids[rng.randrange(n)]
            edges = [Edge(anchor, nodes[0].id, Pose.from_translation(5.0))]
            edges += [Edge(a.id, b.id, Pose.from_translation(5.0))
                      for a, b in zip(nodes, nodes[1:])]
            repo.commit(patches.build_patch(repo.graph, insert_nodes=nodes, insert_edges=edges))
        policy = merging.CommutationPolicy(merging.Commutation.UNION)
        content = merging.execute_trade(pair[0], pair[1], policy, k=r + 1)
        pair[:] = [content.left, content.right]
        noop = merging.execute_trade(pair[0], pair[1], policy, k=r + 1)
        pair[:] = [noop.left, noop.right]
        return content, noop

    def _summarize(self, raw) -> tuple[int, dict]:
        content, noop = raw
        left, right = content.left.digest(), content.right.digest()
        if left != right:
            raise Mismatch("content trade left the two sides with different digests")
        if content.stats.nodes_in != self.patch_nodes:
            raise Mismatch(f"content trade moved {content.stats.nodes_in} nodes, "
                           f"expected {self.patch_nodes}")
        if not (noop.pair.for_left.is_empty() and noop.pair.for_right.is_empty()):
            raise Mismatch("repeat trade exchanged content")
        if noop.left.digest() != left or noop.right.digest() != left:
            raise Mismatch("repeat trade changed a digest")
        outcome = {"digest": left.hex(), "nodes": len(noop.left.graph),
                   "edges": noop.left.graph.edge_count(), "wire_bytes": content.stats.bytes}
        return 2, outcome


WORKLOADS = {
    "convergence": Convergence,
    "fleet": fleet,
    "bigmap": MapPairs,
    "solo": Solo,
}
