"""Effect summaries and the shard-safety pass: SIM301–SIM304 fixtures,
fixed-point convergence, the effects.json cache, SARIF round-trip,
baseline staleness, and ``ignore[...]`` directive scoping."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, update_baseline
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.effects import compute_effects, load_or_compute_effects
from repro.analysis.run import ALL_RULES, lint_project
from repro.analysis.sarif import sarif_report, to_sarif, violations_from_sarif
from repro.analysis.shards import SHARD_RULES, check_shards
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"
REPO = Path(__file__).parents[2]

#: Fixtures whose scenario spans a shard boundary need the far-side
#: module in the same lint run (cross-shard reach is inherently
#: cross-module).
COMPANIONS = {"SIM302": ("sim302_switch.py",)}


def lint_shard_fixture(name: str, rule: str):
    paths = [FIXTURES / name]
    paths += [FIXTURES / extra for extra in COMPANIONS.get(rule, ())]
    return lint_project(paths, baseline_path=None, shards=True).violations


# -- fixtures: every shard rule fires on bad, stays quiet on good ------------


@pytest.mark.parametrize("rule", sorted(SHARD_RULES))
def test_bad_fixture_trips_exactly_its_rule(rule):
    number = rule[len("SIM"):]
    violations = lint_shard_fixture(f"bad_sim{number}.py", rule)
    assert {v.rule for v in violations} == {rule}, violations
    assert all(v.path.endswith(f"bad_sim{number}.py") for v in violations)


@pytest.mark.parametrize("rule", sorted(SHARD_RULES))
def test_good_fixture_is_clean(rule):
    number = rule[len("SIM"):]
    assert lint_shard_fixture(f"good_sim{number}.py", rule) == []


def test_every_shard_rule_has_a_description():
    for rule in SHARD_RULES:
        assert rule in ALL_RULES


def test_repo_src_tree_is_clean_under_shards(src_lint_cache):
    report = lint_project(
        [SRC], baseline_path=None, shards=True, cache_path=src_lint_cache
    )
    assert report.violations == []


# -- effect summaries --------------------------------------------------------


def _project(*sources: str) -> tuple[ProjectIndex, CallGraph]:
    files = [(Path(f"fake{i}.py"), src) for i, src in enumerate(sources)]
    index = ProjectIndex.build(files)
    return index, CallGraph(index)


def test_mutually_recursive_summaries_reach_a_fixed_point():
    index, graph = _project(
        "# simlint: package=repro.net.link\n"
        "class Link:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self.depth = 0\n"
        "    def start(self):\n"
        "        self.sim.schedule(4, self._ping)\n"
        "    def _ping(self):\n"
        "        self.depth += 1\n"
        "        self._pong()\n"
        "    def _pong(self):\n"
        "        self._ping()\n"
    )
    effects = compute_effects(index, graph)
    ping = effects.summary("repro.net.link.Link._ping")
    pong = effects.summary("repro.net.link.Link._pong")
    # The cycle converged with both members carrying the write.
    assert ping.writes_to("repro.net.link.Link")
    assert pong.writes_to("repro.net.link.Link")
    assert ping.touch_domains == pong.touch_domains == frozenset({"link"})
    assert effects.iterations >= 2


def test_public_api_absorbs_own_class_writes_but_not_touches():
    index, graph = _project(
        "# simlint: package=repro.net.link\n"
        "from repro.net.switch import Switch\n"
        "class Link:\n"
        "    def __init__(self, sim, peer: Switch):\n"
        "        self.sim = sim\n"
        "        self.peer = peer\n"
        "    def _deliver(self, size):\n"
        "        self.peer.receive(size)\n",
        "# simlint: package=repro.net.switch\n"
        "class Switch:\n"
        "    def __init__(self):\n"
        "        self.rx = 0\n"
        "    def receive(self, size):\n"
        "        self.rx += size\n",
    )
    effects = compute_effects(index, graph)
    deliver = effects.summary("repro.net.link.Link._deliver")
    # Entering the public API absorbs the Switch's own-state writes...
    assert not deliver.writes_to("repro.net.switch.Switch")
    # ...but the raw shard footprint still records the crossing.
    assert "switch" in deliver.touch_domains


def test_protocol_dispatch_contributes_remote_domains():
    index, graph = _project(
        "# simlint: package=repro.net.link\n"
        "from typing import Protocol\n"
        "class Device(Protocol):\n"
        "    def receive(self, pkt) -> None: ...\n"
        "class Link:\n"
        "    def __init__(self, sim, dst):\n"
        "        self.sim = sim\n"
        "        self.dst: Device = dst\n"
        "        self.delay_ns = 10\n"
        "    def _finish(self, pkt):\n"
        "        self.sim.schedule(3, self._deliver, pkt)\n"
        "    def _deliver(self, pkt):\n"
        "        self.dst.receive(pkt)\n",
        "# simlint: package=repro.net.switch\n"
        "class Switch:\n"
        "    def receive(self, pkt):\n"
        "        pass\n",
    )
    effects = compute_effects(index, graph)
    deliver = effects.summary("repro.net.link.Link._deliver")
    # The receiver writes nothing, so only the structural crossing
    # itself marks the summary.
    assert deliver.touch_domains == frozenset()
    assert deliver.remote_domains == frozenset({"switch"})
    # And SIM302 treats the constant-delay schedule of it as a
    # lookahead violation...
    rules = {v.rule for v in check_shards(index, graph, effects)}
    assert "SIM302" in rules


def test_link_delay_proves_the_protocol_crossing_safe():
    index, graph = _project(
        "# simlint: package=repro.net.link\n"
        "from typing import Protocol\n"
        "class Device(Protocol):\n"
        "    def receive(self, pkt) -> None: ...\n"
        "class Link:\n"
        "    def __init__(self, sim, dst):\n"
        "        self.sim = sim\n"
        "        self.dst: Device = dst\n"
        "        self.delay_ns = 10\n"
        "    def _finish(self, pkt):\n"
        "        self.sim.schedule(self.delay_ns, self._deliver, pkt)\n"
        "    def _deliver(self, pkt):\n"
        "        self.dst.receive(pkt)\n",
        "# simlint: package=repro.net.switch\n"
        "class Switch:\n"
        "    def receive(self, pkt):\n"
        "        pass\n",
    )
    effects = compute_effects(index, graph)
    assert check_shards(index, graph, effects) == []


def test_raw_generator_reaching_a_component_fires_sim303():
    index, graph = _project(
        "# simlint: package=repro.net.dcqcn\n"
        "import numpy as np\n"
        "class DCQCNRateControl:\n"
        "    def __init__(self, rng):\n"
        "        self.rng = rng\n"
        "def build():\n"
        "    r = np.random.default_rng(1)\n"
        "    return DCQCNRateControl(r)\n"
    )
    effects = compute_effects(index, graph)
    rules = {v.rule for v in check_shards(index, graph, effects)}
    assert "SIM303" in rules


def test_inlined_heappush_is_a_schedule_site():
    index, graph = _project(
        "# simlint: package=repro.net.link\n"
        "from heapq import heappush\n"
        "class Link:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self.delay_ns = 10\n"
        "    def send(self, pkt, seq):\n"
        "        heappush(self.sim.heap,\n"
        "                 (self.sim.now + self.delay_ns, seq, self._finish, (pkt,)))\n"
        "    def _finish(self, pkt):\n"
        "        pass\n"
    )
    sites = [s for s in graph.schedule_sites if s.kind == "heappush"]
    assert len(sites) == 1
    assert sites[0].target == "repro.net.link.Link._finish"
    # The ``now + X`` shape was stripped down to the relative delay.
    import ast

    assert ast.unparse(sites[0].delay) == "self.delay_ns"
    assert "repro.net.link.Link._finish" in graph.reachable_from_dispatch()


# -- the effects.json cache --------------------------------------------------

_CACHE_SRC_V1 = (
    "# simlint: package=repro.net.link\n"
    "class Link:\n"
    "    def __init__(self, sim):\n"
    "        self.sim = sim\n"
    "        self.queued = 0\n"
    "    def _drain(self):\n"
    "        self.queued = 0\n"
)
_CACHE_SRC_V2 = _CACHE_SRC_V1 + "    def _refill(self):\n        self.queued = 9\n"


def test_effects_cache_hits_and_invalidates_on_content_change(tmp_path):
    cache = tmp_path / "effects.json"
    index1, graph1 = _project(_CACHE_SRC_V1)
    first = load_or_compute_effects(index1, graph1, cache)
    assert cache.exists()

    # Same content -> served from the cache.  Prove it by tampering
    # with a field the recompute would never produce.
    data = json.loads(cache.read_text())
    data["iterations"] = 99
    cache.write_text(json.dumps(data))
    again = load_or_compute_effects(index1, graph1, cache)
    assert again.digest == first.digest
    assert again.iterations == 99
    assert again.summary("repro.net.link.Link._drain").writes_to(
        "repro.net.link.Link"
    )

    # Changed content -> digest mismatch -> recompute + rewrite.
    index2, graph2 = _project(_CACHE_SRC_V2)
    fresh = load_or_compute_effects(index2, graph2, cache)
    assert fresh.digest != first.digest
    assert fresh.iterations != 99
    assert fresh.summary("repro.net.link.Link._refill").writes_to(
        "repro.net.link.Link"
    )
    assert json.loads(cache.read_text())["digest"] == fresh.digest


# -- SARIF -------------------------------------------------------------------


def test_sarif_round_trips_the_findings():
    violations = lint_shard_fixture("bad_sim301.py", "SIM301")
    assert violations  # guard: the round-trip must carry something
    text = to_sarif(violations, ALL_RULES)
    assert violations_from_sarif(text) == violations

    report = sarif_report(violations, ALL_RULES)
    assert report["version"] == "2.1.0"
    driver = report["runs"][0]["tool"]["driver"]
    assert driver["name"] == "simlint"
    assert [r["id"] for r in driver["rules"]] == ["SIM301"]
    assert driver["rules"][0]["shortDescription"]["text"] == ALL_RULES["SIM301"]


def test_cli_emits_and_writes_sarif(tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    rc = cli_main(
        [
            "lint", str(FIXTURES / "bad_sim304.py"),
            "--no-baseline", "--shards",
            "--format", "sarif", "--sarif-output", str(out_file),
        ]
    )
    assert rc == 1
    stdout = capsys.readouterr().out
    assert [v.rule for v in violations_from_sarif(stdout)] == ["SIM304"]
    assert [v.rule for v in violations_from_sarif(out_file.read_text())] == [
        "SIM304"
    ]


def test_cli_src_tree_is_clean_under_shards(src_lint_cache):
    rc = cli_main(
        [
            "lint", str(SRC), "--shards", "--no-baseline",
            "--cache", str(src_lint_cache),
        ]
    )
    assert rc == 0


# -- baseline staleness ------------------------------------------------------


def _stale_setup(tmp_path) -> Path:
    baseline = tmp_path / "baseline.json"
    violations = lint_project(
        [FIXTURES / "bad_sim304.py"], baseline_path=None, shards=True
    ).violations
    update_baseline(baseline, violations, root=REPO)
    return baseline


def test_stale_baseline_entry_fails_after_one_grace_run(tmp_path):
    baseline = _stale_setup(tmp_path)
    clean = [FIXTURES / "good_sim304.py"]

    first = lint_project(clean, baseline_path=baseline, root=REPO, shards=True)
    assert first.ok
    assert [e.stale for e in first.stale] == [True]
    assert first.stale_failures == []

    second = lint_project(clean, baseline_path=baseline, root=REPO, shards=True)
    assert not second.ok
    assert second.stale == []
    assert len(second.stale_failures) == 1

    # The suppressed finding coming back unmarks the entry.
    third = lint_project(
        [FIXTURES / "bad_sim304.py"],
        baseline_path=baseline, root=REPO, shards=True,
    )
    assert third.ok and third.violations == []
    assert [e.stale for e in load_baseline(baseline)] == [False]


def test_prune_baseline_drops_stale_entries_immediately(tmp_path):
    baseline = _stale_setup(tmp_path)
    report = lint_project(
        [FIXTURES / "good_sim304.py"],
        baseline_path=baseline, root=REPO, shards=True, prune_baseline=True,
    )
    assert report.ok
    assert len(report.pruned) == 1
    assert load_baseline(baseline) == []


def test_cli_exit_code_for_twice_stale_entry(tmp_path):
    baseline = _stale_setup(tmp_path)
    argv = [
        "lint", str(FIXTURES / "good_sim304.py"),
        "--baseline", str(baseline), "--shards",
    ]
    assert cli_main(argv) == 0  # grace run: marked, still green
    assert cli_main(argv) == 1  # stale for >1 run: gate fails


# -- directive scoping -------------------------------------------------------


def test_directive_on_decorator_or_signature_covers_the_body():
    report = lint_project(
        [FIXTURES / "good_directive_scope.py"], baseline_path=None
    )
    assert report.violations == []


def test_directive_inside_the_body_does_not_mute():
    report = lint_project(
        [FIXTURES / "bad_directive_scope.py"], baseline_path=None
    )
    assert {v.rule for v in report.violations} == {"SIM002"}
