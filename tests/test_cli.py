import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ladderbus
from ladderbus import grouping
from ladderbus.appgraph import dump_cluster_graph, generate_synthetic
from ladderbus.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_STAGE,
    STAGE_ORDER,
    STAGES,
    RunState,
    load_config,
    main,
)

BASE_CONFIG = {
    "name": "cli-test",
    "seed": 1,
    "graph": {"synthetic": {"n_clusters": 14, "n_edges": 41}},
    "sim": {"frames": 2},
}


def write_config(tmp_path, cfg=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg or BASE_CONFIG))
    return str(path)


def read_all_state(rundir: Path) -> dict[str, bytes]:
    out = {}
    for p in sorted(rundir.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(rundir))] = p.read_bytes()
    return out


def test_full_run_creates_all_state(tmp_path):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    for name in ["config.json", "graph.json", "metrics.json", "topology.json",
                 "placement.json", "paths.json", "scenarios.json",
                 "controllers.json", "sim_report.json", "cost_report.json"]:
        assert (rundir / name).exists(), name
    assert (rundir / "programs").is_dir()
    sim_report = json.loads((rundir / "sim_report.json").read_text())
    assert sim_report["collisions"] == 0
    assert all(v == 2 for v in sim_report["delivered"].values())


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    r1, r2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--rundir", str(r1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--rundir", str(r2)]) == EXIT_OK
    assert read_all_state(r1) == read_all_state(r2)


def test_stagewise_equals_end_to_end(tmp_path):
    cfg = write_config(tmp_path)
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", cfg, "--rundir", str(full)]) == EXIT_OK
    for stage in STAGE_ORDER:
        assert main([stage, "--config", cfg, "--rundir", str(staged)]) == EXIT_OK
    assert read_all_state(full) == read_all_state(staged)


def test_run_reads_each_state_file_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    reads = Counter()
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads[path.name] += 1
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    state = ["graph.json", "topology.json", "placement.json", "scenarios.json", "controllers.json"]
    programs = [p.name for p in (rundir / "programs").glob("ctrl_*.txt")]
    # run keeps the state its stages write: it parses only the program files,
    # each once, which sim runs as emit-ctrl wrote them
    assert programs and {name: reads[name] for name in state + programs} == {
        **dict.fromkeys(state, 0), **dict.fromkeys(programs, 1)}
    # paths.json is group's output alone: no command reads it back
    assert reads["paths.json"] == 0
    for stage in STAGE_ORDER:
        reads.clear()
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
        assert reads["paths.json"] == 0 and max(reads[name] for name in state + programs) <= 1, (stage, reads)


@pytest.mark.parametrize("extra", [
    {},
    {"grouping": {"algorithm": "greedy", "compare": False}, "topology": {"n_tiles": 15}},
    {"graph": "file", "grouping": {"compare": False}, "topology": {"n_tiles": 17}},
], ids=["compare", "greedy-odd-tiles", "graph-file-odd-tiles"])
def test_stored_state_equals_what_its_file_reads_back(tmp_path, extra):
    # a stage keeps the value it writes; a fresh RunState on the same directory
    # reads each file back to an equal value
    doc = {**BASE_CONFIG, **extra}
    if doc["graph"] == "file":
        (tmp_path / "g.json").write_text(dump_cluster_graph(generate_synthetic(14, 41, seed=5, name="byfile")))
        doc["graph"] = {"file": str(tmp_path / "g.json")}
    cfg = load_config(write_config(tmp_path, doc))
    rundir = tmp_path / "run"
    rundir.mkdir()
    state = RunState(rundir)
    for name in STAGE_ORDER:
        STAGES[name](cfg, state)
    fresh = RunState(rundir)
    for attr in ("graph", "topology", "placement", "partition", "controllers"):
        assert getattr(fresh, attr) == vars(state)[attr], attr


def test_group_writes_paths_json_and_no_stage_needs_it(tmp_path):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    before = read_all_state(rundir)
    for name in ["paths.json", "controllers.json", "sim_report.json", "cost_report.json"]:
        (rundir / name).unlink()
    for prog in (rundir / "programs").glob("ctrl_*.txt"):
        prog.unlink()
    for stage in ("emit-ctrl", "sim", "cost"):
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert read_all_state(rundir) == {name: b for name, b in before.items() if name != "paths.json"}
    assert main(["group", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert read_all_state(rundir) == before


def test_rerunning_one_stage_preserves_state(tmp_path):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    before = read_all_state(rundir)
    assert main(["group", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert read_all_state(rundir) == before


def test_graph_file_input(tmp_path):
    graph_doc = {"name": "byfile", "n_clusters": 3,
                 "edges": [[0, 1, 2], [1, 2, 1], [0, 2, 3]]}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_doc))
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"file": str(gpath)}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    metrics = json.loads((rundir / "metrics.json").read_text())
    assert metrics["n_clusters"] == 3
    assert metrics["n_edges"] == 3


def test_missing_graph_config_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"seed": 0})
    assert main(["gen", "--config", cfg, "--rundir", str(tmp_path / "r")]) == EXIT_CONFIG


def test_bad_graph_file_is_stage_error(tmp_path):
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps({"name": "x", "n_clusters": 2, "edges": [[0, 0, 1]]}))
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"file": str(gpath)}})
    assert main(["gen", "--config", cfg, "--rundir", str(tmp_path / "r")]) == EXIT_STAGE


def test_stage_without_predecessor_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["place", "--config", cfg, "--rundir", str(tmp_path / "empty")]) == EXIT_CONFIG


def test_collision_yields_invariant_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 0,
        "graph": {"file": str(tmp_path / "g.json")},
    })
    (tmp_path / "g.json").write_text(json.dumps(
        {"name": "t", "n_clusters": 3, "edges": [[0, 1, 1], [0, 2, 1]]}
    ))
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    # corrupt the persisted scenario set: merge everything into one scenario
    doc = json.loads((rundir / "scenarios.json").read_text())
    merged_paths = sorted(pid for s in doc["scenarios"] for pid in s["paths"])
    merged_rle = None
    for s in doc["scenarios"]:
        if any(state != 0 for state, _run in s["switches_rle"]):
            merged_rle = s["switches_rle"]
    doc["scenarios"] = [{"paths": merged_paths, "switches_rle": merged_rle}]
    (rundir / "scenarios.json").write_text(json.dumps(doc))
    assert main(["emit-ctrl", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert main(["sim", "--config", cfg, "--rundir", str(rundir)]) == EXIT_INVARIANT
    events = json.loads((rundir / "sim_report.json").read_text())["collision_events"]
    paths = json.loads((rundir / "paths.json").read_text())["paths"]
    assert ["rung", paths[0]["src"] // 2] in [ev["resource"] for ev in events]  # both leave cluster 0
    assert all(type(v) is int for ev in events for v in [*ev["resource"][1:], ev["claims"], ev["step"]])


def _zero_scenario_zero_words(rundir, paths):
    """Every program's word for scenario 0 set to all IDLE switches."""
    for prog in sorted((rundir / "programs").glob("ctrl_*.txt")):
        lines = prog.read_text().splitlines()
        k = next(k for k, ln in enumerate(lines) if ln.startswith("mem "))
        words = lines[k].split()
        words[1] = "0" * len(words[1])  # words[0] is the keyword
        lines[k] = " ".join(words)
        prog.write_text("\n".join(lines) + "\n")
    members = json.loads((rundir / "scenarios.json").read_text())["scenarios"][0]["paths"]
    # a same-column connection needs no switch, so it is still delivered
    return min(pid for pid in members if paths[pid]["cmin"] != paths[pid]["cmax"])


def _drop_one_path_from_its_scenario(rundir, _paths):
    doc = json.loads((rundir / "scenarios.json").read_text())
    undelivered = doc["scenarios"][0]["paths"].pop()
    (rundir / "scenarios.json").write_text(json.dumps(doc))
    assert main(["emit-ctrl", "--rundir", str(rundir)]) == EXIT_OK  # emit-ctrl does not re-validate the set
    return undelivered


@pytest.mark.parametrize("corrupt", [_zero_scenario_zero_words, _drop_one_path_from_its_scenario])
def test_undelivered_connection_is_invariant_violation(tmp_path, capsys, corrupt):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    paths = json.loads((rundir / "paths.json").read_text())["paths"]
    undelivered = corrupt(rundir, paths)
    capsys.readouterr()
    assert main(["sim", "--config", cfg, "--rundir", str(rundir)]) == EXIT_INVARIANT
    assert f"connection {undelivered} delivered 0 time(s)" in capsys.readouterr().err
    report = json.loads((rundir / "sim_report.json").read_text())
    assert report["collisions"] == 0
    assert report["delivered"][str(undelivered)] == 0


def _set_path_999(scenario):
    scenario["paths"][0] = 999


def _set_path_a(scenario):
    scenario["paths"][0] = "a"


@pytest.mark.parametrize("corrupt, message", [
    (_set_path_999, "path id 999 "),
    (_set_path_a, "path id 'a' "),
], ids=["path-999", "path-a"])
def test_malformed_scenario_record_is_stage_error(tmp_path, capsys, corrupt, message):
    """Both stages that read scenarios.json reject the record, as a config error naming the file."""
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    last = len(doc["scenarios"]) - 1
    corrupt(doc["scenarios"][last])
    (rundir / "scenarios.json").write_text(json.dumps(doc))
    for stage in ("emit-ctrl", "sim"):
        capsys.readouterr()
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: state file scenarios.json: scenario {last}: " in err and message in err, err


def test_emit_ctrl_builds_the_switch_matrix_from_the_memberships(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    before = read_all_state(rundir / "programs")
    doc = json.loads((rundir / "scenarios.json").read_text())
    for s in doc["scenarios"]:
        del s["switches_rle"]
    (rundir / "scenarios.json").write_text(json.dumps(doc))
    build, built = grouping.scenario_switch_matrix, []

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(grouping, "scenario_switch_matrix", recorded)
    assert main(["emit-ctrl", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert len(built) == 1 and len(built[0]) == len(doc["scenarios"])
    assert read_all_state(rundir / "programs") == before


def test_scenario_record_that_is_a_list_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    doc["scenarios"][0] = [[0], [[0, 1]]]
    (rundir / "scenarios.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["emit-ctrl", "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
    assert "config error: state file scenarios.json: scenario 0: needs the list 'paths'" in capsys.readouterr().err


def test_group_stage_compare_runs_the_other_grouper(tmp_path):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    for stage in ["gen", "place"]:
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert main(["group", "--config", cfg, "--rundir", str(rundir), "--set", "grouping.compare=true"]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    assert doc["algorithm"] == "iterated" and set(doc["counts"]) == {"greedy", "iterated"}
    assert doc["lower_bound"] <= doc["counts"]["iterated"] == len(doc["scenarios"]) <= doc["counts"]["greedy"]
    assert doc["stats"]["rounds"] >= 0


@pytest.mark.parametrize("algorithm", ["iterated", "greedy"])
def test_group_stage_compare_runs_first_fit_once(tmp_path, monkeypatch, algorithm):
    # the iterated grouper starts from the greedy partition, so with compare on
    # the stage runs first-fit once for that start and once per iterated round
    cfg = write_config(tmp_path, {**BASE_CONFIG, "graph": {"synthetic": {"n_clusters": 24, "n_edges": 128}},
                                  "grouping": {"algorithm": algorithm, "compare": True}})
    rundir = tmp_path / "run"
    for stage in ["gen", "place"]:
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    calls = []
    first_fit = grouping._first_fit

    def counted(paths, order):
        calls.append(len(paths))
        return first_fit(paths, order)

    monkeypatch.setattr(grouping, "_first_fit", counted)
    assert main(["group", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    n_calls = len(calls)
    counts = json.loads((rundir / "scenarios.json").read_text())["counts"]
    paths = RunState(rundir).paths
    greedy = grouping.group_greedy(paths)
    iterated = grouping.group_iterated(paths, grouping.scenario_lower_bound(paths), greedy)
    assert n_calls == 1 + iterated.stats.rounds
    assert counts == {"greedy": greedy.n_scenarios, "iterated": iterated.n_scenarios}
    assert counts["iterated"] < counts["greedy"]


def test_greedy_group_stage_runs_first_fit_alone(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {**BASE_CONFIG, "grouping": {"algorithm": "greedy", "compare": False}})
    rundir = tmp_path / "run"
    for stage in ["gen", "place"]:
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK

    def no_iterated(*args):
        raise AssertionError("the greedy group stage ran the iterated grouper")

    monkeypatch.setattr(grouping, "group_iterated", no_iterated)
    assert main(["group", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    assert doc["algorithm"] == "greedy" and "stats" not in doc


def test_stage_without_config_keeps_the_run_config(tmp_path):
    rundir = tmp_path / "run"
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 30, "n_edges": 100}},
                                  "grouping": {"algorithm": "greedy", "compare": False}})
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    before = read_all_state(rundir)
    assert main(["group", "--rundir", str(rundir)]) == EXIT_OK
    assert read_all_state(rundir) == before
    # --set applies on top of the directory's config, and is kept in it
    assert main(["group", "--rundir", str(rundir), "--set", "grouping.compare=true"]) == EXIT_OK
    saved = json.loads((rundir / "config.json").read_text())
    assert saved["grouping"] == {"algorithm": "greedy", "compare": True}
    assert saved["graph"] == {"synthetic": {"n_clusters": 30, "n_edges": 100}}
    assert set(json.loads((rundir / "scenarios.json").read_text())["counts"]) == {"greedy", "iterated"}


def test_stage_in_a_fresh_directory_starts_from_the_defaults(tmp_path):
    rundir = tmp_path / "fresh"
    overrides = ["--set", "graph.synthetic.n_clusters=12", "--set", "graph.synthetic.n_edges=30"]
    assert main(["gen", "--rundir", str(rundir), *overrides]) == EXIT_OK
    assert json.loads((rundir / "config.json").read_text()) == load_config(None, overrides[1::2])


def test_malformed_program_is_stage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    prog = rundir / "programs" / "ctrl_000.txt"
    columns = next(ln for ln in prog.read_text().splitlines() if ln.startswith("columns "))
    prog.write_text(prog.read_text().replace(columns, "columns 0"))
    capsys.readouterr()
    assert main(["sim", "--config", cfg, "--rundir", str(rundir)]) == EXIT_STAGE
    assert "stage sim failed: programs/ctrl_000.txt: program line 'columns 0'" in capsys.readouterr().err


def test_v1_program_is_stage_error_naming_its_file(tmp_path, capsys):
    # a program as an old run directory holds it: v1 header, one step line per scenario
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    prog = rundir / "programs" / "ctrl_001.txt"
    text = prog.read_text()
    n_scen = int(next(ln for ln in text.splitlines() if ln.startswith("scenarios ")).split()[1])
    steps = "".join(f"step {k} 1\n" for k in range(n_scen))
    prog.write_text(text.replace("ladderbus-ctrl v2", "ladderbus-ctrl v1").replace("end\n", steps + "end\n"))
    capsys.readouterr()
    assert main(["sim", "--config", cfg, "--rundir", str(rundir)]) == EXIT_STAGE
    assert ("stage sim failed: programs/ctrl_001.txt: not a ladderbus-ctrl v2 program"
            in capsys.readouterr().err)


def test_report_text_and_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    main(["run", "--config", cfg, "--rundir", str(rundir)])
    assert main(["report", "--rundir", str(rundir)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "scenarios_iterated" in text and "scenarios_greedy" in text
    assert "  gap = " in text and "  rounds = " in text
    assert main(["report", "--rundir", str(rundir), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    section = doc["grouping"]
    assert section["scenarios_iterated"] <= section["scenarios_greedy"]
    assert section["gap"] == section["scenarios_iterated"] - section["lower_bound"] >= 0
    assert section["rounds"] >= 0 and section["algorithm"] == "iterated"
    assert "sim" in doc and doc["sim"]["collisions"] == 0


def test_report_without_sim_section(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    for stage in ["gen", "place", "group"]:
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", "--rundir", str(rundir), "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "sim" not in doc
    assert "grouping" in doc


@pytest.mark.parametrize("state, key", [
    ("scenarios.json", "lower_bound"),
    ("scenarios.json", "raw_bits"),
    ("sim_report.json", "energy"),
])
def test_report_on_state_missing_a_key_is_config_error(tmp_path, capsys, state, key):
    n12 = {**BASE_CONFIG, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}}
    cfg = write_config(tmp_path, n12)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    rec = json.loads((rundir / state).read_text())
    del rec[key]
    (rundir / state).write_text(json.dumps(rec))
    capsys.readouterr()
    assert main(["report", "--rundir", str(rundir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert state in err and f"'{key}'" in err


@pytest.mark.parametrize("state, text", [
    ("placement.json", "{"),
    ("metrics.json", "[1, 2]"),
    ("scenarios.json", None),  # 'counts' replaced by a number
])
def test_report_on_malformed_state_is_config_error(tmp_path, capsys, state, text):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    if text is None:
        rec = json.loads((rundir / state).read_text())
        rec["counts"] = 3
        text = json.dumps(rec)
    (rundir / state).write_text(text)
    capsys.readouterr()
    assert main(["report", "--rundir", str(rundir)]) == EXIT_CONFIG
    assert state in capsys.readouterr().err


DEEP = "[" * 100_000  # deeper than any JSON parser's recursion allows


def test_deeply_nested_json_is_a_config_or_graph_format_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    rundir = tmp_path / "run"
    assert main(["run", "--config", str(deep), "--rundir", str(rundir)]) == EXIT_CONFIG
    assert f"config error: cannot read config {deep}" in capsys.readouterr().err
    # shallow enough to parse, too deep to copy: the merge does not recurse into values
    cfg = write_config(tmp_path, {"seed": json.loads("[" * 600 + "]" * 600)}, name="deep_seed.json")
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
    assert "config error: config key 'seed' has value [[[" in capsys.readouterr().err
    cfg = write_config(tmp_path)
    deep_graph = "graph=" + json.dumps({"file": str(deep)})
    assert main(["gen", "--config", cfg, "--rundir", str(rundir), "--set", deep_graph]) == EXIT_STAGE
    assert "stage gen failed: invalid JSON" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    (rundir / "scenarios.json").write_text(DEEP)
    capsys.readouterr()
    assert main(["emit-ctrl", "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
    assert "config error: state file scenarios.json is not valid JSON" in capsys.readouterr().err
    assert main(["report", "--rundir", str(rundir)]) == EXIT_CONFIG
    assert "config error: state file scenarios.json is not valid JSON" in capsys.readouterr().err


def _set_assignment_0_a(rec):
    rec["assignment"][0] = "a"


@pytest.mark.parametrize("state, stage, corrupt, message", [
    ("topology.json", "group", lambda rec: rec.pop("n_tiles"), "topology.json lacks key 'n_tiles'"),
    ("topology.json", "group", lambda rec: rec.update(n_tiles="12"),
     "topology.json: 'n_tiles' is \"12\", not an integer"),
    ("placement.json", "group", None, "placement.json is not valid JSON"),
    ("placement.json", "group", _set_assignment_0_a, "placement.json: 'assignment' holds a value"),
    ("scenarios.json", "emit-ctrl", lambda rec: rec.pop("scenarios"), "scenarios.json lacks key 'scenarios'"),
    ("controllers.json", "sim", lambda rec: rec.pop("count"), "controllers.json lacks key 'count'"),
], ids=["no-n_tiles", "n_tiles-string", "placement-not-json", "assignment-string", "no-scenarios", "no-count"])
def test_stage_on_malformed_state_is_config_error(tmp_path, capsys, state, stage, corrupt, message):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    if corrupt is None:
        (rundir / state).write_text("not json\n")
    else:
        rec = json.loads((rundir / state).read_text())
        corrupt(rec)
        (rundir / state).write_text(json.dumps(rec))
    capsys.readouterr()
    assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: state file {message}" in err, err


def _repeat_tile(assignment, n_tiles):
    assignment[1] = assignment[0]


def _tile_past_last(assignment, n_tiles):
    assignment[0] = n_tiles


def _drop_last_cluster(assignment, n_tiles):
    assignment.pop()


@pytest.mark.parametrize("corrupt, message", [
    (_repeat_tile, "placement is not injective"),
    (_tile_past_last, "cluster 0 assigned to tile 12 outside topology"),
    (_drop_last_cluster, "placement does not cover every cluster"),
], ids=["tile-repeated", "tile-past-last", "cluster-missing"])
def test_placement_not_one_tile_per_cluster_is_config_error(tmp_path, capsys, corrupt, message):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    rec = json.loads((rundir / "placement.json").read_text())
    corrupt(rec["assignment"], json.loads((rundir / "topology.json").read_text())["n_tiles"])
    (rundir / "placement.json").write_text(json.dumps(rec))
    capsys.readouterr()
    assert main(["group", "--config", cfg, "--rundir", str(rundir)]) == EXIT_CONFIG
    assert f"config error: state file placement.json: {message}" in capsys.readouterr().err


def test_topology_with_lanes_under_one_bit_is_stage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    rec = json.loads((rundir / "topology.json").read_text())
    rec["lane_width_bits"] = -64
    (rundir / "topology.json").write_text(json.dumps(rec))
    for stage in ("group", "cost"):
        capsys.readouterr()
        assert main([stage, "--config", cfg, "--rundir", str(rundir)]) == EXIT_STAGE
        assert f"stage {stage} failed: need lanes at least 1 bit wide, got -64" in capsys.readouterr().err


def test_cost_prices_the_emitted_controllers(tmp_path):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir), "--set", "controllers.count=2"]) == EXIT_OK
    before = (rundir / "cost_report.json").read_bytes()
    assert json.loads(before)["n_controllers"] == json.loads((rundir / "controllers.json").read_text())["count"] == 2
    assert main(["cost", "--config", cfg, "--rundir", str(rundir), "--set", "controllers.count=1"]) == EXIT_OK
    assert (rundir / "cost_report.json").read_bytes() == before
    (rundir / "scenarios.json").unlink()  # cost reads the controllers, not the scenario set
    assert main(["cost", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    assert (rundir / "cost_report.json").read_bytes() == before


def test_sweep_and_csv_round_trip(tmp_path, capsys):
    rundir = tmp_path / "sweep"
    assert main(["sweep", "--rundir", str(rundir), "--sizes", "10,12",
                 "--densities", "0.15", "--seeds", "0,1"]) == EXIT_OK
    capsys.readouterr()
    csv_file = (rundir / "sweep.csv").read_text()
    assert main(["report", "--rundir", str(rundir), "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == csv_file
    assert csv_file.splitlines()[0] == "n,density,seed,algo,E,scenarios,lower_bound,gap,ctrl_bits,ctrl_frac"


SWEEP_ROW = {"n": 10, "density": 0.15, "seed": 0, "algo": "greedy", "E": 14, "scenarios": 5, "lower_bound": 4,
             "gap": 1, "ctrl_bits": 160, "ctrl_frac": 0.25}


@pytest.mark.parametrize("rows, message", [
    ([1], "state file sweep.json (row 0) is not a JSON object"),
    ([{"n": 3}], "state file sweep.json (row 0) lacks key 'density'"),
    ([{**SWEEP_ROW, "density": "x"}], "state file sweep.json (row 0): 'density' is \"x\", not a number"),
    ([SWEEP_ROW, {**SWEEP_ROW, "ctrl_frac": True}], "state file sweep.json (row 1): 'ctrl_frac' is true, not a number"),
    ([{**SWEEP_ROW, "scenarios": 5.5}], "state file sweep.json (row 0): 'scenarios' is 5.5, not an integer"),
    ([{**SWEEP_ROW, "algo": 1}], "state file sweep.json (row 0): 'algo' is 1, not a string"),
], ids=["row-not-object", "row-without-density", "density-a-string", "ctrl-frac-a-boolean", "scenarios-a-float",
        "algo-a-number"])
def test_report_csv_on_incomplete_sweep_row_is_config_error(tmp_path, capsys, rows, message):
    (tmp_path / "sweep.json").write_text(json.dumps(rows))
    assert main(["report", "--rundir", str(tmp_path), "--format", "csv"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_sweep_unknown_algorithm_is_config_error(tmp_path, capsys):
    rundir = tmp_path / "sweep"
    assert main(["sweep", "--rundir", str(rundir), "--sizes", "10",
                 "--densities", "0.15", "--seeds", "0", "--algorithms", "greedy,bogus"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bogus" in err and "greedy" in err and "iterated" in err
    assert not (rundir / "sweep.csv").exists()
    assert not rundir.exists()


def test_sweep_repeated_algorithm_is_config_error(tmp_path, capsys):
    rundir = tmp_path / "sweep"
    assert main(["sweep", "--rundir", str(rundir), "--sizes", "12", "--densities", "0.2", "--seeds", "0",
                 "--algorithms", "greedy,iterated,greedy"]) == EXIT_CONFIG
    assert "bad sweep parameter --algorithms: greedy (named twice)" in capsys.readouterr().err
    assert not rundir.exists()


@pytest.mark.parametrize("flag, values, named", [("--sizes", "10,12,10", "10"), ("--densities", "0.15,0.150", "0.15"),
                                                ("--seeds", "0,0", "0")])
def test_sweep_repeated_instance_value_is_config_error(tmp_path, capsys, flag, values, named):
    # a repeated value would compute and write every row of its instances twice
    rundir = tmp_path / "sweep"
    args = {"--sizes": "10", "--densities": "0.15", "--seeds": "0", flag: values}
    assert main(["sweep", "--rundir", str(rundir), *(a for kv in args.items() for a in kv)]) == EXIT_CONFIG
    assert f"bad sweep parameter {flag}: {named} (named twice)" in capsys.readouterr().err
    assert not rundir.exists()


@pytest.mark.parametrize("flag, value", [("--sizes", "1"), ("--densities", "2")])
def test_sweep_instance_the_generator_cannot_build_is_config_error(tmp_path, capsys, flag, value):
    rundir = tmp_path / "sweep"
    args = {"--sizes": "10", "--densities": "0.15", "--seeds": "0", flag: value}
    assert main(["sweep", "--rundir", str(rundir), *(a for kv in args.items() for a in kv)]) == EXIT_CONFIG
    assert f"bad sweep parameter {flag}: {value} " in capsys.readouterr().err
    assert not (rundir / "sweep.csv").exists()
    assert not rundir.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    rundir = tmp_path / "sweep"
    assert main(["sweep", "--rundir", str(rundir), "--sizes", "10", "--densities", "0.15",
                 "--seeds", "0", "--jobs", jobs]) == EXIT_CONFIG
    assert f"bad sweep parameter --jobs: {jobs} " in capsys.readouterr().err
    assert not (rundir / "sweep.csv").exists()
    assert not rundir.exists()


def test_unknown_grouping_algorithm_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    for command in ("run", "group"):
        assert main([command, "--config", cfg, "--rundir", str(tmp_path / "run"),
                     "--set", "grouping.algorithm=bogus"]) == EXIT_CONFIG


def test_unknown_config_key_in_file_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, grouping={"algoritm": "greedy"}))
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "'grouping.algoritm'" in capsys.readouterr().err


def test_unknown_config_key_in_override_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run"), "--set", "sim.frame=2"]) == EXIT_CONFIG
    assert "'sim.frame'" in capsys.readouterr().err
    # the generator's seed is the root seed, not a graph key
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run"),
                 "--set", "graph.synthetic.seed=3"]) == EXIT_CONFIG
    assert "unknown config key 'graph.synthetic.seed'" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ('placement.anneal="no"', "placement.anneal"),  # the placement keys are gone: unknown
    ("placement.t0=5", "placement.t0"),
    ('sim.frames="2"', "sim.frames"),
    ('placement.cooling="x"', "placement.cooling"),
    ("sim.trace=1", "sim.trace"),  # booleans are never numbers
    ("seed=true", "seed"),
    ("seed=1.5", "seed"),
    ("topology.n_lanes=true", "topology.n_lanes"),
    ("controllers.count=four", "controllers.count"),
    ("sim.frames=null", "sim.frames"),
    ("grouping.algorithm=3", "grouping.algorithm"),
    ("topology.n_tiles=30.5", "topology.n_tiles"),  # the counts take integers only
    ("topology.n_lanes=2.0", "topology.n_lanes"),
    ("placement.iters=1.5", "placement.iters"),
    ("controllers.count=2.5", "controllers.count"),
    ("sim=3", "sim"),
    ("graph=[]", "graph"),
    ("graph.file=3", "graph.file"),  # the graph subtree has its own keys and types
    ("graph.synthetic=5", "graph.synthetic"),
    ('graph.synthetic.n_clusters="a"', "graph.synthetic.n_clusters"),
    ("graph.synthetic.n_edges=2.5", "graph.synthetic.n_edges"),
    ("graph.synthetic.density=true", "graph.synthetic.density"),
    ("graph.synthetic.density=1.5", "graph.synthetic.density"),
    ("graph.synthetic.sed=4", "graph.synthetic.sed"),
    ('graph.file="g.json"', "graph"),  # besides synthetic
])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run"), "--set", override]) == EXIT_CONFIG
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "run" / "graph.json").exists()


@pytest.mark.parametrize("override, message", [
    ("controllers.count=0", "'controllers.count' has value 0, below its least value 1"),
    ("topology.n_tiles=0", "'topology.n_tiles' has value 0, below its least value 2"),
    ("sim.frames=-1", "'sim.frames' has value -1, below its least value 0"),
    ("topology.lane_width_bits=0", "'topology.lane_width_bits' has value 0, below its least value 1"),
    ("graph.synthetic.n_clusters=1", "'graph.synthetic.n_clusters' has value 1, below its least value 2"),
    ("graph.synthetic.n_edges=-1", "'graph.synthetic.n_edges' has value -1, below its least value 0"),
    ("graph.synthetic.n_edges=5000",
     "'graph.synthetic.n_edges' has value 5000, above the 182 ordered pairs of 14 clusters"),
], ids=["count-0", "n_tiles-0", "frames-minus-1", "lane_width_bits-0", "n_clusters-1", "n_edges-minus-1",
        "n_edges-above-pairs"])
def test_config_count_below_its_least_value_is_config_error(tmp_path, capsys, override, message):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run"), "--set", override]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "graph.json").exists()


def test_controller_count_above_the_column_count_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 12, "n_edges": 30}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir), "--set", "controllers.count=1000"]) == EXIT_CONFIG
    assert "'controllers.count' has value 1000, above the ladder's 6 columns" in capsys.readouterr().err
    assert (rundir / "graph.json").exists() and not (rundir / "topology.json").exists()  # stopped in place


def test_fewer_tiles_than_clusters_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 24, "n_edges": 60}}})
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir), "--set", "topology.n_tiles=10"]) == EXIT_CONFIG
    assert "'topology.n_tiles' has value 10, below the graph's 24 clusters" in capsys.readouterr().err
    assert (rundir / "graph.json").exists() and not (rundir / "topology.json").exists()  # stopped in place


def test_run_directory_with_a_placement_config_is_config_error(tmp_path, capsys):
    # a directory whose config.json still holds the placement subtree needs --config
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["gen", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    saved = json.loads((rundir / "config.json").read_text())
    saved["placement"] = {"anneal": True, "cooling": 0.97, "iters": None, "t0": None}
    (rundir / "config.json").write_text(json.dumps(saved))
    capsys.readouterr()
    assert main(["place", "--rundir", str(rundir)]) == EXIT_CONFIG
    assert "unknown config key 'placement.anneal'" in capsys.readouterr().err
    assert main(["place", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK


def test_config_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = load_config(cfg_path, ["seed=9", "grouping.algorithm=greedy", "sim.frames=5"])
    assert cfg["seed"] == 9
    assert cfg["grouping"]["algorithm"] == "greedy"
    assert cfg["sim"]["frames"] == 5
    # null or a number where the default is null
    cfg = load_config(cfg_path, ["topology.n_lanes=4", "controllers.count=null"])
    assert (cfg["topology"]["n_lanes"], cfg["controllers"]["count"]) == (4, None)


def test_clique_budget_key_is_config_error(tmp_path, capsys):
    # no grouper stops on a configurable time
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--rundir", str(tmp_path / "run"),
                 "--set", "grouping.clique_budget_s=5"]) == EXIT_CONFIG
    assert "'grouping.clique_budget_s'" in capsys.readouterr().err


def test_override_via_cli_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir),
                 "--set", "grouping.algorithm=greedy"]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    assert doc["algorithm"] == "greedy"


def test_sim_trace_log(tmp_path):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, sim={"frames": 2, "trace": True}))
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    trace = (rundir / "trace.log").read_text()
    report = json.loads((rundir / "sim_report.json").read_text())
    recount = sum(
        int(dict(p.split("=", 1) for p in line.split())["active"])
        for line in trace.splitlines()
    )
    assert recount == report["energy"]
    assert len(trace.splitlines()) == report["steps"]


def test_synth40_run_counts(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 1,
        "graph": {"synthetic": {"n_clusters": 40, "n_edges": 160}},
    })
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    paths = json.loads((rundir / "paths.json").read_text())["paths"]
    assert len(paths) == 160
    doc = json.loads((rundir / "scenarios.json").read_text())
    assert len(doc["scenarios"]) >= 7  # at least the published largest degree
    assert doc["gap"] == len(doc["scenarios"]) - doc["lower_bound"] >= 0


def test_empty_edge_graph_runs_clean(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 0,
        "graph": {"synthetic": {"n_clusters": 6, "n_edges": 0}},
    })
    rundir = tmp_path / "run"
    assert main(["run", "--config", cfg, "--rundir", str(rundir)]) == EXIT_OK
    doc = json.loads((rundir / "scenarios.json").read_text())
    assert doc["scenarios"] == []
    sim_report = json.loads((rundir / "sim_report.json").read_text())
    assert sim_report["steps"] == 0 and sim_report["collisions"] == 0


def test_emit_ctrl_with_fewer_controllers_removes_the_extra_programs(tmp_path):
    cfg = write_config(tmp_path, {"seed": 0, "graph": {"synthetic": {"n_clusters": 7, "n_edges": 12}}})
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main(["run", "--config", cfg, "--rundir", str(rerun)]) == EXIT_OK
    assert (rerun / "programs" / "ctrl_001.txt").exists()  # the default is two controllers here
    for stage in ("emit-ctrl", "sim", "cost"):
        assert main([stage, "--config", cfg, "--rundir", str(rerun), "--set", "controllers.count=1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--rundir", str(fresh), "--set", "controllers.count=1"]) == EXIT_OK
    assert read_all_state(rerun) == read_all_state(fresh)


def test_main_calls_in_one_process_parse_independently(tmp_path):
    graph = ["--set", "graph.synthetic.n_clusters=5", "--set", "graph.synthetic.n_edges=6"]
    assert main(["gen", "--rundir", str(tmp_path / "a"), *graph, "--set", "sim.frames=3"]) == EXIT_OK
    assert main(["gen", "--rundir", str(tmp_path / "b"), *graph, "--set", "seed=5"]) == EXIT_OK
    assert main(["gen", "--rundir", str(tmp_path / "c"), "--config", str(tmp_path / "b" / "config.json")]) == EXIT_OK
    configs = {d: json.loads((tmp_path / d / "config.json").read_text()) for d in "abc"}
    assert (configs["a"]["seed"], configs["a"]["sim"]["frames"]) == (0, 3)
    assert (configs["b"]["seed"], configs["b"]["sim"]["frames"]) == (5, 1)
    assert configs["c"] == configs["b"]


def test_run_loads_no_module_beyond_the_cli_import(tmp_path):
    # a run's modules are imported with ladderbus.cli, inside the time a fresh
    # process takes to set up; only argparse's messages load locale later
    code = """
import contextlib, io, sys
import ladderbus.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = ladderbus.cli.main(["run", "--rundir", sys.argv[1],
                               "--set", "graph.synthetic.n_clusters=7", "--set", "graph.synthetic.n_edges=12"])
print(code, *sorted(set(sys.modules) - before))
"""
    src = str(Path(ladderbus.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    code, *loaded = out.stdout.split()
    assert int(code) == EXIT_OK
    assert set(loaded) <= {"locale", "_locale"}
