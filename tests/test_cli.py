"""CLI envelope, exit codes, reproducibility, file outputs."""

import copy
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import wctree
from wctree import trees
from wctree.cli import build_parser, main, parse_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_predicate_envelope_shape(capsys):
    env = run_json(capsys, "predicate", "--space", "l2", "--set", "unit-vector-family",
                   "--node", "0,1", "--eps", "3/5", "--bigm", "2")
    assert env["schema"] == "wctree-report/1"
    assert env["command"] == "predicate"
    assert len(env["config_hash"]) == 64
    assert env["payload"]["domination"]["kind"] == "holds"
    assert env["payload"]["schauder"]["verdict"]["kind"] == "holds"


def test_reports_are_reproducible(capsys):
    argv = ("wf-scan", "--space", "l2", "--set", "unit-vector-family",
            "--eps", "3/5", "--bigm", "2", "--depth", "3", "--index-bound", "6")
    first = run_json(capsys, *argv)
    second = run_json(capsys, *argv)
    assert first["config_hash"] == second["config_hash"]
    assert first["payload"] == second["payload"]


def test_config_hash_tracks_inputs(capsys):
    base = ("wf-scan", "--space", "l2", "--set", "unit-vector-family",
            "--eps", "3/5", "--bigm", "2", "--depth", "3", "--index-bound", "6")
    a = run_json(capsys, *base)
    b = run_json(capsys, *base, "--seed", "7")
    assert a["config_hash"] != b["config_hash"]


def test_config_hash_is_the_sha256_of_the_canonical_config(capsys):
    env = run_json(capsys, "wf-scan", "--space", "lp:3/2", "--set", "unit-vector-family",
                   "--eps", "3/5", "--bigm", "2", "--depth", "2", "--index-bound", "3")
    canonical = json.dumps(env["config"], sort_keys=True, separators=(",", ":"))
    assert env["config_hash"] == hashlib.sha256(canonical.encode()).hexdigest()


def test_text_format(capsys):
    code, out = run(capsys, "poset-demo", "--format", "text")
    assert code == 0
    assert "maximal = peak" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    run_json(capsys, "predicate", "--space", "l1", "--set", "unit-vector-hull",
             "--node", "0", "--eps", "1", "--bigm", "1", "--out", str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk["schema"] == "wctree-report/1"


UNWRITABLE_MODEL = ["--space", "l2", "--set", "unit-vector-family", "--eps", "3/5",
                    "--bigm", "2"]


def test_unwritable_out_file_exits_2_without_a_traceback(tmp_path, capsys):
    """A report file that cannot be opened is a usage error, not a crash."""
    path = tmp_path / "missing" / "x.json"
    assert main(["predicate", *UNWRITABLE_MODEL, "--node", "0", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and str(path) in err


def test_unwritable_out_dot_file_exits_2_without_a_traceback(tmp_path, capsys):
    """So is a DOT file that cannot be opened; no report is printed."""
    path = tmp_path / "missing" / "x.dot"
    assert main(["export-dot", *UNWRITABLE_MODEL, "--depth", "2", "--index-bound", "3",
                 "--out-dot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out-dot: ") and str(path) in captured.err
    assert captured.out == ""


def test_export_dot_writes_file(tmp_path, capsys):
    path = tmp_path / "tree.dot"
    env = run_json(capsys, "export-dot", "--space", "l2", "--set",
                   "unit-vector-family", "--eps", "3/5", "--bigm", "2",
                   "--depth", "2", "--index-bound", "3", "--out-dot", str(path))
    text = path.read_text()
    assert text.startswith("digraph")
    assert "#c62828" in text  # at least one failing node is colored
    assert env["payload"]["nodes"] > 0


def test_branch_hunt_reports_generator(capsys):
    env = run_json(capsys, "branch-hunt", "--space", "l1", "--set",
                   "unit-vector-hull", "--eps", "1", "--bigm", "1",
                   "--depth", "3", "--index-bound", "12")
    payload = env["payload"]
    assert payload["found"] and payload["revalidated"]
    assert payload["generator"] == ["affine", 4, 0]


def test_branch_hunt_revalidates_on_a_fresh_tree(capsys, monkeypatch):
    """Every prefix is decided again, not read back from the search's cache."""
    from wctree import predicates
    dominating = predicates.is_eps_dominating
    validate = trees.validate_certificate
    calls = []

    def counting_dominating(*args, **kwargs):
        calls.append(args)
        return dominating(*args, **kwargs)

    def counting_validate(tree, cert):
        before = len(calls)
        ok = validate(tree, cert)
        calls.append(("revalidation decided", len(calls) - before))
        return ok

    monkeypatch.setattr(predicates, "is_eps_dominating", counting_dominating)
    monkeypatch.setattr(trees, "validate_certificate", counting_validate)
    env = run_json(capsys, "branch-hunt", "--space", "l1", "--set",
                   "unit-vector-hull", "--eps", "1", "--bigm", "1",
                   "--depth", "3", "--index-bound", "12")
    assert env["payload"]["revalidated"] is True
    assert calls[-1] == ("revalidation decided", 3)  # one per prefix


def test_failing_witnesses_render_as_json(capsys):
    """A failing node ships its witness: the minimizing simplex combination
    for domination, the escaping prefix for the prefix bound."""
    domination = run_json(capsys, "predicate", "--space", "l2", "--set", "unit-vector-family",
                          "--node", "0,1,2,3,4", "--eps", "3/5",
                          "--bigm", "2")["payload"]["domination"]
    assert domination["kind"] == "fails"
    assert domination["witness"] == {
        "type": "simplex-combination",
        "weights": ["1/5"] * 5,
        "combo": [[i, "1/5"] for i in range(5)],
        "norm": {"value": 0.4472135954999579, "error": 4.472135954999642e-16,
                 "lo": "553623615982174094675317863/1237940039285380274899124224",
                 "hi": "35431911422859142059220343233/79228162514264337593543950336",
                 "exact": None},
    }
    schauder = run_json(capsys, "predicate", "--space", "l2", "--set", "summing-hull",
                        "--node", "0,4", "--eps", "1/2", "--bigm", "1")["payload"]["schauder"]
    assert schauder["method"] == "exact-gram"
    assert schauder["verdict"]["kind"] == "fails"
    assert schauder["verdict"]["witness"] == {
        "type": "prefix-escape",
        "prefix": 1,
        "coefficients": ["1", "-1/2"],
        "prefix_norm": {"value": 1.0, "error": 1e-15, "lo": "1", "hi": "1", "exact": None},
        "full_norm": {"value": 0.7071067811865476, "error": 7.071067811865539e-16,
                      "lo": "56022770974786139918731938227/79228162514264337593543950336",
                      "hi": "14005692743696534979682984557/19807040628566084398385987584",
                      "exact": None},
    }


def test_analyze_tree_stacked_end_to_end(capsys):
    argv = ("analyze-tree", "--stacked", "--space", "l2", "--set", "summing-hull",
            "--eps", "1/2", "--bigm", "3", "--depth", "2", "--index-bound", "4")
    first = run_json(capsys, *argv)
    payload = first["payload"]
    assert payload["tree"] == {"stacked": True}
    assert "rank_within_bounds" not in payload
    assert [(level["depth"], level["holds"]) for level in payload["levels"]] == \
        [(1, 4), (2, 16)]
    second = run_json(capsys, *argv)
    del first["timing_ms"], second["timing_ms"]
    assert first == second


def test_set_model_from_json_file(tmp_path, capsys):
    spec_file = tmp_path / "model.json"
    spec_file.write_text(json.dumps({
        "kind": "explicit-list",
        "space": {"kind": "lp", "p": "2"},
        "params": {"points": [[[0, "1"]], [[1, "1"]]]},
    }))
    env = run_json(capsys, "predicate", "--space", "l2", "--set",
                   f"@{spec_file}", "--node", "0,1", "--eps", "1/2", "--bigm", "2")
    assert env["payload"]["domination"]["kind"] == "holds"


def test_usage_errors_exit_2(capsys):
    assert main(["predicate", "--space", "l9", "--set", "unit-vector-hull",
                 "--node", "0", "--eps", "1", "--bigm", "1"]) == 2
    assert main(["predicate", "--space", "l1", "--set", "unit-vector-hull",
                 "--node", "0,x", "--eps", "1", "--bigm", "1"]) == 2
    assert main(["predicate", "--space", "l1", "--set", "no-such-model",
                 "--node", "0", "--eps", "1", "--bigm", "1"]) == 2
    capsys.readouterr()
    # a negative position, and an exponent below 1, which no document holds
    for point in ("--start=-1:1", "--point=-2:1"):
        assert main(["fixed-point", "--space", "l2", "--map", "shift", "--steps", "3",
                     point]) == 2
        assert capsys.readouterr().err == "error: --start/--point: positions are naturals\n"
    assert main(["predicate", "--space", "lp:1/2", "--set", "unit-vector-hull",
                 "--node", "0", "--eps", "1", "--bigm", "1"]) == 2
    assert capsys.readouterr().err == "error: --space: lp spaces need rational p >= 1\n"


COMMANDS = ["predicate", "wf-scan", "branch-hunt", "analyze-tree", "fixed-point",
            "poset-demo", "export-dot"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["wf-scn", "--depth", "3"],
                                  *([cmd, "--help"] for cmd in COMMANDS)],
                         ids=lambda argv: " ".join(argv))
def test_parser_built_for_one_command_prints_what_a_full_build_prints(capsys, argv):
    """`main` builds the arguments of the command that argv names alone;
    help, the version and an unknown command's error read as from a full
    build, byte for byte."""
    printed = []
    for built in (build_parser(argv), build_parser()):
        with pytest.raises(SystemExit) as exit_:
            built.parse_args(argv)
        printed.append((exit_.value.code, capsys.readouterr()))
    assert printed[0] == printed[1] and printed[0][1].out + printed[0][1].err


def test_parser_for_one_command_gives_the_others_no_arguments(capsys):
    parser = build_parser(["wf-scan"])
    args = parser.parse_args(["wf-scan", "--space", "l1", "--set", "dense-space"])
    assert (args.depth, args.seed, args.format) == (4, 0, "json")
    with pytest.raises(SystemExit):
        parser.parse_args(["predicate", "--space", "l1", "--set", "dense-space", "--node", "0"])
    assert "unrecognized arguments: --space l1 --set dense-space --node 0" in \
        capsys.readouterr().err


def test_unreadable_set_file_exits_2(tmp_path, capsys):
    """A set file that is not JSON, or whose explicit-list `params` is not an
    object or whose `points` is not a list or is empty, or has a point whose
    position is not a JSON integer at least 0 (a float, a boolean, a string),
    or whose `space` is not a space, is a usage error at its pointer in the
    file."""
    space = {"kind": "lp", "p": "1"}
    cases = {
        "{not json": "invalid JSON",
        json.dumps({"kind": "explicit-list", "space": space, "params": [[0, "1"]]}):
            "--set: /params: ",
        json.dumps({"kind": "explicit-list", "space": space, "params": {"points": 3}}):
            "--set: /params/points: ",
        json.dumps({"kind": "explicit-list", "space": space, "params": {"points": []}}):
            "--set: /params/points: explicit-list needs at least one point",
        **{json.dumps({"kind": "explicit-list", "space": space,
                       "params": {"points": [[[0, "1"]], [[at, "1"]]]}}):
           f"--set: /params/points/1: bad vector payload: position {at!r} is not an integer"
           for at in (1.7, 1.0, True, False, "1")},
        json.dumps({"kind": "explicit-list", "space": space,
                    "params": {"points": [[[-1, "1"]]]}}):
            "--set: /params/points/0: bad vector payload: positions are naturals",
        **{json.dumps({"kind": "explicit-list", "space": bad_space,
                       "params": {"points": [[[0, "1"]]]}}): f"--set: {message}"
           for bad_space, message in (
               ({"kind": "lp", "p": "1/2"}, "/space/p: lp spaces need rational p >= 1"),
               ({"kind": "lq"}, "/space/kind: unknown space kind 'lq'"),
               (["lp", "1"], "/space: space must be an object"))},
    }
    for n, (text, message) in enumerate(cases.items()):
        bad = tmp_path / f"bad{n}.json"
        bad.write_text(text)
        assert main(["predicate", "--space", "l1", "--set", f"@{bad}",
                     "--node", "0", "--eps", "1", "--bigm", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err, err


def test_set_file_params_of_a_built_in_kind_must_be_absent_or_empty(tmp_path, capsys):
    """Only explicit-list reads `params`: a built-in kind takes it absent,
    null or `{}`, and any other value is a usage error at `/params`."""
    space = {"kind": "lp", "p": "1"}
    for n, params in enumerate([[1, 2], {"points": []}, 0, [], "x", None, {}, ...]):
        data = {"kind": "unit-vector-hull", "space": space}
        if params is not ...:
            data["params"] = params
        path = tmp_path / f"set{n}.json"
        path.write_text(json.dumps(data))
        code = main(["predicate", "--space", "l1", "--set", f"@{path}",
                     "--node", "0", "--eps", "1", "--bigm", "1"])
        err = capsys.readouterr().err
        if params in (None, {}, ...):
            assert code == 0 and err == "", (params, err)
        else:
            assert code == 2 and err.startswith(
                "error: --set: /params: unit-vector-hull takes no parameters"), (params, err)


def test_set_file_space_must_be_the_space_option(tmp_path, capsys):
    """--space alone sets a command's norm: a set file that declares another
    (kind and exponent compared, not its id) is a usage error at `/space`,
    for the tree commands, `predicate` and the domain of `fixed-point`."""
    def set_file(name, space):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "explicit-list", "space": space,
                                    "params": {"points": [[[0, "1"]], [[1, "1"]]]}}))
        return f"@{path}"

    l2_file = set_file("l2", {"kind": "lp", "p": "2"})
    c0_file = set_file("c0", {"kind": "c0"})

    def commands(space, path):
        model = ["--space", space, "--set", path, "--eps", "4/5", "--bigm", "2"]
        return [["predicate", *model, "--node", "0,1"],
                ["wf-scan", *model, "--depth", "2", "--index-bound", "2"],
                ["fixed-point", "--space", space, "--set", path, "--map", "shift",
                 "--steps", "3"]]

    for space, path in (("l1", l2_file), ("lp:3", l2_file), ("c0", l2_file),
                        ("l2", c0_file)):
        for argv in commands(space, path):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == f"error: --set: /space: the set file's space is not --space " \
                          f"{parse_space(space).ident}\n", (argv, err)
    for space, path in (("l2", l2_file), ("lp:2", l2_file), ("sup", c0_file)):
        for argv in commands(space, path):
            assert main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv


def test_semantic_errors_exit_1(capsys):
    assert main(["wf-scan", "--space", "l1", "--set", "unit-vector-hull",
                 "--eps", "2", "--bigm", "1", "--depth", "2",
                 "--index-bound", "4"]) == 1
    assert main(["poset-demo", "--elements", "a,b", "--covers", "a<c"]) == 1
    capsys.readouterr()
    for bigm in ("0", "-1"):
        assert main(["predicate", "--space", "l1", "--set", "unit-vector-family",
                     "--node", "0,1", "--bigm", bigm]) == 1
        assert capsys.readouterr().err == "error: /M: the prefix bound must be positive\n"
    assert main(["fixed-point", "--space", "l2", "--map", "shift", "--saturate",
                 "--start", "0:1", "--max-points", "-1"]) == 1
    assert capsys.readouterr().err == "error: /max-points: point budget must be nonnegative\n"


def test_report_to_a_closed_pipe_exits_1_without_a_traceback():
    """A reader that has gone, as in `wctree ... | head -c 300`, ends the
    command with exit 1 and nothing on stderr, whether the report fails while
    it is printed (a long one) or at the flush after it (a short one)."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["fixed-point", "--space", "l2", "--map", "shift", "--steps", "20",
                  "--set", "unit-vector-hull"],
                 ["poset-demo", "--elements", "x"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "wctree.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": path}, check=False)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b""), argv


def test_tol_is_parsed_once_and_must_be_nonnegative(capsys):
    for command in (["predicate", "--node", "0,1"],
                    ["wf-scan", "--depth", "2", "--index-bound", "4"],
                    ["analyze-tree", "--stacked", "--depth", "2", "--index-bound", "4"]):
        assert main([*command, "--space", "l1", "--set", "unit-vector-hull",
                     "--tol", "abc"]) == 2
    # a negative band certified a zero vector here, and the scan then crashed
    assert main(["wf-scan", "--space", "lp:3", "--set", "hilbert-cube", "--eps", "1/3",
                 "--bigm", "2", "--depth", "3", "--index-bound", "8", "--tol", "-1"]) == 1
    assert "/tol" in capsys.readouterr().err


def test_traversal_bounds_below_one_exit_1(capsys):
    model = ["--space", "l1", "--set", "unit-vector-hull", "--eps", "1", "--bigm", "1"]
    assert main(["analyze-tree", *model, "--depth", "0"]) == 1
    assert "/depth" in capsys.readouterr().err
    assert main(["export-dot", *model, "--depth", "-1", "--index-bound", "0"]) == 1
    assert "/depth" in capsys.readouterr().err
    assert main(["branch-hunt", *model, "--depth", "2", "--index-bound", "0"]) == 1
    assert "/index-bound" in capsys.readouterr().err
    # a negative budget is refused; a zero one evaluates nothing and says so
    assert main(["wf-scan", *model, "--depth", "2", "--node-budget", "-1"]) == 1
    assert "/node-budget" in capsys.readouterr().err
    payload = run_json(capsys, "wf-scan", *model, "--depth", "2",
                       "--node-budget", "0")["payload"]
    assert payload["stats"]["evaluated"] == 0 and payload["stats"]["exhausted"]
    # a negative characteristic count is refused as a negative budget is
    assert main(["analyze-tree", *model, "--depth", "2", "--index-bound", "2",
                 "--char-count", "-3"]) == 1
    assert "/char-count" in capsys.readouterr().err


def _count_member_calls(monkeypatch) -> list[tuple[int, ...]]:
    """Patch WcTree.member to log every call's node; return the log."""
    calls = []
    member = trees.WcTree.member

    def counting_member(tree, node):
        calls.append(tuple(node))
        return member(tree, node)

    monkeypatch.setattr(trees.WcTree, "member", counting_member)
    return calls


SUMMING_ANALYZE = ["analyze-tree", "--space", "l2", "--set", "summing-hull", "--eps", "1/2",
                   "--bigm", "3", "--depth", "3", "--index-bound", "12"]


def test_analyze_tree_spends_one_node_budget(capsys, monkeypatch):
    """Levels, rank and characteristic bits draw on the one --node-budget."""
    calls = _count_member_calls(monkeypatch)
    payload = run_json(capsys, *SUMMING_ANALYZE, "--node-budget", "50")["payload"]
    assert len(set(calls) - {()}) <= 50
    assert payload["budget_exhausted"]
    # the rank of the levels that were evaluated, which a cut leaves incomplete
    assert payload["rank_within_bounds"] == {"value": 2, "complete": False}
    # the levels spent the whole budget, so every characteristic node stays open
    assert payload["characteristic"]["open"] == list(range(32))


def test_analyze_tree_charges_each_node_once(capsys, monkeypatch):
    """The levels and the rank come from one pass, so a budget that covers
    the levels leaves the characteristic nodes theirs."""
    calls = _count_member_calls(monkeypatch)
    payload = run_json(capsys, *SUMMING_ANALYZE, "--node-budget", "1000")["payload"]
    assert len(calls) == sum(sum(level[kind] for kind in ("holds", "fails", "inconclusive"))
                             for level in payload["levels"]) + 32
    assert not payload["budget_exhausted"]
    assert payload["characteristic"]["open"] == []


def test_analyze_tree_evaluates_each_level_node_once(capsys, monkeypatch):
    """On the benchmark's seed-5 analyze-tree command, member is called once
    per level node and once per characteristic node: 852 + 32."""
    calls = _count_member_calls(monkeypatch)
    payload = run_json(capsys, "analyze-tree", "--space", "l2", "--set", "summing-hull",
                       "--eps", "3/4", "--bigm", "3", "--depth", "3",
                       "--index-bound", "12", "--seed", "5")["payload"]
    assert not payload["budget_exhausted"]
    assert len(calls) == 884


# one command per benchmark workload, at the workload's seed-1 parameters
BENCHMARK_COMMANDS = [
    "branch-hunt --space l1 --set unit-vector-hull --eps 1/2 --bigm 1 --depth 8"
    " --index-bound 32 --beam-width 4 --seed 1",
    "branch-hunt --space l2 --set unit-vector-family --eps 13/50 --bigm 1 --depth 8"
    " --index-bound 8 --beam-width 4 --seed 1",
    "analyze-tree --space l2 --set summing-hull --eps 15/16 --bigm 3 --depth 3"
    " --index-bound 12 --seed 1",
    "wf-scan --space lp:3/2 --set unit-vector-family --eps 61/100 --bigm 2 --depth 5"
    " --index-bound 5 --seed 1",
]


def _module_containers() -> dict:
    """A copy of every module-level dict, list and set in the wctree package."""
    return {
        f"{name}.{attr}": copy.copy(value)
        for name, module in list(sys.modules.items())
        if name == "wctree" or name.startswith("wctree.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_commands_leave_no_state_behind(capsys):
    """Each command's work lives in its own tree: repeating the benchmark
    commands in one process repeats their payloads and changes no module state."""
    before = _module_containers()
    runs = []
    for _ in range(2):
        envelopes = [run_json(capsys, *command.split()) for command in BENCHMARK_COMMANDS]
        for env in envelopes:
            del env["timing_ms"]
        runs.append(envelopes)
    assert runs[0] == runs[1]
    assert _module_containers() == before


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_benchmark_commands_report_at_exit_what_main_returns_in_process(
        tmp_path, capsys, flags):
    """Run as processes of their own, whose exit no longer scans the heap
    that `main` froze, the benchmark commands exit 0, and both their
    standard output and their --out file carry the envelope that `main`
    prints in-process, timing aside."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    for command in BENCHMARK_COMMANDS:
        want = run_json(capsys, *command.split())
        del want["timing_ms"]
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "wctree.cli", *command.split(), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            check=False)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        for got in (json.loads(proc.stdout), json.loads(out.read_text(encoding="utf-8"))):
            del got["timing_ms"]
            assert got == want, command


def test_main_freezes_the_heap_once_and_the_commands_trees_stay_collectable(
        capsys, monkeypatch):
    """`main` freezes the heap on its first call in a process and never
    again; the trees a command builds come after the freeze, so the cycle
    collector still frees them once `main` has returned."""
    built = []
    real = trees.WcTree

    def build(*args, **kwargs):
        tree = real(*args, **kwargs)
        built.append(weakref.ref(tree))
        return tree

    monkeypatch.setattr(trees, "WcTree", build)
    command = BENCHMARK_COMMANDS[1].split()
    run_json(capsys, *command)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    run_json(capsys, *command)
    assert gc.get_freeze_count() == frozen
    gc.collect()
    assert len(built) == 4 and all(ref() is None for ref in built)


def test_cover_syntax_error_exits_2(capsys):
    assert main(["poset-demo", "--elements", "a,b", "--covers", "a-b"]) == 2
    capsys.readouterr()


def test_fixed_point_command_reports_checks(capsys):
    env = run_json(capsys, "fixed-point", "--space", "l2", "--map", "shift",
                   "--steps", "100", "--set", "unit-ball")
    checks = env["payload"]["checks"]
    assert checks["residual_monotone"] is True
    assert checks["domain_ok"] is True
    assert env["payload"]["nonexpansive_spot_check"]["certified_violations"] == 0


def test_saturation_mode(capsys):
    env = run_json(capsys, "fixed-point", "--space", "l2", "--map", "constant",
                   "--point", "0:1", "--saturate", "--start", "3:1/2")
    sat = env["payload"]["saturation"]
    assert sat["closed"] and sat["points"] == 2


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_cli_import_leaves_numpy_dataclasses_and_inspect_unloaded(flags):
    """Start-up imports only what every command needs: only fixed-point uses
    numpy, no record is a dataclass, whose import pulls in inspect, and the
    config hash takes the builtin sha256 where there is one, not hashlib's
    OpenSSL bindings."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    unwanted = {"numpy", "dataclasses", "inspect"}
    if importlib.util.find_spec("_sha256") is not None:
        unwanted.add("_hashlib")
    check = f"import sys, wctree.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, *flags, "-c", check],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_fixedpoint_unloaded_and_every_name_resolves():
    """Only fixed-point and poset-demo use `fixedpoint`, so `import wctree.cli`
    leaves it unloaded; the package still resolves every name of `__all__`,
    loading it on first use of one of its names."""
    src = str(Path(wctree.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = ("import sys, wctree.cli; loaded = 'wctree.fixedpoint' in sys.modules; "
             "missing = [n for n in wctree.__all__ if not hasattr(wctree, n)]; "
             "fp = sys.modules['wctree.fixedpoint']; "
             "print(loaded, missing, wctree.MAP_REGISTRY is fp.MAP_REGISTRY)")
    out = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False [] True"
