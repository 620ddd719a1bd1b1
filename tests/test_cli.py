"""End-to-end command line runs against the shipped example files."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lp_reader import read_lp
from pwlmip import approx, cli, pipeline
from pwlmip.cli import build_parser, main
from pwlmip.covering import CoverInstance
from pwlmip.emip import EmipConstraint, EmipModel, Variable, VarKind
from pwlmip.oracle import gen_hard_instances
from pwlmip.voting import ApprovalElection, Voter

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
DOCS_FORMATS = os.path.join(os.path.dirname(__file__), os.pardir, "docs",
                            "formats.md")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# happy paths over the fixtures
# ---------------------------------------------------------------------------


def test_wsm_fixture(capsys):
    code, report, _ = run_json(capsys, "wsm", fx("wsm3.json"), "--minimize-cost")
    assert code == 0
    assert report["status"] == "feasible"
    assert report["chosen"] == [0, 2]
    assert report["cost"] == 3
    assert report["coverage"] == [1, 1]


def test_umm_fixture(capsys):
    code, report, _ = run_json(capsys, "umm", fx("uniformish.json"),
                               "--minimize-cost")
    assert code == 0
    assert report["cost"] == 2
    assert report["chosen"] == [0, 1]
    assert report["coverage"] == [5, 5]


def test_solve_emip_fixture(capsys):
    code, report, _ = run_json(capsys, "solve-emip", fx("knapsackish.json"))
    assert code == 0
    assert report["status"] == "feasible"
    assert report["best"] == 8
    assert report["assignment"] == {"x": "2", "y": "6"}


def test_formats_doc_emip_example_solves(capsys, tmp_path):
    # the first JSON block under the emip-v1 heading of docs/formats.md
    with open(DOCS_FORMATS, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## `emip-v1`"):]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "example.json"
    path.write_text(block)
    code, report, _ = run_json(capsys, "solve-emip", str(path))
    assert code == 0
    assert report["status"] == "feasible"
    # f(x) + c <= 9 with f(4) = 8 and f(5) = 11
    assert report["best"] == 4
    assert report["assignment"]["x"] == "4"


def test_solve_emip_empty_model(capsys):
    code, report, _ = run_json(capsys, "solve-emip", fx("empty.json"))
    assert code == 0
    assert report["status"] == "feasible" and report["assignment"] == {}


def test_ccdv_fixture(capsys):
    code, report, _ = run_json(capsys, "ccdv", fx("ccdv.json"),
                               "--minimize-cost")
    assert code == 0
    assert report["variant"] == "priced" and report["kind"] == "delete"
    assert report["action"] == [1, 2] and report["cost"] == 3


def test_bribery_fixture(capsys):
    code, report, _ = run_json(capsys, "bribery", fx("ccdv.json"))
    assert code == 0
    assert report["action"] == [1] and report["cost"] == 1
    assert report["new_votes"] == [["p"]]


def _ccav_path(tmp_path):
    blob = {
        "format": "election-v1",
        "kind": "approval",
        "candidates": ["p", "a", "b"],
        "voters": [{"approved": ["a"]}, {"approved": ["a"]},
                   {"approved": ["b"]}],
        "pool": [{"approved": ["p", "a"], "price": 2},
                 {"approved": ["p"], "price": 1},
                 {"approved": ["p", "b"], "price": 3}],
        "budget": 4,
    }
    path = tmp_path / "ccav.json"
    path.write_text(json.dumps(blob))
    return str(path)


def test_ccav_round_trip(capsys, tmp_path):
    code, report, _ = run_json(capsys, "ccav", _ccav_path(tmp_path),
                               "--minimize-cost")
    assert code == 0
    assert report["kind"] == "add"
    assert report["action"] == [1, 2] and report["cost"] == 4


def test_scoring_ccdv_fixture(capsys):
    code, report, _ = run_json(capsys, "scoring-ccdv", fx("borda.json"),
                               "--minimize-cost")
    assert code == 0
    assert report["action"] == [0] and report["cost"] == 1

    code, report, _ = run_json(capsys, "scoring-ccdv", fx("borda.json"),
                               "--unique-winner")
    assert code == 0
    assert report["status"] == "infeasible"


def test_mmc_approx_fixture(capsys):
    code, report, _ = run_json(capsys, "mmc-approx", fx("uniformish.json"),
                               "--epsilon", "1/4")
    assert code == 0
    assert report["status"] == "feasible"
    assert report["miss_total"] == "0"
    assert report["miss_bound"] == "7/4"
    assert report["coverage"] == [4, 3]

    code, report, _ = run_json(capsys, "mmc-approx", fx("uniformish.json"),
                               "--epsilon", "1/4", "--dump-decomposition")
    assert code == 0
    deco = report["decomposition"]
    # grid parameters for epsilon=1/4 over a two-element universe
    assert deco["epsilon"] == "1/4" and (deco["Z"], deco["Y"]) == (32, 4128)
    assert len(deco["vectors"]) >= 4  # every input set contributes


def test_infeasible_mmc_approx_reports_its_search(capsys, tmp_path,
                                                  monkeypatch):
    # no single set leaves a total miss within 1/2 of the 7 demanded, and
    # proving it takes one branching
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "format": "cover-v1", "m": 3,
        "sets": [{"1": 4, "2": 2}, {"0": 4, "1": 1}, {"0": 4, "1": 3}],
        "weights": [1, 1, 1], "requirements": [2, 1, 4], "budget": 1,
    }))
    searches = []
    real = approx.minimize_budget

    def spy(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(approx, "minimize_budget", spy)
    code, report, _ = run_json(capsys, "mmc-approx", str(path),
                               "--epsilon", "1/2")
    assert code == 0 and report["status"] == "infeasible"
    (args,) = searches
    direct = pipeline.minimize_budget(*args)
    assert not direct.feasible and direct.stats.nodes > 1
    stats = report["stats"]
    assert (stats["nodes"], stats["lp_calls"], stats["pivots"]) == (
        direct.stats.nodes, direct.stats.lp_calls, direct.stats.pivots)


def test_json_reports_are_byte_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "umm", fx("uniformish.json"),
                             "--minimize-cost", "--json")
        assert code == 0 and err == ""
        runs.append(out)
    assert runs[0] == runs[1]


def test_reports_copy_stats_as_asdict_would(capsys, monkeypatch, tmp_path):
    """Reports copy ``stats`` field by field: one ``--json`` report of each
    solving command is byte-identical to the one ``dataclasses.asdict``
    gives."""
    invocations = (
        ("solve-emip", fx("knapsackish.json")),
        ("wsm", fx("wsm3.json"), "--minimize-cost"),
        ("umm", fx("uniformish.json"), "--minimize-cost"),
        ("mmc-approx", fx("uniformish.json"), "--epsilon", "1/4"),
        ("ccdv", fx("ccdv.json"), "--minimize-cost"),
        ("ccav", _ccav_path(tmp_path), "--minimize-cost"),
        ("bribery", fx("ccdv.json"), "--minimize-cost"),
        ("scoring-ccdv", fx("borda.json"), "--minimize-cost"),
    )
    plain = [run(capsys, *argv, "--json") for argv in invocations]
    monkeypatch.setattr(cli, "_stats_json", dataclasses.asdict)
    deep = [run(capsys, *argv, "--json") for argv in invocations]
    assert plain == deep
    for code, out, _ in plain:
        assert code == 0 and '"rounding_lps": ' in out


def test_human_mode_keeps_wall_time_off_stdout(capsys):
    code, out, err = run(capsys, "wsm", fx("wsm3.json"))
    assert code == 0
    assert out.startswith("command: wsm\nstatus: feasible\n")
    assert "wall time" not in out
    assert "wall time" in err


def test_export_lp_round_trip(capsys, tmp_path):
    target = tmp_path / "model.lp"
    code, report, _ = run_json(capsys, "export-lp", fx("knapsackish.json"),
                               "-o", str(target))
    assert code == 0
    assert report["status"] == "exported"
    # z >= x - rho, the link row and the budget row; z >= 0 is a bound
    assert report["variables"] == 4 and report["rows"] == 3
    text = target.read_text()
    lp = read_lp(text)
    assert lp.names == ["x", "y", "w_c0_x", "z_c0_x_1"]
    assert lp.objective == {0: 1, 1: 1} and lp.sense == "max"

    other = tmp_path / "again.lp"
    code, _, _ = run_json(capsys, "export-lp", fx("knapsackish.json"),
                          "-o", str(other))
    assert code == 0
    assert other.read_text() == text


# ---------------------------------------------------------------------------
# input errors (exit code 2)
# ---------------------------------------------------------------------------


def test_missing_file(capsys):
    code, out, err = run(capsys, "wsm", "no/such/file.json")
    assert code == 2 and out == ""
    assert "error:" in err and "no/such/file.json" in err


def test_ordinal_file_given_to_an_approval_command(capsys):
    code, out, err = run(capsys, "ccdv", fx("borda.json"))
    assert code == 2 and out == ""
    assert err == "error: %s: expected an approval election\n" % fx("borda.json")
    code, report, _ = run_json(capsys, "bribery", fx("borda.json"))
    assert code == 2 and report["status"] == "error"
    assert report["error"].endswith(": expected an approval election")


def test_missing_file_json_report(capsys):
    code, report, err = run_json(capsys, "wsm", "no/such/file.json")
    assert code == 2
    assert report["status"] == "error"
    assert "no/such/file.json" in report["error"]
    assert "error:" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,,}')
    code, out, err = run(capsys, "umm", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


_COVER = {"format": "cover-v1", "m": 2, "requirements": [1, 1], "budget": 1}
_MODEL = {"format": "emip-v1", "variables": [{"name": "x", "upper": "3"}]}


@pytest.mark.parametrize("commands, blob, entry", [
    (["wsm"], dict(_COVER, sets=[[0, 1]]), "set 0"),
    (["wsm"], dict(_COVER, sets={"0": 1}), "sets"),
    (["solve-emip", "export-lp"], dict(_MODEL, constraints=["x <= 2"]),
     "constraint 0"),
    (["solve-emip", "export-lp"],
     dict(_MODEL, constraints=[{"lhs": ["x"], "b": "2"}]), "constraint 0 lhs"),
    (["solve-emip", "export-lp"],
     dict(_MODEL, constraints=[{}, {"rhs": [1]}]), "constraint 1 rhs"),
    (["solve-emip", "export-lp"],
     dict(_MODEL, objective={"sense": "max", "coeffs": ["x"]}),
     "objective coeffs"),
])
def test_malformed_entries_are_input_errors(capsys, tmp_path, commands, blob,
                                            entry):
    """An entry of the wrong JSON type is an input error (exit 2) whose
    report names the file and the entry, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    for command in commands:
        extra = ["-o", str(tmp_path / "bad.lp")] if command == "export-lp" else []
        code, report, err = run_json(capsys, command, str(path), *extra)
        assert code == 2 and report["status"] == "error"
        assert report["error"] == "%s: %s must be a JSON %s" % (
            path, entry, "array" if entry == "sets" else "object"), report
        assert err == "error: %s\n" % report["error"]


def test_wrong_format_for_command(capsys):
    code, _, err = run(capsys, "ccdv", fx("wsm3.json"))
    assert code == 2 and "unsupported election format" in err

    code, _, err = run(capsys, "wsm", fx("ccdv.json"))
    assert code == 2 and "format" in err


def test_mixed_weights_and_prices_rejected(capsys, tmp_path):
    blob = {
        "format": "election-v1",
        "kind": "approval",
        "candidates": ["p", "a"],
        "voters": [{"approved": ["a"], "weight": 2, "price": 3}],
        "budget": 1,
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "ccdv", str(path))
    assert code == 2 and "mixes non-unit weights and non-unit prices" in err


def test_weighted_bribery_rejected(capsys, tmp_path):
    blob = {
        "format": "election-v1",
        "kind": "approval",
        "candidates": ["p", "a"],
        "voters": [{"approved": ["a"], "weight": 2}],
        "budget": 1,
    }
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(blob))
    code, _, err = run(capsys, "bribery", str(path))
    assert code == 2 and "priced voters only" in err


def test_candidate_cap_flag(capsys):
    code, _, err = run(capsys, "scoring-ccdv", fx("borda.json"),
                       "--max-candidates", "2")
    assert code == 2 and "exceed the cap" in err


def test_bad_epsilon(capsys):
    code, _, err = run(capsys, "mmc-approx", fx("uniformish.json"),
                       "--epsilon", "0")
    assert code == 2 and "positive" in err
    code, _, err = run(capsys, "mmc-approx", fx("uniformish.json"),
                       "--epsilon", "nope")
    assert code == 2


def _write_json(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


def test_non_integral_counts_are_input_errors(capsys, tmp_path):
    with open(fx("wsm3.json")) as fh:
        cover = json.load(fh)
    with open(fx("ccdv.json")) as fh:
        election = json.load(fh)
    cover["budget"] = 1.9
    election["voters"][1]["price"] = 0.5
    for command, blob in (("wsm", cover), ("ccdv", election)):
        path = _write_json(tmp_path, command + ".json", blob)
        code, report, err = run_json(capsys, command, path)
        assert code == 2 and report["status"] == "error"
        assert "expected an integer" in report["error"] and "error:" in err



def test_objective_with_an_unknown_variable(capsys, tmp_path):
    with open(fx("knapsackish.json")) as fh:
        blob = json.load(fh)
    blob["objective"]["coeffs"]["y_typo"] = "1"
    path = _write_json(tmp_path, "b.json", blob)
    code, out, err = run(capsys, "solve-emip", path)
    assert code == 2 and out == ""
    assert err == ("error: %s: objective references unknown variable 'y_typo'\n"
                   % path)

def _non_uniform_cover(tmp_path):
    instance = CoverInstance(2, [{0: 1, 1: 2}], [1, 1], 1)
    return _write_json(tmp_path, "non-uniform.json", instance.to_json())


def _concave_left_term(tmp_path):
    with open(fx("knapsackish.json")) as fh:
        blob = json.load(fh)
    blob["constraints"][0]["lhs"]["x"].update(shape="concave",
                                              slopes=["3", "1"])
    return _write_json(tmp_path, "concave.json", blob)


_SOLVER_ERRORS = [
    ("umm", _non_uniform_cover, (), "per-set uniform multiplicities"),
    ("mmc-approx", lambda _: fx("wsm3.json"), ("--epsilon", "1/2"),
     "needs unit weights"),
    ("scoring-ccdv", lambda _: fx("borda.json"), ("--max-candidates", "2"),
     "exceed the cap of 2"),
    ("export-lp", _concave_left_term, ("-o", "{tmp}/out.lp"),
     "must be convex or linear"),
    ("solve-emip", _concave_left_term, (), "must be convex or linear"),
]


@pytest.mark.parametrize("command, make_file, extra, message", _SOLVER_ERRORS,
                         ids=[case[0] for case in _SOLVER_ERRORS])
def test_solver_value_errors_are_input_errors(capsys, tmp_path, command,
                                              make_file, extra, message):
    # the file loads; the solver refuses it
    argv = [command, make_file(tmp_path)]
    argv += [arg.format(tmp=tmp_path) for arg in extra]
    code, report, err = run_json(capsys, *argv)
    assert code == 2
    assert sorted(report) == ["command", "error", "status"]
    assert report["command"] == command and report["status"] == "error"
    assert message in report["error"]
    assert err.startswith("error: ") and message in err
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err
    assert not (tmp_path / "out.lp").exists()


# ---------------------------------------------------------------------------
# resource exhaustion (exit code 3)
# ---------------------------------------------------------------------------


def _parity_model_path(tmp_path):
    model = EmipModel(
        (
            Variable("x", VarKind.INTEGER, 0, 3),
            Variable("y", VarKind.INTEGER, 0, 3),
        ),
        (
            EmipConstraint(lhs={0: 2, 1: 2}, rhs={}, b=7),
            EmipConstraint(lhs={}, rhs={0: 2, 1: 2}, b=-7),
        ),
    )
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(model.to_json()))
    return str(path)


def test_node_limit_flag_exhaustion(capsys, tmp_path):
    path = _parity_model_path(tmp_path)
    code, report, err = run_json(capsys, "solve-emip", path,
                                 "--node-limit", "2")
    assert code == 3
    assert report["status"] == "resource-exhausted"
    assert report["nodes"] == 2 and report["limit"] == 2
    assert "error:" in err

    # under the default budget the same solve completes
    code, out, err = run(capsys, "solve-emip", path)
    assert code == 0  # infeasible, but the solve completes
    assert "status: infeasible" in out


def test_bribery_node_limit_counts_every_gain(capsys, tmp_path):
    # the rivals' gains share one search tree; on the fixture it is a
    # single node, so a limit of one reports the verdict
    code, report, _ = run_json(capsys, "bribery", fx("ccdv.json"),
                               "--minimize-cost", "--node-limit", "1")
    assert code == 0 and report["status"] == "feasible"
    assert report["action"] == [1] and report["cost"] == 1
    assert report["stats"]["nodes"] == 1

    # a tree of three nodes runs out at two: rounding the root already
    # gives the optimum, and its two children prove it
    path = tmp_path / "branching.json"
    path.write_text(json.dumps(ApprovalElection(
        ("p", "c1"), (Voter({"c1"}, price=5), Voter({"c1"}, price=5),
                      Voter({"p"}, price=6)), 5).to_json()))
    code, report, _ = run_json(capsys, "bribery", str(path),
                               "--minimize-cost", "--node-limit", "2")
    assert code == 3
    assert report["status"] == "resource-exhausted"
    assert report["nodes"] == 2 and report["limit"] == 2
    code, report, _ = run_json(capsys, "bribery", str(path),
                               "--minimize-cost", "--node-limit", "3")
    assert code == 0 and report["status"] == "feasible"
    assert report["action"] == [0] and report["cost"] == 5
    assert report["stats"]["nodes"] == 3


# ---------------------------------------------------------------------------
# oracle subcommand (development tool)
# ---------------------------------------------------------------------------


def test_oracle_runs_without_opt_in(capsys, monkeypatch):
    monkeypatch.delenv("PWLMIP_DEV_ORACLE", raising=False)
    code, report, err = run_json(capsys, "oracle", "cover", fx("wsm3.json"))
    assert code == 0 and err == ""
    assert report["status"] == "feasible"


def test_oracle_cover(capsys):
    code, report, _ = run_json(capsys, "oracle", "cover", fx("wsm3.json"))
    assert code == 0
    assert report["status"] == "feasible"
    assert report["cost"] == 3 and report["witness"] == [0, 2]


def test_oracle_manipulate(capsys):
    code, report, _ = run_json(capsys, "oracle", "manipulate", "ccdv",
                               fx("ccdv.json"))
    assert code == 0
    assert report["cost"] == 3 and report["witness"] == [1, 2]


def test_oracle_gen_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "oracle", "gen", "subsetsum-mmc",
                           "--count", "3", "--seed", "5", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["status"] == "generated"
    assert len(report["instances"]) == 3
    assert all(isinstance(e["feasible"], bool) for e in report["instances"])


def test_oracle_max_items_must_be_positive(capsys):
    code, _, err = run(capsys, "oracle", "cover", fx("wsm3.json"),
                       "--max-items", "1", "--json")
    assert code == 2 and "exceeds the cap of 1" in err
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "cover", fx("wsm3.json"), "--max-items", bad,
                  "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err


def test_oracle_gen_count_must_be_positive(capsys):
    for bad in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "gen", "subsetsum-mmc", "--count", bad, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err


# ---------------------------------------------------------------------------
# search counters
# ---------------------------------------------------------------------------


def test_stats_count_probes_and_infeasible_lps(capsys, tmp_path):
    # knapsackish maximizes in one search tree: the root LP's optimum is
    # fractional; rounding it up gives an empty box, rounding it down the
    # incumbent 8, and the root, whose optimum rounds down to 8 as well, is
    # not branched
    code, report, _ = run_json(capsys, "solve-emip", fx("knapsackish.json"))
    assert code == 0
    assert report["stats"] == {"nodes": 1, "lp_calls": 3, "pivots": 7,
                               "probes": 1, "infeasible_lps": 1,
                               "max_depth": 0, "max_tableau": [4, 8],
                               "rounding_lps": 2}

    # a feasibility solve runs no probe; 7 of its 13 LPs prune a node
    code, report, _ = run_json(capsys, "solve-emip",
                               _parity_model_path(tmp_path))
    assert code == 0 and report["status"] == "infeasible"
    assert report["stats"]["probes"] == 0
    assert report["stats"]["infeasible_lps"] == 7
    assert report["stats"]["lp_calls"] == 13
    # it branches six levels deep; every tableau is 2 rows by 5 columns
    assert report["stats"]["max_depth"] == 6
    assert report["stats"]["max_tableau"] == [2, 5]

    # bribery is one covering search, settled at its root
    code, report, _ = run_json(capsys, "bribery", fx("ccdv.json"),
                               "--minimize-cost")
    assert code == 0
    assert report["stats"] == {"nodes": 1, "lp_calls": 1, "pivots": 3,
                               "probes": 1, "infeasible_lps": 0,
                               "max_depth": 0, "max_tableau": [6, 11],
                               "rounding_lps": 0}

    code, out, _ = run(capsys, "solve-emip", fx("knapsackish.json"))
    assert ("nodes: 1  lp calls: 3  pivots: 7  probes: 1  "
            "infeasible lps: 1  rounding lps: 2  max depth: 0  "
            "max tableau: 4x8\n") in out


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_parser_is_built_once_per_process(capsys):
    build_parser.cache_clear()
    for _ in range(3):
        run(capsys, "wsm", fx("wsm3.json"), "--json")
    assert build_parser.cache_info().misses == 1


def test_reused_parser_does_not_leak_flags(capsys, tmp_path):
    argv = ["ccdv", fx("ccdv.json"), "--json"]
    env = dict(os.environ, PYTHONPATH=SRC)
    fresh = subprocess.run([sys.executable, "-m", "pwlmip.cli", *argv],
                           env=env, capture_output=True, text=True,
                           check=True).stdout
    code, flagged, _ = run(capsys, *argv, "--unique-winner",
                           "--minimize-cost", "--node-limit", "2")
    assert code == 0 and flagged != fresh
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == fresh
    # a node limit from one call does not bound the next solve
    path = _parity_model_path(tmp_path)
    code, _, _ = run(capsys, "solve-emip", path, "--node-limit", "2")
    assert code == 3
    code, _, _ = run(capsys, "solve-emip", path)
    assert code == 0


def test_help_and_usage_errors_repeat_exactly(capsys):
    build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        for argv in (["--help"], ["ccdv", "--help"], ["oracle", "gen", "-h"],
                     ["wsm"], ["wsm", fx("wsm3.json"), "--node-limit", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            outputs.append((argv, exc.value.code, captured.out, captured.err))
    assert outputs[:5] == outputs[5:]
    assert [o[1] for o in outputs[:5]] == [0, 0, 0, 2, 2]



def test_max_candidates_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scoring-ccdv", fx("borda.json"), "--max-candidates", "0"])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_node_limit_must_be_positive(capsys):
    for bad in ("-3", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["wsm", fx("wsm3.json"), "--node-limit", bad, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be positive" in captured.err


def test_flags_only_on_the_commands_that_read_them(capsys, tmp_path):
    for argv in (["wsm", fx("wsm3.json"), "--seed", "1"],
                 ["export-lp", fx("knapsackish.json"), "-o",
                  str(tmp_path / "x.lp"), "--node-limit", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.lp").exists()
    code, report, _ = run_json(capsys, "oracle", "gen", "subsetsum-mmc",
                               "--count", "3", "--seed", "5")
    assert code == 0
    pairs = gen_hard_instances("subsetsum-mmc", 3, random.Random(5))
    assert report["instances"] == [
        {"instance": inst.to_json(), "feasible": label} for inst, label in pairs
    ]


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enthrone"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# a closed stdout pipe, exact scalars on the division paths
# ---------------------------------------------------------------------------


def test_closed_stdout_pipe_exits_without_a_traceback():
    """``pwlmip ... --json | head``: the reader is gone before any write."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pwlmip.cli", "mmc-approx",
             fx("uniformish.json"), "--epsilon", "1", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == ""


def _leaves(report):
    if isinstance(report, dict):
        report = list(report.values())
    if isinstance(report, list):
        for item in report:
            yield from _leaves(item)
    else:
        yield report


@pytest.mark.parametrize("epsilon", ["1", "2"])
def test_integral_epsilon_makes_no_floats(capsys, epsilon):
    code, report, _ = run_json(capsys, "mmc-approx", fx("uniformish.json"),
                               "--epsilon", epsilon, "--dump-decomposition")
    assert code == 0 and report["status"] == "feasible"
    assert report["epsilon"] == report["decomposition"]["epsilon"] == epsilon
    leaves = list(_leaves(report))
    assert not [x for x in leaves if isinstance(x, float)]
    assert not [x for x in leaves if isinstance(x, str) and "." in x]


def test_fraction_constructions_stay_few(capsys, tmp_path):
    """Integral data stays int from the loaders to the kernel, so a few
    in-process solves build few Fractions.  Counted deterministically:
    every call of ``Fraction.__new__`` under ``sys.setprofile``.  54 are
    made today, 76 while the decomposition kept every multiplicity as a
    Fraction, 96 while a solve returned every value as a Fraction, 111
    before each emitted vector kept its realized multiset; when every model
    value was a Fraction, 968 were."""
    calls = [
        ["wsm", fx("wsm3.json")],
        ["wsm", fx("wsm3.json"), "--minimize-cost"],
        ["umm", fx("uniformish.json")],
        ["umm", fx("uniformish.json"), "--minimize-cost"],
        ["mmc-approx", fx("uniformish.json"), "--epsilon", "1/4"],
        ["solve-emip", fx("knapsackish.json")],
        ["export-lp", fx("knapsackish.json"), "-o", str(tmp_path / "k.lp")],
    ]
    build_parser()  # built outside the count
    made = 0
    new = Fraction.__new__.__code__

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is new:
            made += 1

    sys.setprofile(count)
    try:
        codes = [main(argv + ["--json"]) for argv in calls]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(calls)
    assert 0 < made <= 111
