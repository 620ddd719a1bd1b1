"""End-to-end command line runs against the shipped example files."""

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
from pwlmip.milp import SolveStats, SolverInternalError
from pwlmip.oracle import gen_hard_instances
from pwlmip.pwl import PwlFunction
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
    # sets 0 and 2 cost 3 as well; the root vertex is this optimum
    assert report["chosen"] == [1]
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
    """Reports copy ``stats`` field by field, as ``dataclasses.asdict``
    copies a flat record: in one ``--json`` report of each solving command,
    ``stats`` holds exactly the ``SolveStats`` counters, keyed in field
    order, each equal to its attribute."""
    fields = ["nodes", "lp_calls", "pivots", "probes", "infeasible_lps",
              "rounding_lps", "max_depth", "max_tableau"]
    assert list(SolveStats._fields) == fields
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
    copies = []
    copy = cli._stats_json

    def spy(stats):
        copies.append((stats, copy(stats)))
        return copies[-1][1]

    monkeypatch.setattr(cli, "_stats_json", spy)
    for argv in invocations:
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        stats, copied = copies[-1]
        assert list(copied) == fields
        assert copied == {name: getattr(stats, name) for name in fields}
        assert report["stats"] == json.loads(json.dumps(copied))
    assert len(copies) == len(invocations)


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
    # z >= x - rho and the budget row, which reads f(x) through x and z
    # itself, since no other row uses f; z >= 0 is a bound
    assert report["variables"] == 3 and report["rows"] == 2
    text = target.read_text()
    lp = read_lp(text)
    assert lp.names == ["x", "y", "z_c0_x_1"]
    assert lp.objective == {0: 1, 1: 1} and lp.sense == "max"

    other = tmp_path / "again.lp"
    code, _, _ = run_json(capsys, "export-lp", fx("knapsackish.json"),
                          "-o", str(other))
    assert code == 0
    assert other.read_text() == text


def test_auxiliaries_never_take_a_source_variable_name(capsys, tmp_path):
    """A source variable named like an auxiliary keeps its name; the
    auxiliary gets ``_`` appended instead of clashing with it.  The term is
    used in two rows, so its block keeps a bound column w."""
    blob = {"format": "emip-v1",
            "variables": [{"name": "x", "upper": "3"},
                          {"name": "w_c0_x", "upper": "3"}],
            "constraints": [{"lhs": {"x": _PWL_TERM, "w_c0_x": "1"}, "b": "4"},
                            {"lhs": {"x": _PWL_TERM}, "b": "5"}],
            "objective": {"sense": "max", "coeffs": {"x": "1", "w_c0_x": "1"}}}
    path = _write_json(tmp_path, "clash.json", blob)
    code, report, _ = run_json(capsys, "solve-emip", path)
    assert code == 0 and report["status"] == "feasible"
    assert report["best"] == 4
    assert sorted(report["assignment"]) == ["w_c0_x", "x"]
    target = tmp_path / "clash.lp"
    code, report, _ = run_json(capsys, "export-lp", path, "-o", str(target))
    assert code == 0 and report["status"] == "exported"
    assert read_lp(target.read_text()).names == ["x", "w_c0_x", "w_c0_x_",
                                                 "z_c0_x_1"]


def test_best_is_exact_over_integer_objective_variables(capsys, tmp_path):
    """Over integer variables the thresholds step by 1/den of the objective,
    so ``best`` is the exact optimum, a rational string when it is not an
    integer; an objective with a continuous variable steps by 1."""
    for kind, lower, best in (("integer", "1", "1/2"),
                              ("continuous", "1/3", 1)):
        blob = {"format": "emip-v1",
                "variables": [{"name": "x", "kind": kind, "lower": lower,
                               "upper": "3"}],
                "constraints": [],
                "objective": {"sense": "min", "coeffs": {"x": "1/2"}}}
        path = _write_json(tmp_path, kind + ".json", blob)
        code, report, _ = run_json(capsys, "solve-emip", path)
        assert code == 0 and report["status"] == "feasible"
        assert report["best"] == best
    code, out, _ = run(capsys, "solve-emip", str(tmp_path / "integer.json"))
    assert code == 0 and "best: 1/2\n" in out


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


def test_unwritable_output_names_the_output_file(capsys, tmp_path):
    target = str(tmp_path / "no" / "such" / "model.lp")
    code, report, err = run_json(capsys, "export-lp", fx("knapsackish.json"),
                                 "-o", target)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == "%s: No such file or directory" % target
    assert err == "error: %s\n" % report["error"]


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


with open(fx("ccdv.json")) as _fh:
    _APPROVAL = json.load(_fh)
with open(fx("borda.json")) as _fh:
    _ORDINAL = json.load(_fh)
with open(fx("knapsackish.json")) as _fh:
    _KNAPSACK = json.load(_fh)
with open(fx("wsm3.json")) as _fh:
    _WSM3 = json.load(_fh)
_PWL_TERM = {"shape": "convex", "breakpoints": [1], "slopes": [1, 2]}


def _voters(blob, first):
    return dict(blob, voters=[first] + blob["voters"][1:])


def _voter(blob, k, **fields):
    """``blob`` with ``fields`` set on voter k."""
    voters = list(blob["voters"])
    voters[k] = dict(voters[k], **fields)
    return dict(blob, voters=voters)


@pytest.mark.parametrize("command, blob, message", [
    ("ccdv", _voters(_APPROVAL, dict(_APPROVAL["voters"][0], approved="pc1")),
     "voter 0 approved must be a JSON array of strings"),
    ("ccdv", _voters(_APPROVAL, dict(_APPROVAL["voters"][0], approved={})),
     "voter 0 approved must be a JSON array of strings"),
    ("ccdv", _voters(_APPROVAL, dict(_APPROVAL["voters"][0], approved=[1])),
     "voter 0 approved must be a JSON array of strings"),
    ("ccdv", _voters(_APPROVAL, {"price": 1}),
     "voter 0 approved must be a JSON array of strings"),
    ("ccdv", _voters(_APPROVAL, ["c1"]), "voter 0 must be a JSON object"),
    ("ccav", dict(_APPROVAL, pool=[{"approved": "p"}]),
     "pool voter 0 approved must be a JSON array of strings"),
    ("ccdv", dict(_APPROVAL, candidates="pc1"),
     "candidates must be a JSON array of strings"),
    ("scoring-ccdv", _voters(_ORDINAL, dict(_ORDINAL["voters"][0],
                                            ranking="".join(_ORDINAL["candidates"]))),
     "voter 0 ranking must be a JSON array of strings"),
    ("scoring-ccdv", _voters(_ORDINAL, "pabc"), "voter 0 must be a JSON object"),
    ("solve-emip", dict(_MODEL, constraints=[
        {"lhs": {"x": dict(_PWL_TERM, breakpoints=3)}, "b": "2"}]),
     "constraint 0 lhs: breakpoints must be a JSON array"),
    ("solve-emip", dict(_MODEL, constraints=[{}, {
        "rhs": {"x": dict(_PWL_TERM, shape="concave", slopes="2")}}]),
     "constraint 1 rhs: slopes must be a JSON array"),
    ("ccdv", _voter(_APPROVAL, 1, price=0.5),
     "voter 1 price: expected an integer, got 0.5"),
    ("ccdv", _voter(_APPROVAL, 2, weight=-1), "voter 2 weight must be nonnegative"),
    ("ccav", dict(_APPROVAL, pool=[{"approved": ["p"]},
                                   {"approved": [], "weight": "x"}]),
     "pool voter 1 weight: expected an integer, got 'x'"),
    ("scoring-ccdv", _voter(_ORDINAL, 1, price="1/2"),
     "voter 1 price: expected an integer, got '1/2'"),
    ("solve-emip", dict(_KNAPSACK, constraints=[
        dict(_KNAPSACK["constraints"][0], b="x")]),
     "constraint 0 b: cannot parse rational from 'x'"),
    ("solve-emip", dict(_KNAPSACK, variables=[
        dict(_KNAPSACK["variables"][0], lower="1/0")] + _KNAPSACK["variables"][1:]),
     "variable 0 lower: cannot parse rational from '1/0'"),
    ("solve-emip", dict(_KNAPSACK, variables=_KNAPSACK["variables"][:1] + [
        dict(_KNAPSACK["variables"][1], kind="real")]),
     "variable 1 kind: 'real' is not a valid VarKind"),
    ("wsm", dict(_WSM3, weights=[1, "1/2", 2]),
     "weights: expected an integer, got '1/2'"),
    ("wsm", dict(_WSM3, requirements=5),
     "requirements must be a JSON array"),
    ("wsm", {k: v for k, v in _WSM3.items() if k != "budget"},
     "budget: expected an integer, got None"),
    ("scoring-ccdv", dict(_ORDINAL, scoring_vector=3),
     "scoring_vector must be a JSON array"),
    ("solve-emip", dict(_KNAPSACK, variables=[
        dict(_KNAPSACK["variables"][0], upper="abc")] + _KNAPSACK["variables"][1:]),
     "variable 0 upper: cannot parse rational from 'abc'"),
    ("wsm", dict(_WSM3, m=1.5), "m: expected an integer, got 1.5"),
])
def test_malformed_fields_name_their_entry(capsys, tmp_path, command, blob,
                                           message):
    """A field of the wrong JSON type is an input error (exit 2) whose
    report names the entry and the field; a string is never read as a
    list of its characters."""
    path = _write_json(tmp_path, "bad.json", blob)
    code, report, err = run_json(capsys, command, path)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == "%s: %s" % (path, message)
    assert err == "error: %s\n" % report["error"]


@pytest.mark.parametrize("command, blob, message", [
    ("solve-emip", dict(_MODEL, variables=[{"name": "x"}, {"name": "y"},
                                           {"name": "x"}]),
     "variable 2: duplicate name 'x'"),
    ("ccdv", dict(_APPROVAL, candidates=["p", "c1", "c1"]),
     "candidate 2: duplicate name 'c1'"),
    ("scoring-ccdv", dict(_ORDINAL, candidates=["p", "p", "a", "b"]),
     "candidate 1: duplicate name 'p'"),
])
def test_duplicate_names_name_the_entry(capsys, tmp_path, command, blob,
                                        message):
    """A repeated variable or candidate name is an input error (exit 2)
    whose report names the repeated entry and its index."""
    path = _write_json(tmp_path, "dup.json", blob)
    code, report, err = run_json(capsys, command, path)
    assert code == 2 and report["status"] == "error"
    assert report["error"] == "%s: %s" % (path, message)
    assert err == "error: %s\n" % report["error"]


def test_wrong_format_for_command(capsys):
    code, _, err = run(capsys, "ccdv", fx("wsm3.json"))
    assert code == 2 and "unsupported election format" in err

    code, _, err = run(capsys, "wsm", fx("ccdv.json"))
    assert code == 2 and "format" in err


def test_bad_epsilon(capsys):
    """A bad ``--epsilon`` is a usage error that names the flag, not the
    input file, as a bad ``--node-limit`` is.  ``-p/q`` is read as the
    flag's value, as ``-3`` is, in both spellings."""
    for flag, message in (
            (["--epsilon", "0"], "must be positive, got 0"),
            (["--epsilon", "nope"], "cannot parse rational"),
            (["--epsilon", "-1/2"], "must be positive, got -1/2"),
            (["--epsilon=-1/2"], "must be positive, got -1/2")):
        with pytest.raises(SystemExit) as exc:
            main(["mmc-approx", fx("uniformish.json"), *flag, "--json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --epsilon: " + message in captured.err
        assert "uniformish.json" not in captured.err


def test_open_bracket_names_its_variable(capsys, tmp_path):
    """An objective variable with no bound on the side the search needs is
    refused by name, though a row bounds it."""
    path = _write_json(tmp_path, "open.json", {
        "format": "emip-v1",
        "variables": [{"name": "x", "kind": "continuous", "upper": None}],
        "constraints": [{"lhs": {"x": "1"}, "rhs": {}, "b": "5/2"}],
        "objective": {"sense": "max", "coeffs": {"x": "1"}}})
    code, out, err = run(capsys, "solve-emip", path)
    assert code == 2 and out == ""
    assert err == ("error: %s: objective variable 'x' has no upper bound; "
                   "the threshold bracket is open\n" % path)


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


def _election(tmp_path, **voter):
    return _write_json(tmp_path, "election.json", {
        "format": "election-v1", "kind": "approval", "candidates": ["p", "a"],
        "voters": [dict(voter, approved=["a"])], "budget": 1})


_SOLVER_ERRORS = [
    ("umm", _non_uniform_cover, (),
     "uniform multiset multicover needs per-set uniform multiplicities"),
    ("mmc-approx", lambda _: fx("wsm3.json"), ("--epsilon", "1/2"),
     "almost_cover needs unit weights"),
    ("scoring-ccdv", lambda _: fx("borda.json"), ("--max-candidates", "2"),
     "3 candidates exceed the cap of 2 for the scoring reduction"),
    ("export-lp", _concave_left_term, ("-o", "{tmp}/out.lp"),
     "constraint 0: left-hand transformation on 'x' must be convex or linear"),
    ("solve-emip", _concave_left_term, (),
     "constraint 0: left-hand transformation on 'x' must be convex or linear"),
    ("ccdv", lambda tmp: _election(tmp, weight=2, price=3), (),
     "election mixes non-unit weights and non-unit prices; "
     "use weights with unit prices or prices with unit weights"),
    ("bribery", lambda tmp: _election(tmp, weight=2), (),
     "bribery supports priced voters only, not weights"),
    ("oracle", lambda _: fx("wsm3.json"), ("--max-items", "2"),
     "exhaustive search over 3 items exceeds the cap of 2"),
]


@pytest.mark.parametrize("command, make_file, extra, message", _SOLVER_ERRORS,
                         ids=[case[0] for case in _SOLVER_ERRORS])
def test_solver_value_errors_are_input_errors(capsys, tmp_path, command,
                                              make_file, extra, message):
    """The file loads and the solver refuses it: exit 2, and the refusal
    reads ``FILE: reason`` like a loader's, in the report and on stderr."""
    path = make_file(tmp_path)
    argv = [command, "cover", path] if command == "oracle" else [command, path]
    argv += [arg.format(tmp=tmp_path) for arg in extra]
    code, report, err = run_json(capsys, *argv)
    assert code == 2
    expected = "oracle cover" if command == "oracle" else command
    assert report == {"command": expected, "status": "error",
                      "error": "%s: %s" % (path, message)}
    assert err == "error: %s\n" % report["error"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == "error: %s\n" % report["error"]
    assert not (tmp_path / "out.lp").exists()


def test_failed_exact_recheck_is_a_bug_not_an_input_error(capsys, monkeypatch):
    """A lifted answer that fails the source model's re-check is a solver
    fault: it leaves ``main`` as SolverInternalError, never as exit 2."""
    monkeypatch.setattr(EmipConstraint, "holds", lambda self, assignment: False)
    with pytest.raises(SolverInternalError, match="source constraint 0"):
        main(["solve-emip", fx("knapsackish.json"), "--json"])
    assert capsys.readouterr().out == ""


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

    # a search of five nodes over two threshold levels runs out at four:
    # rounding the root already gives the optimum, and its two children,
    # searched at the root bound and again one below it, prove it
    path = tmp_path / "branching.json"
    path.write_text(json.dumps(ApprovalElection(
        ("p", "c1"), (Voter({"c1"}, price=5), Voter({"c1"}, price=5),
                      Voter({"p"}, price=6)), 5).to_json()))
    code, report, _ = run_json(capsys, "bribery", str(path),
                               "--minimize-cost", "--node-limit", "4")
    assert code == 3
    assert report["status"] == "resource-exhausted"
    assert report["nodes"] == 4 and report["limit"] == 4
    code, report, _ = run_json(capsys, "bribery", str(path),
                               "--minimize-cost", "--node-limit", "5")
    assert code == 0 and report["status"] == "feasible"
    assert report["action"] == [0] and report["cost"] == 5
    assert report["stats"]["nodes"] == 5 and report["stats"]["probes"] == 2


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
    assert report["stats"] == {"nodes": 1, "lp_calls": 3, "pivots": 4,
                               "probes": 1, "infeasible_lps": 1,
                               "max_depth": 0, "max_tableau": [3, 6],
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

    # bribery is one covering search, settled at its root; the search
    # holds the budget in its threshold row, not in a row of its own
    code, report, _ = run_json(capsys, "bribery", fx("ccdv.json"),
                               "--minimize-cost")
    assert code == 0
    assert report["stats"] == {"nodes": 1, "lp_calls": 1, "pivots": 1,
                               "probes": 1, "infeasible_lps": 0,
                               "max_depth": 0, "max_tableau": [4, 7],
                               "rounding_lps": 0}

    code, out, _ = run(capsys, "solve-emip", fx("knapsackish.json"))
    assert ("nodes: 1  lp calls: 3  pivots: 4  probes: 1  "
            "infeasible lps: 1  rounding lps: 2  max depth: 0  "
            "max tableau: 3x6\n") in out


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


def test_candidate_cap_flag(capsys):
    """``--max-candidates`` moves the cap: 2 refuses the 3-candidate
    election with the file named, 3 lets it solve."""
    code, _, err = run(capsys, "scoring-ccdv", fx("borda.json"),
                       "--max-candidates", "2")
    assert code == 2
    assert err == ("error: %s: 3 candidates exceed the cap of 2 for the "
                   "scoring reduction\n" % fx("borda.json"))
    code, report, _ = run_json(capsys, "scoring-ccdv", fx("borda.json"),
                               "--max-candidates", "3")
    assert code == 0 and report["status"] == "feasible"


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


def _calls_made(code, capsys, tmp_path):
    """How often ``code`` runs, counted under ``sys.setprofile``, over seven
    in-process solves and exports of the fixtures."""
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

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is code:
            made += 1

    sys.setprofile(count)
    try:
        codes = [main(argv + ["--json"]) for argv in calls]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(calls)
    return made


def test_fraction_constructions_stay_few(capsys, tmp_path):
    """Integral data stays int from the loaders to the kernel, so a few
    in-process solves build few Fractions.  Counted deterministically:
    every call of ``Fraction.__new__`` under ``sys.setprofile``.  57 are
    made today, 76 while the decomposition kept every multiplicity as a
    Fraction, 96 while a solve returned every value as a Fraction, 111
    before each emitted vector kept its realized multiset; when every model
    value was a Fraction, 968 were."""
    made = _calls_made(Fraction.__new__.__code__, capsys, tmp_path)
    assert 0 < made <= 111


def test_pwl_function_constructions_stay_few(capsys, tmp_path):
    """A linear term is its coefficient from the model to its row, so only
    terms with a breakpoint build a ``PwlFunction``.  Counted
    deterministically: every call of ``PwlFunction.__init__`` under
    ``sys.setprofile``.  6 are made today, all by the covering and
    almost-cover builders for types whose members differ in value, and by
    the JSON reader; 18 were while a type of one member or of equal values
    built a one-piece function for its constraint to turn into a slope, and
    41 while every linear term was carried as one."""
    made = _calls_made(PwlFunction.__init__.__code__, capsys, tmp_path)
    assert 0 < made <= 6
