"""Election manipulation solvers against worked examples and the oracle."""

import random

import pytest

from generators import random_approval, random_ordinal
from pwlmip import voting
from pwlmip.milp import ResourceExhausted
from pwlmip.oracle import brute_manipulate
from pwlmip.voting import (
    ApprovalElection,
    OrdinalElection,
    OrdinalVoter,
    Voter,
    approval_score,
    load_election,
    solve_bribery_priced,
    solve_ccav_priced,
    solve_ccav_weighted,
    solve_ccdv_priced,
    solve_ccdv_weighted,
    solve_scoring_ccdv,
)


def _priced_ccdv_election(budget=3):
    return ApprovalElection(
        ("p", "c1"),
        (
            Voter({"p"}),
            Voter({"c1"}, price=1),
            Voter({"c1"}, price=2),
            Voter({"c1"}, price=5),
        ),
        budget,
    )


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


def test_validation_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        Voter({"p"}, weight=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        Voter({"p"}, price=-2)
    with pytest.raises(ValueError, match="at least one candidate"):
        ApprovalElection((), (), 0)
    with pytest.raises(ValueError, match="candidate 1: duplicate name 'p'"):
        ApprovalElection(("p", "p"), (), 0)
    with pytest.raises(ValueError, match="unknown candidate"):
        ApprovalElection(("p",), (Voter({"q"}),), 0)
    with pytest.raises(ValueError, match="unknown candidate"):
        ApprovalElection(("p",), (), 0, pool=(Voter({"q"}),))
    with pytest.raises(ValueError, match="permutation"):
        OrdinalElection(("p", "a"), (OrdinalVoter(("p", "p")),), (1, 0), 0)
    with pytest.raises(ValueError, match="one entry per candidate"):
        OrdinalElection(("p", "a"), (), (1, 0, 0), 0)
    with pytest.raises(ValueError, match="nonincreasing"):
        OrdinalElection(("p", "a"), (), (0, 1), 0)
    with pytest.raises(ValueError, match="nonnegative"):
        ApprovalElection(("p",), (), -1)


def test_elections_refuse_non_integral_counts():
    approval = _priced_ccdv_election().to_json()
    voters = approval["voters"]
    for blob in (dict(approval, budget=1.9), dict(approval, budget=True),
                 dict(approval, voters=[dict(voters[0], price=0.5)] + voters[1:]),
                 dict(approval, voters=[dict(voters[0], weight="3/2")] + voters[1:])):
        with pytest.raises(ValueError, match="expected an integer"):
            load_election(blob)
    ordinal = OrdinalElection(("p", "a"), (OrdinalVoter(("a", "p")),),
                              (1, 0), 1).to_json()
    for blob in (dict(ordinal, scoring_vector=[1.5, 0]),
                 dict(ordinal, scoring_vector=[True, 0])):
        with pytest.raises(ValueError, match="expected an integer"):
            load_election(blob)


def test_scores_and_flags():
    e = ApprovalElection(
        ("p", "a"),
        (Voter({"p", "a"}, weight=2), Voter({"a"}, weight=3)),
        1,
        pool=(Voter({"p"}, price=4),),
    )
    assert approval_score(e) == {"p": 2, "a": 5}
    assert e.preferred == "p"
    assert e.is_weighted and e.is_priced  # price lives on the pool voter

    o = OrdinalElection(
        ("p", "a", "b"),
        (OrdinalVoter(("a", "p", "b")), OrdinalVoter(("p", "a", "b"))),
        (2, 1, 0),
        1,
    )
    assert o.scores() == {"p": 3, "a": 3, "b": 0}
    assert o.scores(deleted=(0,)) == {"p": 2, "a": 1, "b": 0}


def test_json_round_trips():
    e = _priced_ccdv_election()
    blob = e.to_json()
    assert blob["kind"] == "approval" and "pool" not in blob
    assert load_election(blob) == e

    pooled = ApprovalElection(("p",), (), 2, pool=(Voter({"p"}, price=3),))
    blob = pooled.to_json()
    assert blob["pool"] == [{"approved": ["p"], "weight": 1, "price": 3}]
    assert load_election(blob) == pooled

    o = OrdinalElection(
        ("p", "a"), (OrdinalVoter(("a", "p"), price=2),), (1, 0), 1
    )
    blob = o.to_json()
    assert blob["kind"] == "ordinal"
    assert load_election(blob) == o

    with pytest.raises(ValueError, match="unsupported election format"):
        ApprovalElection.from_json({"format": "nope"})
    with pytest.raises(ValueError, match="expected an ordinal election"):
        OrdinalElection.from_json(e.to_json())
    with pytest.raises(ValueError, match="JSON object"):
        load_election([1, 2])


# ---------------------------------------------------------------------------
# priced approval control
# ---------------------------------------------------------------------------


def test_ccdv_priced_worked_example():
    e = _priced_ccdv_election(budget=3)
    res = solve_ccdv_priced(e, minimize_cost=True)
    assert res.feasible and res.kind == "delete"
    assert res.action == (1, 2) and res.cost == 3

    # a strict win needs all three rival ballots gone: too expensive
    res = solve_ccdv_priced(e, unique_winner=True)
    assert not res.feasible and res.cost is None


def test_ccav_priced_worked_example():
    e = ApprovalElection(
        ("p", "a", "b"),
        (Voter({"a"}), Voter({"a"}), Voter({"b"})),
        4,
        pool=(
            Voter({"p", "a"}, price=2),
            Voter({"p"}, price=1),
            Voter({"p", "b"}, price=3),
            Voter({"b"}, price=9),  # never helps: does not approve p
        ),
    )
    res = solve_ccav_priced(e, minimize_cost=True)
    assert res.feasible and res.kind == "add"
    assert res.action == (1, 2) and res.cost == 4

    tight = ApprovalElection(e.candidates, e.voters, 3, pool=e.pool)
    assert not solve_ccav_priced(tight).feasible


def test_bribery_priced_worked_example():
    e = _priced_ccdv_election(budget=3)
    # without minimizing, the first cover found is accepted; here it is
    # already the cheapest, since one bribe ties p with c1
    res = solve_bribery_priced(e)
    assert res.feasible and res.kind == "bribe"
    assert res.action == (1,) and res.cost == 1
    assert res.new_votes == (frozenset({"p"}),)

    # paying voter 1 to approve only p already flips the outcome
    res = solve_bribery_priced(e, minimize_cost=True)
    assert res.action == (1,) and res.cost == 1
    assert res.new_votes == (frozenset({"p"}),)


def test_bribery_node_limit_bounds_all_gains(monkeypatch):
    # every rival's gain is covered by one search tree, here a single node,
    # and the limit reaches that tree unchanged
    e = _priced_ccdv_election(budget=3)
    calls = []
    solve_wsm = voting.solve_wsm

    def counted(*args, **kwargs):
        calls.append(kwargs["node_limit"])
        return solve_wsm(*args, **kwargs)

    monkeypatch.setattr(voting, "solve_wsm", counted)
    res = solve_bribery_priced(e, minimize_cost=True)
    assert res.feasible and res.stats.nodes == 1
    assert calls == [None]
    res = solve_bribery_priced(e, minimize_cost=True, node_limit=1)
    assert res.feasible and res.stats.nodes == 1
    assert calls == [None, 1]

    # a search of five nodes over two threshold levels runs out at four:
    # rounding the root already gives the optimum 5, and its two children,
    # empty at the root bound 3 and again at 4, prove it
    e = ApprovalElection(("p", "c1"), (Voter({"c1"}, price=5),
                                       Voter({"c1"}, price=5),
                                       Voter({"p"}, price=6)), 5)
    res = solve_bribery_priced(e, minimize_cost=True)
    assert res.action == (0,) and res.cost == 5
    assert (res.stats.nodes, res.stats.probes) == (5, 2)
    with pytest.raises(ResourceExhausted) as info:
        solve_bribery_priced(e, minimize_cost=True, node_limit=4)
    assert info.value.nodes == 4 and info.value.limit == 4
    res = solve_bribery_priced(e, minimize_cost=True, node_limit=5)
    assert res.feasible and res.stats.nodes == 5
    assert calls == [None, 1, None, 4, 5]


def test_priced_solvers_reject_weights():
    weighted = ApprovalElection(("p", "a"), (Voter({"a"}, weight=2),), 1)
    with pytest.raises(ValueError, match="unit weights"):
        solve_ccdv_priced(weighted)
    with pytest.raises(ValueError, match="unit weights"):
        solve_bribery_priced(weighted)
    pooled = ApprovalElection(
        ("p", "a"), (), 1, pool=(Voter({"p"}, weight=2),)
    )
    with pytest.raises(ValueError, match="unit weights"):
        solve_ccav_priced(pooled)


# ---------------------------------------------------------------------------
# weighted approval control
# ---------------------------------------------------------------------------


def test_ccdv_weighted_worked_example():
    e = ApprovalElection(
        ("p", "a"),
        (
            Voter({"p"}),
            Voter({"a"}, weight=3),
            Voter({"a"}, weight=2),
            Voter({"a"}, weight=1),
        ),
        2,
    )
    res = solve_ccdv_weighted(e, minimize_cost=True)
    assert res.feasible and res.kind == "delete"
    assert res.action == (1, 2) and res.cost == 2  # cost counts deletions

    one = ApprovalElection(e.candidates, e.voters, 1)
    assert not solve_ccdv_weighted(one).feasible


def test_ccav_weighted_worked_example():
    e = ApprovalElection(
        ("p", "a", "b"),
        (Voter({"a"}, weight=4), Voter({"b"}, weight=2)),
        2,
        pool=(
            Voter({"p"}, weight=3),
            Voter({"p", "a"}, weight=5),
            Voter({"p", "b"}, weight=2),
            Voter({"a"}, weight=9),
        ),
    )
    res = solve_ccav_weighted(e, minimize_cost=True)
    assert res.feasible and res.kind == "add"
    assert res.action == (0, 2) and res.cost == 2


def test_weighted_solvers_reject_prices():
    priced = ApprovalElection(("p", "a"), (Voter({"a"}, price=2),), 1)
    with pytest.raises(ValueError, match="unit prices"):
        solve_ccdv_weighted(priced)
    pooled = ApprovalElection(
        ("p", "a"), (), 1, pool=(Voter({"p"}, price=2),)
    )
    with pytest.raises(ValueError, match="unit prices"):
        solve_ccav_weighted(pooled)


def test_single_candidate_always_wins():
    lonely = ApprovalElection(("p",), (Voter(()), Voter({"p"})), 0)
    for solver in (
        solve_ccdv_priced,
        solve_bribery_priced,
        solve_ccdv_weighted,
    ):
        res = solver(lonely, minimize_cost=True)
        assert res.feasible and res.action == () and res.cost == 0
    pooled = ApprovalElection(("p",), (), 0, pool=(Voter({"p"}),))
    for solver in (solve_ccav_priced, solve_ccav_weighted):
        res = solver(pooled, minimize_cost=True)
        assert res.feasible and res.action == () and res.cost == 0
    solo = OrdinalElection(("p",), (OrdinalVoter(("p",)),), (1,), 0)
    res = solve_scoring_ccdv(solo, minimize_cost=True)
    assert res.feasible and res.action == () and res.cost == 0


# ---------------------------------------------------------------------------
# scoring-rule deletion
# ---------------------------------------------------------------------------


def _borda_election(budget):
    return OrdinalElection(
        ("p", "a", "b"),
        (
            OrdinalVoter(("a", "p", "b")),
            OrdinalVoter(("a", "p", "b")),
            OrdinalVoter(("p", "a", "b")),
        ),
        (2, 1, 0),
        budget,
    )


def test_scoring_ccdv_borda_worked_example():
    res = solve_scoring_ccdv(_borda_election(1), minimize_cost=True)
    assert res.feasible and res.kind == "delete"
    assert res.action == (0,) and res.cost == 1

    assert not solve_scoring_ccdv(_borda_election(1), unique_winner=True).feasible
    res = solve_scoring_ccdv(
        _borda_election(2), unique_winner=True, minimize_cost=True
    )
    assert res.feasible and res.action == (0, 1) and res.cost == 2


def test_scoring_ccdv_two_approval_worked_example():
    e = OrdinalElection(
        ("p", "a", "b"),
        (
            OrdinalVoter(("a", "b", "p"), price=1),
            OrdinalVoter(("a", "b", "p"), price=3),
            OrdinalVoter(("p", "b", "a"), price=9),
        ),
        (1, 1, 0),
        4,
    )
    res = solve_scoring_ccdv(e, minimize_cost=True)
    assert res.feasible and res.action == (0, 1) and res.cost == 4

    tight = OrdinalElection(e.candidates, e.voters, e.scoring_vector, 3)
    assert not solve_scoring_ccdv(tight).feasible


def test_scoring_ccdv_candidate_cap():
    names = ("p", "a", "b", "c", "d", "e")
    voters = (OrdinalVoter(names),)
    wide = OrdinalElection(names, voters, (5, 4, 3, 2, 1, 0), 1)
    with pytest.raises(ValueError, match="exceed the cap"):
        solve_scoring_ccdv(wide)
    res = solve_scoring_ccdv(wide, max_candidates=6)
    assert res.feasible and res.action == ()  # p already tops every ballot


# ---------------------------------------------------------------------------
# randomized agreement with the subset oracle
# ---------------------------------------------------------------------------


def _scores_after(problem, election, acted):
    """Scores once ``acted`` is applied, counted here rather than by voting."""
    scores = dict.fromkeys(election.candidates, 0)
    if problem == "scoring-ccdv":
        for i, v in enumerate(election.voters):
            if i not in acted:
                for pos, c in enumerate(v.ranking):
                    scores[c] += election.scoring_vector[pos]
        return scores
    ballots = []
    for i, v in enumerate(election.voters):
        if problem == "ccdv" and i in acted:
            continue
        ballots.append(({"p"} if problem == "bribery" and i in acted
                        else v.approved, v.weight))
    if problem == "ccav":
        ballots += [(election.pool[i].approved, election.pool[i].weight)
                    for i in acted]
    for approved, weight in ballots:
        for c in approved:
            scores[c] += weight
    return scores


def _assert_agrees(res, truth, problem, election, unique_winner=False,
                   minimal=True):
    """Same verdict as the oracle, and its optimum when ``minimal``; the
    action replays on its own."""
    assert res.feasible == truth.feasible
    if not truth.feasible:
        return
    if minimal:
        assert res.cost == truth.best_cost
    else:
        assert truth.best_cost <= res.cost <= election.budget
    group = election.pool if problem == "ccav" else election.voters
    action = list(res.action)
    assert action == sorted(set(action))
    assert all(0 <= i < len(group) for i in action)
    assert sum(group[i].price for i in action) == res.cost
    scores = _scores_after(problem, election, set(action))
    top = max((s for c, s in scores.items() if c != "p"), default=None)
    if top is not None:
        assert scores["p"] > top if unique_winner else scores["p"] >= top


def test_ccdv_priced_matches_oracle():
    rng = random.Random(0x571)
    for _ in range(60):
        e = random_approval(rng, variant="priced")
        res = solve_ccdv_priced(e, minimize_cost=True)
        _assert_agrees(res, brute_manipulate("ccdv", e, "p"), "ccdv", e)


def test_ccav_priced_matches_oracle():
    rng = random.Random(0x572)
    for _ in range(60):
        e = random_approval(rng, variant="priced", with_pool=True)
        res = solve_ccav_priced(e, minimize_cost=True)
        _assert_agrees(res, brute_manipulate("ccav", e, "p"), "ccav", e)


def test_bribery_priced_matches_oracle():
    rng = random.Random(0x573)
    for _ in range(60):
        e = random_approval(rng, variant="priced")
        res = solve_bribery_priced(e, minimize_cost=True)
        _assert_agrees(res, brute_manipulate("bribery", e, "p"), "bribery", e)


def test_bribery_feasibility_only_matches_oracle():
    rng = random.Random(0x579)
    for _ in range(60):
        e = random_approval(rng, variant="priced")
        for unique in (False, True):
            res = solve_bribery_priced(e, unique_winner=unique)
            truth = brute_manipulate("bribery", e, "p", unique_winner=unique)
            _assert_agrees(res, truth, "bribery", e, unique, minimal=False)


def test_ccdv_weighted_matches_oracle():
    rng = random.Random(0x574)
    for _ in range(60):
        e = random_approval(rng, variant="weighted")
        res = solve_ccdv_weighted(e, minimize_cost=True)
        _assert_agrees(res, brute_manipulate("ccdv", e, "p"), "ccdv", e)


def test_ccav_weighted_matches_oracle():
    rng = random.Random(0x575)
    for _ in range(60):
        e = random_approval(rng, variant="weighted", with_pool=True)
        res = solve_ccav_weighted(e, minimize_cost=True)
        _assert_agrees(res, brute_manipulate("ccav", e, "p"), "ccav", e)


def test_scoring_ccdv_matches_oracle():
    rng = random.Random(0x576)
    for kind in ("borda", "2-approval"):
        for _ in range(40):
            e = random_ordinal(rng, vector_kind=kind)
            for unique in (False, True):
                res = solve_scoring_ccdv(
                    e, unique_winner=unique, minimize_cost=True
                )
                truth = brute_manipulate(
                    "scoring-ccdv", e, "p", unique_winner=unique
                )
                _assert_agrees(res, truth, "scoring-ccdv", e, unique)


def test_budget_monotonicity():
    rng = random.Random(0x577)
    for _ in range(20):
        e = random_approval(rng, variant="priced")
        if not solve_ccdv_priced(e).feasible:
            continue
        looser = ApprovalElection(e.candidates, e.voters, e.budget + 1)
        assert solve_ccdv_priced(looser).feasible


def test_plurality_scoring_agrees_with_approval_ccdv():
    rng = random.Random(0x578)
    for _ in range(30):
        m = rng.randint(2, 4)
        names = ("p", "a", "b", "c")[:m]
        voters = []
        for _ in range(rng.randint(1, 8)):
            ranking = list(names)
            rng.shuffle(ranking)
            voters.append(OrdinalVoter(tuple(ranking), rng.randint(1, 6)))
        budget = rng.randint(0, 8)
        vector = (1,) + (0,) * (m - 1)
        ordinal = OrdinalElection(names, tuple(voters), vector, budget)
        twin = ApprovalElection(
            names,
            tuple(Voter({v.ranking[0]}, price=v.price) for v in voters),
            budget,
        )
        a = solve_scoring_ccdv(ordinal, minimize_cost=True)
        b = solve_ccdv_priced(twin, minimize_cost=True)
        assert a.feasible == b.feasible
        if a.feasible:
            assert a.cost == b.cost
