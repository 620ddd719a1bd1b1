"""Election control and bribery through covering and piecewise models.

The preferred candidate p is always ``candidates[0]``.  Every solver returns
a :class:`ManipulationResult` whose action, replayed on the election, makes
p a winner; that replay is re-checked exactly before any feasible result is
returned.

All approval problems share one reduction to a covering instance whose
elements are the rivals.  Each voter who may act becomes a multiset
holding, for each rival, how far the action raises p's lead over that
rival, times the voter's weight:

* deleting a voter who does not approve p raises it over the rivals they
  approve;
* adding a spare voter who approves p raises it over the rivals they do
  not approve;
* bribing a voter to approve only p raises it by [p not approved] +
  [rival approved], so by one or two.

Rival c requires the lead p lacks, s_c - s_p (plus one for a unique
winner), so a cover is exactly an action that makes p win.  p's own score
gain needs no element and no guess: it is already counted in every
rival's multiplicity.  Priced voters (unit weights) give weighted
multiset multicover with the prices as set weights; weighted voters
(unit prices) give uniform multiset multicover, where the budget caps the
number of voters.

Scoring-rule deletion uses the same count-per-type reduction
(:class:`pwlmip.covering.Types`): a type is one preference order, its count
how many of its voters to delete, cheapest first, priced by a convex
function, and the winner rows are linear in the counts.
"""

from __future__ import annotations

from .covering import CoverInstance, Types, solve_umm, solve_wsm
from .emip import EmipConstraint
from .milp.model import SolveStats, SolverInternalError
from .rationals import (json_array, json_entries, json_format, parse_count,
                        parse_field, parse_integer)
from .records import Frozen, Record

FORMAT_NAME = "election-v1"


def _json_names(value, where):
    """``value``, a JSON array of strings; else an input error that names
    ``where``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise ValueError("%s must be a JSON array of strings" % where)
    return value


class Voter(Frozen):
    """One approval ballot with a weight and a deletion/addition/bribe price."""

    __slots__ = _fields = ("approved", "weight", "price")

    def __init__(self, approved, weight=1, price=1):
        object.__setattr__(self, "approved", frozenset(approved))
        object.__setattr__(self, "weight", parse_count(weight, "weight"))
        object.__setattr__(self, "price", parse_count(price, "price"))


def _candidates(names):
    """``names`` as a tuple, refused if empty or if a name repeats."""
    names = tuple(names)
    if not names:
        raise ValueError("need at least one candidate")
    seen = set()
    for i, name in enumerate(names):
        if name in seen:
            raise ValueError("candidate %d: duplicate name %r" % (i, name))
        seen.add(name)
    return names


class ApprovalElection(Frozen):
    """Approval ballots; ``candidates[0]`` is the preferred candidate.

    ``pool`` holds the spare voters that control-by-adding may register.
    """

    __slots__ = _fields = ("candidates", "voters", "budget", "pool")

    def __init__(self, candidates, voters, budget, pool=()):
        candidates = _candidates(candidates)
        object.__setattr__(self, "candidates", candidates)
        known = set(candidates)
        for group in (voters, pool):
            for v in group:
                if not v.approved <= known:
                    raise ValueError(
                        "ballot approves unknown candidate(s): %s"
                        % sorted(v.approved - known)
                    )
        object.__setattr__(self, "voters", tuple(voters))
        object.__setattr__(self, "pool", tuple(pool))
        object.__setattr__(self, "budget", parse_count(budget, "budget"))

    @property
    def preferred(self):
        return self.candidates[0]

    @property
    def is_weighted(self) -> bool:
        return any(v.weight != 1 for v in self.voters + self.pool)

    @property
    def is_priced(self) -> bool:
        return any(v.price != 1 for v in self.voters + self.pool)

    def to_json(self):
        def enc(vs):
            return [
                {"approved": sorted(v.approved), "weight": v.weight, "price": v.price}
                for v in vs
            ]

        out = {
            "format": FORMAT_NAME,
            "kind": "approval",
            "candidates": list(self.candidates),
            "voters": enc(self.voters),
            "budget": self.budget,
        }
        if self.pool:
            out["pool"] = enc(self.pool)
        return out

    @classmethod
    def from_json(cls, obj):
        _check_format(obj, "approval")

        def dec(key, entry):
            return tuple(
                Voter(_json_names(e.get("approved"), "%s %d approved" % (entry, k)),
                      parse_count(e.get("weight", 1), "%s %d weight" % (entry, k)),
                      parse_count(e.get("price", 1), "%s %d price" % (entry, k)))
                for k, e in enumerate(json_entries(obj, key, entry)))

        return cls(
            candidates=_json_names(obj.get("candidates"), "candidates"),
            voters=dec("voters", "voter"),
            budget=obj.get("budget"),
            pool=dec("pool", "pool voter"),
        )


class OrdinalVoter(Frozen):
    """A full ranking, best first, with a deletion price."""

    __slots__ = _fields = ("ranking", "price")

    def __init__(self, ranking, price=1):
        object.__setattr__(self, "ranking", tuple(ranking))
        object.__setattr__(self, "price", parse_count(price, "price"))


class OrdinalElection(Frozen):
    """Ranked ballots scored by a nonincreasing vector, best position first."""

    __slots__ = _fields = ("candidates", "voters", "scoring_vector", "budget")

    def __init__(self, candidates, voters, scoring_vector, budget):
        candidates = _candidates(candidates)
        object.__setattr__(self, "candidates", candidates)
        expected = sorted(candidates)
        for v in voters:
            if sorted(v.ranking) != expected:
                raise ValueError(
                    "every ranking must be a permutation of the candidates"
                )
        object.__setattr__(self, "voters", tuple(voters))
        vec = tuple(parse_field("scoring_vector", parse_integer, a)
                    for a in scoring_vector)
        if len(vec) != len(candidates):
            raise ValueError("scoring vector must have one entry per candidate")
        if any(a < b for a, b in zip(vec, vec[1:])):
            raise ValueError("scoring vector must be nonincreasing")
        object.__setattr__(self, "scoring_vector", vec)
        object.__setattr__(self, "budget", parse_count(budget, "budget"))

    @property
    def preferred(self):
        return self.candidates[0]

    def scores(self, deleted=()):
        skip = set(deleted)
        out = {c: 0 for c in self.candidates}
        for i, v in enumerate(self.voters):
            if i in skip:
                continue
            for pos, c in enumerate(v.ranking):
                out[c] += self.scoring_vector[pos]
        return out

    def to_json(self):
        return {
            "format": FORMAT_NAME,
            "kind": "ordinal",
            "candidates": list(self.candidates),
            "voters": [
                {"ranking": list(v.ranking), "price": v.price} for v in self.voters
            ],
            "scoring_vector": list(self.scoring_vector),
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, obj):
        _check_format(obj, "ordinal")
        return cls(
            candidates=_json_names(obj.get("candidates"), "candidates"),
            voters=tuple(
                OrdinalVoter(_json_names(e.get("ranking"), "voter %d ranking" % k),
                             parse_count(e.get("price", 1), "voter %d price" % k))
                for k, e in enumerate(json_entries(obj, "voters", "voter"))
            ),
            scoring_vector=json_array(obj, "scoring_vector"),
            budget=obj.get("budget"),
        )


def _check_format(obj, kind):
    """Refuse ``obj`` unless it is an election object of ``kind``."""
    json_format(obj, FORMAT_NAME, "election")
    if obj.get("kind", "approval") != kind:
        raise ValueError("expected an %s election" % kind)


def load_election(obj):
    """Deserialize either election kind from its JSON object; the kind's
    ``from_json`` refuses anything else."""
    ordinal = isinstance(obj, dict) and obj.get("kind") == "ordinal"
    return (OrdinalElection if ordinal else ApprovalElection).from_json(obj)


class ManipulationResult(Record):
    """A manipulation's verdict.  ``action`` holds voter indices, sorted
    (pool indices for adding); ``kind`` is "delete", "add" or "bribe";
    ``new_votes``, for bribery only, the rewritten ballots, by action."""

    __slots__ = _fields = ("feasible", "action", "cost", "kind", "new_votes",
                           "stats")

    def __init__(self, feasible: bool, action: tuple = (), cost: int | None = None,
                 kind: str = "", new_votes: tuple = (),
                 stats: SolveStats | None = None):
        self.feasible = feasible
        self.action = action
        self.cost = cost
        self.kind = kind
        self.new_votes = new_votes
        self.stats = SolveStats() if stats is None else stats


def approval_score(election: ApprovalElection):
    """Weighted approval count per candidate (registered voters only)."""
    scores = {c: 0 for c in election.candidates}
    for v in election.voters:
        for c in v.approved:
            scores[c] += v.weight
    return scores


def _wins(scores, p, unique_winner):
    rivals = [s for c, s in scores.items() if c != p]
    if not rivals:
        return True
    top = max(rivals)
    return scores[p] > top if unique_winner else scores[p] >= top


def _verify(scores, p, unique_winner):
    if not _wins(scores, p, unique_winner):
        raise SolverInternalError(
            "replayed action does not make %r a winner" % p
        )


_ACTION_NOUNS = {"delete": "deletion", "add": "addition", "bribe": "bribery"}


def _solve_approval(election, action, variant, unique_winner, minimize_cost,
                    node_limit):
    """The approval reduction for ``action`` in ("delete", "add", "bribe").

    ``variant`` "priced" solves weighted multiset multicover with the
    prices as set weights; "weighted" solves uniform multiset multicover
    with the voter weights as multiplicities.  The other attribute must be
    one.
    """
    p = election.preferred
    ballots = election.pool if action == "add" else election.voters
    checked = election.voters + election.pool if action == "add" else ballots
    unit = "weight" if variant == "priced" else "price"
    if any(getattr(v, unit) != 1 for v in checked):
        raise ValueError(
            "%s %s needs unit %ss" % (variant, _ACTION_NOUNS[action], unit)
        )

    if action == "delete":
        acting = [i for i, v in enumerate(ballots) if p not in v.approved]
    elif action == "add":
        acting = [i for i, v in enumerate(ballots) if p in v.approved]
    else:
        acting = list(range(len(ballots)))
    rivals = election.candidates[1:]
    sets = []
    for i in acting:
        v = ballots[i]
        gain = action == "bribe" and p not in v.approved
        sets.append({
            j: v.weight * (gain + ((c in v.approved) != (action == "add")))
            for j, c in enumerate(rivals)
        })
    prices = [ballots[i].price for i in acting] if variant == "priced" else None
    solve = solve_wsm if variant == "priced" else solve_umm

    scores = approval_score(election)
    bump = 1 if unique_winner else 0
    need = [max(scores[c] - scores[p] + bump, 0) for c in rivals]
    instance = CoverInstance(len(rivals), sets, need, election.budget, prices)
    sol = solve(instance, minimize_cost=minimize_cost, node_limit=node_limit)
    if not sol.feasible:
        return ManipulationResult(False, kind=action, stats=sol.stats)

    chosen = tuple(sorted(acting[k] for k in sol.chosen))
    picked = set(chosen)
    if action == "delete":
        after = [v for i, v in enumerate(ballots) if i not in picked]
    elif action == "add":
        after = election.voters + tuple(ballots[i] for i in chosen)
    else:
        after = [
            Voter({p}, v.weight, v.price) if i in picked else v
            for i, v in enumerate(ballots)
        ]
    replay = approval_score(
        ApprovalElection(election.candidates, after, election.budget)
    )
    _verify(replay, p, unique_winner)
    new_votes = tuple(frozenset({p}) for _ in chosen) if action == "bribe" else ()
    return ManipulationResult(
        True, chosen, sol.cost, action, new_votes=new_votes, stats=sol.stats
    )


def solve_ccdv_priced(election, unique_winner=False, minimize_cost=False,
                      node_limit=None):
    """Control by deleting priced voters (unit weights)."""
    return _solve_approval(election, "delete", "priced", unique_winner,
                           minimize_cost, node_limit)


def solve_ccav_priced(election, unique_winner=False, minimize_cost=False,
                      node_limit=None):
    """Control by registering priced spare voters (unit weights)."""
    return _solve_approval(election, "add", "priced", unique_winner,
                           minimize_cost, node_limit)


def solve_bribery_priced(election, unique_winner=False, minimize_cost=False,
                         node_limit=None):
    """Bribery: pay a voter's price to rewrite their ballot to {p}."""
    return _solve_approval(election, "bribe", "priced", unique_winner,
                           minimize_cost, node_limit)


def solve_ccdv_weighted(election, unique_winner=False, minimize_cost=False,
                        node_limit=None):
    """Deleting weighted voters, unit prices: the budget caps the count."""
    return _solve_approval(election, "delete", "weighted", unique_winner,
                           minimize_cost, node_limit)


def solve_ccav_weighted(election, unique_winner=False, minimize_cost=False,
                        node_limit=None):
    """Adding weighted voters, unit prices: the budget caps the count."""
    return _solve_approval(election, "add", "weighted", unique_winner,
                           minimize_cost, node_limit)


DEFAULT_CANDIDATE_CAP = 5


def solve_scoring_ccdv(election, unique_winner=False, minimize_cost=False,
                       node_limit=None, max_candidates=DEFAULT_CANDIDATE_CAP):
    """Deleting priced voters under a positional scoring rule.

    One integer variable per preference order present among the voters
    counts how many of that order to delete (cheapest first, a convex
    price function); one linear row per rival keeps the preferred
    candidate's remaining score at least the rival's.
    """
    m = len(election.candidates)
    if m > max_candidates:
        raise ValueError(
            "%d candidates exceed the cap of %d for the scoring reduction"
            % (m, max_candidates)
        )
    p = election.preferred
    alpha = election.scoring_vector
    bump = 1 if unique_winner else 0

    voters = election.voters
    types = Types.of([v.ranking for v in voters], lambda i: voters[i].price)
    constraints = []
    for c in election.candidates[1:]:
        coeffs = {}
        base = -bump
        for j, sigma in enumerate(types.keys):
            margin = alpha[sigma.index(p)] - alpha[sigma.index(c)]
            if margin:
                coeffs[j] = margin
                base += len(types.members[j]) * margin
        constraints.append(EmipConstraint(lhs=coeffs, rhs={}, b=base))
    prices = dict(enumerate(types.prices(lambda i: voters[i].price)))
    constraints.append(EmipConstraint(lhs=prices, rhs={}, b=election.budget))
    result, action = types.solve("d", constraints, minimize_cost, node_limit)
    if not result.feasible:
        return ManipulationResult(False, kind="delete", stats=result.stats)

    total = sum(voters[i].price for i in action)
    if result.best is not None and total != result.best:
        raise SolverInternalError("deletion prices disagree with the optimum")
    if total > election.budget:
        raise SolverInternalError("deletions exceed the budget")

    replay = election.scores(deleted=action)
    _verify(replay, p, unique_winner)
    return ManipulationResult(True, action, total, "delete", stats=result.stats)
