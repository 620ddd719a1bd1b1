"""Election control and bribery through covering and piecewise models.

The preferred candidate p is always ``candidates[0]``.  Every solver returns
a :class:`ManipulationResult` whose action, replayed on the election, makes
p a winner; that replay is re-checked exactly before any feasible result is
returned.

All approval problems share one reduction to a covering instance.  Element
0 stands for the gain in p's score, element 1 + j for rival j.  Each voter
who may act becomes a set covering, with the voter's weight, the rivals the
action lowers relative to p:

* deleting a voter who does not approve p lowers the rivals they approve;
* adding a spare voter who approves p lowers, relative to p, the rivals
  they do not approve;
* bribing any voter to approve only p lowers the rivals they approve, and
  covers element 0 too when they did not approve p.

For a guessed gain ℓ, element 0 requires ℓ and each rival the amount by
which it would still lead p + ℓ (plus one for a unique winner).  Deletion
and addition solve once at ℓ = 0, where element 0 requires nothing and
emits no row; bribery tries ℓ = 0..n in turn, all solves sharing one node
budget.  Priced voters (unit weights) give weighted set multicover with
the prices as set weights; weighted voters (unit prices) give uniform
multiset multicover, where the budget caps the number of voters.

Scoring-rule deletion keeps one integer variable per preference order with
a convex price function (delete cheapest first) and linear winner rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covering import CoverInstance, solve_umm, solve_wsm
from .emip import EmipConstraint, EmipModel, Variable, VarKind
from .milp.branch_bound import resolve_node_limit, within_budget
from .milp.model import SolveStats, SolverInternalError
from .pipeline import minimize_budget, solve_emip
from .pwl import PwlFunction

FORMAT_NAME = "election-v1"


def _check_count(value, what):
    value = int(value)
    if value < 0:
        raise ValueError("%s must be nonnegative" % what)
    return value


@dataclass(frozen=True)
class Voter:
    """One approval ballot with a weight and a deletion/addition/bribe price."""

    approved: frozenset
    weight: int = 1
    price: int = 1

    def __init__(self, approved, weight=1, price=1):
        object.__setattr__(self, "approved", frozenset(approved))
        object.__setattr__(self, "weight", _check_count(weight, "weight"))
        object.__setattr__(self, "price", _check_count(price, "price"))


@dataclass(frozen=True)
class ApprovalElection:
    """Approval ballots; ``candidates[0]`` is the preferred candidate.

    ``pool`` holds the spare voters that control-by-adding may register.
    """

    candidates: tuple
    voters: tuple
    budget: int
    pool: tuple = ()

    def __init__(self, candidates, voters, budget, pool=()):
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("need at least one candidate")
        if len(set(candidates)) != len(candidates):
            raise ValueError("candidate names must be distinct")
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
        object.__setattr__(self, "budget", _check_count(budget, "budget"))

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

        def dec(entries):
            return tuple(
                Voter(
                    e["approved"],
                    e.get("weight", 1),
                    e.get("price", 1),
                )
                for e in entries
            )

        return cls(
            candidates=obj["candidates"],
            voters=dec(obj.get("voters", ())),
            budget=obj["budget"],
            pool=dec(obj.get("pool", ())),
        )


@dataclass(frozen=True)
class OrdinalVoter:
    """A full ranking, best first, with a deletion price."""

    ranking: tuple
    price: int = 1

    def __init__(self, ranking, price=1):
        object.__setattr__(self, "ranking", tuple(ranking))
        object.__setattr__(self, "price", _check_count(price, "price"))


@dataclass(frozen=True)
class OrdinalElection:
    """Ranked ballots scored by a nonincreasing vector, best position first."""

    candidates: tuple
    voters: tuple
    scoring_vector: tuple
    budget: int

    def __init__(self, candidates, voters, scoring_vector, budget):
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("need at least one candidate")
        if len(set(candidates)) != len(candidates):
            raise ValueError("candidate names must be distinct")
        object.__setattr__(self, "candidates", candidates)
        expected = sorted(candidates)
        for v in voters:
            if sorted(v.ranking) != expected:
                raise ValueError(
                    "every ranking must be a permutation of the candidates"
                )
        object.__setattr__(self, "voters", tuple(voters))
        vec = tuple(int(a) for a in scoring_vector)
        if len(vec) != len(candidates):
            raise ValueError("scoring vector must have one entry per candidate")
        if any(a < b for a, b in zip(vec, vec[1:])):
            raise ValueError("scoring vector must be nonincreasing")
        object.__setattr__(self, "scoring_vector", vec)
        object.__setattr__(self, "budget", _check_count(budget, "budget"))

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
            candidates=obj["candidates"],
            voters=tuple(
                OrdinalVoter(e["ranking"], e.get("price", 1))
                for e in obj.get("voters", ())
            ),
            scoring_vector=obj["scoring_vector"],
            budget=obj["budget"],
        )


def _check_format(obj, kind):
    if not isinstance(obj, dict):
        raise ValueError("election must be a JSON object")
    if obj.get("format") != FORMAT_NAME:
        raise ValueError(
            "unsupported election format %r (expected %r)"
            % (obj.get("format"), FORMAT_NAME)
        )
    got = obj.get("kind", "approval")
    if got != kind:
        raise ValueError("expected a %s election, got kind=%r" % (kind, got))


def load_election(obj):
    """Deserialize either election kind from its JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("election must be a JSON object")
    if obj.get("kind", "approval") == "ordinal":
        return OrdinalElection.from_json(obj)
    return ApprovalElection.from_json(obj)


@dataclass
class ManipulationResult:
    feasible: bool
    action: tuple = ()        # voter indices, sorted (pool indices for adding)
    cost: int | None = None
    kind: str = ""            # "delete" | "add" | "bribe"
    new_votes: tuple = ()     # bribery only: the rewritten ballots, by action
    stats: SolveStats = field(default_factory=SolveStats)


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

    ``variant`` "priced" solves weighted set multicover with the prices as
    set weights; "weighted" solves uniform multiset multicover with the
    voter weights as multiplicities.  The other attribute must be one.
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
        lowered = {
            1 + j: v.weight for j, c in enumerate(rivals)
            if (c in v.approved) != (action == "add")
        }
        if action == "bribe" and p not in v.approved:
            lowered[0] = v.weight
        sets.append(lowered)
    prices = [ballots[i].price for i in acting] if variant == "priced" else None
    solve = solve_wsm if variant == "priced" else solve_umm

    scores = approval_score(election)
    bump = 1 if unique_winner else 0
    gains = range(len(ballots) + 1) if action == "bribe" else (0,)
    limit = resolve_node_limit(node_limit)
    stats = SolveStats()
    best = None
    for gain in gains:
        need = [gain] + [
            max(scores[c] - scores[p] - gain + bump, 0) for c in rivals
        ]
        instance = CoverInstance(len(need), sets, need, election.budget, prices)
        sol = within_budget(limit, stats, solve, instance,
                            minimize_cost=minimize_cost)
        if not sol.feasible:
            continue
        if best is None or sol.cost < best.cost:
            best = sol
        if not minimize_cost:
            break
    if best is None:
        return ManipulationResult(False, kind=action, stats=stats)

    chosen = tuple(sorted(acting[k] for k in best.chosen))
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
        True, chosen, best.cost, action, new_votes=new_votes, stats=stats
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

    orders = {}
    for i, v in enumerate(election.voters):
        orders.setdefault(v.ranking, []).append(i)
    ranked = sorted(orders)
    by_price = [
        sorted(orders[sigma], key=lambda i: (election.voters[i].price, i))
        for sigma in ranked
    ]

    variables = tuple(
        Variable("d%d" % j, VarKind.INTEGER, 0, len(orders[sigma]))
        for j, sigma in enumerate(ranked)
    )
    points = []
    for sigma in ranked:
        pos = {c: k for k, c in enumerate(sigma)}
        points.append({c: alpha[pos[c]] for c in election.candidates})

    constraints = []
    for c in election.candidates[1:]:
        coeffs = {}
        base = -bump
        for j, sigma in enumerate(ranked):
            margin = points[j][p] - points[j][c]
            if margin:
                coeffs[j] = margin
                base += len(orders[sigma]) * margin
        constraints.append(EmipConstraint(lhs=coeffs, rhs={}, b=base))
    price_fns = {
        j: PwlFunction.from_sorted_weights(
            [election.voters[i].price for i in by_price[j]]
        )
        for j in range(len(ranked))
    }
    constraints.append(EmipConstraint(lhs=price_fns, rhs={}, b=election.budget))
    model = EmipModel(variables, tuple(constraints))

    if minimize_cost:
        counts, cost, stats = minimize_budget(
            model, len(constraints) - 1, node_limit
        )
    else:
        result = solve_emip(model, node_limit)
        counts, cost, stats = result.assignment, None, result.stats
    if counts is None:
        return ManipulationResult(False, kind="delete", stats=stats)

    action = []
    for j in range(len(ranked)):
        take = int(counts[j])
        action.extend(by_price[j][:take])
    action = tuple(sorted(action))
    total = sum(election.voters[i].price for i in action)
    if cost is not None and total != cost:
        raise SolverInternalError("deletion prices disagree with the optimum")
    if total > election.budget:
        raise SolverInternalError("deletions exceed the budget")

    replay = election.scores(deleted=action)
    _verify(replay, p, unique_winner)
    return ManipulationResult(True, action, total, "delete", stats=stats)
