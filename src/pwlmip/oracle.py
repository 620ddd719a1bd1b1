"""Exhaustive reference solvers for cross-checking the optimizers.

Everything here is deliberately primitive: subsets are enumerated one bit
flip at a time (a Gray-code walk, so coverage and scores update
incrementally), and manipulation questions are answered by trying every
subset of actionable voters.  None of the solver machinery is imported — these answers come from
a different code path on purpose.

The enumeration cost is exponential, so every entry point takes a cap and
raises :class:`CapExceeded` instead of silently grinding.
"""

from __future__ import annotations

from .records import Frozen

DEFAULT_MAX_ITEMS = 20


class OracleBudget(Frozen):
    """Caps for the exhaustive search (2**max_items subsets get visited)."""

    __slots__ = _fields = ("max_items",)

    def __init__(self, max_items: int = DEFAULT_MAX_ITEMS):
        object.__setattr__(self, "max_items", max_items)

    def check(self, n_items):
        if n_items > self.max_items:
            raise CapExceeded(
                "exhaustive search over %d items exceeds the cap of %d"
                % (n_items, self.max_items)
            )


class CapExceeded(ValueError):
    """The requested exhaustive search is larger than the budget allows."""


class OracleAnswer(Frozen):
    __slots__ = _fields = ("feasible", "best_cost", "witness")

    def __init__(self, feasible: bool, best_cost: int | None = None,
                 witness: tuple = ()):
        object.__setattr__(self, "feasible", feasible)
        object.__setattr__(self, "best_cost", best_cost)
        object.__setattr__(self, "witness", witness)


def _gray_subsets(n):
    """Yield (subset_as_set, flipped_index, now_in) over a Gray-code walk.

    The first yield is the empty set with no flip (index None).  The set
    object is reused between yields; callers must not hold on to it.
    """
    current = set()
    yield current, None, False
    for step in range(1, 1 << n):
        bit = (step & -step).bit_length() - 1
        if bit in current:
            current.discard(bit)
            yield current, bit, False
        else:
            current.add(bit)
            yield current, bit, True


def _cheapest(prices, changes, tally, budget, accept):
    """Cheapest subset of items whose tally ``accept`` takes, by a Gray walk.

    Taking item i adds ``changes[i]`` ((key, amount) pairs) to ``tally``.
    Ties are broken toward the lexicographically smallest sorted index tuple,
    so the answer is deterministic.
    """
    tally = dict(tally)
    cost = 0
    best = None
    for subset, flipped, now_in in _gray_subsets(len(prices)):
        if flipped is not None:
            sign = 1 if now_in else -1
            cost += sign * prices[flipped]
            for key, amount in changes[flipped]:
                tally[key] += sign * amount
        if cost > budget or not accept(tally):
            continue
        key = (cost, tuple(sorted(subset)))
        if best is None or key < best:
            best = key
    if best is None:
        return OracleAnswer(False)
    return OracleAnswer(True, best[0], best[1])


def brute_cover(instance, caps: OracleBudget | None = None) -> OracleAnswer:
    """Cheapest sub-family meeting every coverage requirement, by enumeration."""
    caps = caps or OracleBudget()
    caps.check(instance.n_sets)
    need = list(enumerate(instance.requirements))
    return _cheapest(
        instance.weights, instance.sets, dict.fromkeys(range(instance.m), 0),
        instance.budget, lambda coverage: all(coverage[e] >= r for e, r in need))


# ---------------------------------------------------------------------------
# election manipulation by enumeration
# ---------------------------------------------------------------------------


def _wins(scores, p, unique_winner):
    mine = scores.get(p, 0)
    rivals = [s for c, s in scores.items() if c != p]
    if not rivals:
        return True
    top = max(rivals)
    return mine > top if unique_winner else mine >= top


def brute_manipulate(problem, election, preferred, caps=None, unique_winner=False):
    """Answer a manipulation question by trying every subset of voters.

    ``problem`` selects the action:

    * ``"ccdv"``    — delete approval voters, each with a price.
    * ``"ccav"``    — add approval voters from the spare pool, each priced.
    * ``"bribery"`` — rewrite an approval ballot, each voter priced.
    * any of those with voter weights — prices must then be one each.
    * ``"scoring-ccdv"`` — delete ordinal voters under a scoring rule.

    Bribed voters end up approving exactly {p}.  Any feasible bribery can be
    rewritten (at equal cost, never hurting p) so each bribed ballot becomes
    {p}: p gains at least as much and every rival keeps at most its score.
    Enumerating that restricted space is therefore exact for the yes/no
    question and for the minimum cost.

    Returns the cheapest feasible action set (deterministic tie-break), or
    ``feasible=False``.
    """
    if problem not in ("ccdv", "ccav", "bribery", "scoring-ccdv"):
        raise ValueError("unknown manipulation problem %r" % (problem,))
    caps = caps or OracleBudget()
    if problem == "scoring-ccdv":
        def points(v):
            return list(zip(v.ranking, election.scoring_vector))
    else:
        def points(v):
            return [(c, v.weight) for c in v.approved]

    # Adding a pool voter adds its points; deleting or bribing a registered
    # voter takes its points away, and a bribed ballot then gives p its weight.
    items = election.pool if problem == "ccav" else election.voters
    caps.check(len(items))
    sign = 1 if problem == "ccav" else -1
    changes = [[(c, sign * w) for c, w in points(v)] for v in items]
    if problem == "bribery":
        for v, change in zip(items, changes):
            change.append((preferred, v.weight))
    scores = dict.fromkeys(election.candidates, 0)
    for v in election.voters:
        for c, w in points(v):
            scores[c] += w
    return _cheapest([v.price for v in items], changes, scores, election.budget,
                     lambda tally: _wins(tally, preferred, unique_winner))


# ---------------------------------------------------------------------------
# hard-instance generators
# ---------------------------------------------------------------------------


def subset_sums(numbers):
    """All achievable subset sums (labels the generated instances)."""
    sums = {0}
    for k in numbers:
        sums |= {s + k for s in sums}
    return sums


def gen_partition_wmm(numbers):
    """A one-element weighted multiset multicover encoding of PARTITION.

    One set per number k: it covers the single element k times and weighs k.
    Requiring half the total (rounded up) within a budget of half the total
    (rounded down) is feasible exactly when the numbers split evenly.
    """
    numbers = [int(k) for k in numbers]
    if any(k <= 0 for k in numbers):
        raise ValueError("numbers must be positive")
    total = sum(numbers)
    from .covering import CoverInstance

    return CoverInstance(
        m=1,
        sets=[{0: k} for k in numbers],
        weights=list(numbers),
        requirements=[(total + 1) // 2],
        budget=total // 2,
    )


def gen_subsetsum_mmc(numbers, target):
    """A two-element multiset multicover encoding of SUBSET-SUM.

    Set i covers element 0 exactly k_i times and element 1 (big - k_i)
    times, with big larger than the target; n filler sets cover element 1
    big times each.  Under a budget of n unit-weight sets, meeting the
    requirements (target, n*big - target) forces exactly n sets whose
    element-0 coverage is the target on the nose, so the instance is
    feasible exactly when some subset of the numbers sums to the target.
    """
    numbers = [int(k) for k in numbers]
    target = int(target)
    if any(k <= 0 for k in numbers):
        raise ValueError("numbers must be positive")
    if target <= 0:
        raise ValueError("target must be positive")
    n = len(numbers)
    big = max(max(numbers), target) + 1
    from .covering import CoverInstance

    sets = [{0: k, 1: big - k} for k in numbers]
    sets += [{1: big} for _ in range(n)]
    return CoverInstance(
        m=2,
        sets=sets,
        requirements=[target, n * big - target],
        budget=n,
    )


def gen_hard_instances(kind, count, rng):
    """Labelled covering instances built from NP-hard number problems.

    Returns ``count`` pairs ``(instance, feasible)`` where the label comes
    from an elementary subset-sum enumeration, not from any solver.  ``rng``
    is a :class:`random.Random`; ``kind`` is ``"partition-wmm"`` or
    ``"subsetsum-mmc"``.
    """
    out = []
    for _ in range(count):
        n = rng.randint(3, 7)
        numbers = [rng.randint(1, 12) for _ in range(n)]
        achievable = subset_sums(numbers)
        if kind == "partition-wmm":
            total = sum(numbers)
            label = total % 2 == 0 and total // 2 in achievable
            out.append((gen_partition_wmm(numbers), label))
        elif kind == "subsetsum-mmc":
            if rng.random() < 0.5:
                target = rng.choice(sorted(s for s in achievable if s > 0))
            else:
                target = rng.randint(1, sum(numbers))
            label = target in achievable
            out.append((gen_subsetsum_mmc(numbers, target), label))
        else:
            raise ValueError("unknown instance kind %r" % (kind,))
    return out
