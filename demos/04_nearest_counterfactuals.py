"""k-nearest counterfactuals, and where the two cost modes disagree.

goal_knearest returns the k cheapest goal states (causally consistent and
escaping the undesired decision) by a best-first search over boxes of the
space; in ``all_changes`` mode its answer is an exhaustive sort of the goal
set by weighted Lp distance, which this demo checks.  In ``p2c`` mode a
change the causal rules compel is free, which is where the two modes start
to disagree.
"""

from pathlib import Path

from p2c import (
    compute_weighted_lp,
    enumerate_states,
    goal_knearest,
    load_dataset,
    validate_state,
)

DATA = Path(__file__).resolve().parent.parent / "data"

german = load_dataset(DATA / "german")
config = german.config
q = german.default_instance()
weights = config.weights()
goals = [s for s in enumerate_states(config) if german.is_goal(s)]

for p in (0, 1, 2):
    nearest = goal_knearest(german, q, 5, p=p, mode="all_changes")
    # the exhaustive answer: every goal sorted by distance, then lexicographically
    scan = sorted(
        (compute_weighted_lp(config, q, s, weights, p), config.lex_key(s), s) for s in goals
    )
    assert [(r.target, r.cost) for r in nearest] == [(s, d) for d, _, s in scan[:5]]
    print(f"L{p}: 5 nearest goal states at distances {[round(r.cost, 4) for r in nearest]} "
          f"(== exhaustive scan of {len(goals)} goals)")

# a record whose employment field contradicts its job field: every goal state
# must repair it, and only p2c mode prices that repair at zero
raw = dict(german.config.instance_defaults)
raw["present_employment_since"] = "unemployed"
broken = validate_state(german.config, raw)

print("\nnearest goal states for a record needing an employment repair (k=10, L1):")
costs = {}
for mode in ("p2c", "all_changes"):
    reports = goal_knearest(german, broken, 10, p=1, mode=mode, on_inconsistent="allow")
    costs[mode] = [r.cost for r in reports]
    print(f"  {mode:>12}: {[round(c, 4) for c in costs[mode]]}")
assert all(a < b for a, b in zip(costs["p2c"], costs["all_changes"]))
print("every p2c cost sits strictly below its all-changes counterpart here:")
print("the employment change follows causally from the job field, so p2c")
print("mode does not charge for it while all-changes mode does.")
