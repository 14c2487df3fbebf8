from __future__ import annotations

import random
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO = TESTS_DIR.parent
DATA = REPO / "data"
SUPPLEMENT = TESTS_DIR / "fixtures" / "supplement"

sys.path.insert(0, str(TESTS_DIR))

from p2c import load_dataset  # noqa: E402
from p2c.dataset import build_dataset  # noqa: E402
from p2c.domain import DatasetConfig, FeatureSpec  # noqa: E402
from p2c.rules import parse_rule_program  # noqa: E402


# What one compiled causal group says of a state: the fired head value (None
# when no alternative fires), the other alternatives' head values, the text of
# the fired rules, and the values the group allows, the repair fallback first.
GroupReading = namedtuple("GroupReading", "feature required excluded provenance allowed")


def compiled_groups(dataset, state) -> dict[str, GroupReading]:
    """Each causal group's reading of ``state``, by head feature in group
    order, straight from the compiled groups: ``g.fired``, ``g.allowed`` with
    ``g.first[fired]`` first and the rest in domain order, and
    ``CompiledRules.provenance``."""
    compiled = dataset.compiled
    bits = compiled.bits(state)
    out = {}
    for g in compiled.groups:
        fired = g.fired(bits)
        domain, offset, first = compiled.domains[g.fi], compiled.offsets[g.fi], g.first[fired]
        rest = g.allowed[fired] & ~first
        allowed = (domain[first.bit_length() - 1 - offset],) if first else ()
        allowed += tuple(v for j, v in enumerate(domain) if rest >> (offset + j) & 1)
        out[g.feature] = GroupReading(
            feature=g.feature,
            required=g.head_values[fired] if fired >= 0 else None,
            excluded=tuple(v for a, v in enumerate(g.head_values) if a != fired),
            provenance=compiled.provenance(g.fi, bits),
            allowed=allowed,
        )
    return out


@contextmanager
def budget(seconds: float, label: str):
    """Fail the test if the block takes ``seconds`` or more; print its time."""
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{label}: took {elapsed:.2f}s, budget {seconds}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def supplement_dir():
    return SUPPLEMENT


@pytest.fixture(scope="session")
def example1():
    return load_dataset(DATA / "example1")


@pytest.fixture(scope="session")
def example2():
    return load_dataset(DATA / "example2")


@pytest.fixture(scope="session")
def adult():
    return load_dataset(DATA / "adult")


@pytest.fixture(scope="session")
def german():
    return load_dataset(DATA / "german")


@pytest.fixture(scope="session")
def cars():
    return load_dataset(DATA / "cars")


def make_dataset(feature_domains, decision_text, causal_text="", **config_kwargs):
    """Small helper to assemble an in-memory dataset for targeted tests.

    ``feature_domains`` maps name -> domain tuple (categorical) or
    FeatureSpec for full control.
    """
    features = []
    for name, dom in feature_domains.items():
        if isinstance(dom, FeatureSpec):
            features.append(dom)
        else:
            features.append(FeatureSpec(name=name, kind="categorical", domain=tuple(dom)))
    defaults = dict(
        name="inline",
        features=tuple(features),
        undesired_decision="bad",
        norm_p=1,
    )
    defaults.update(config_kwargs)
    config = DatasetConfig(**defaults)
    decision = parse_rule_program(decision_text, "decision")
    causal = parse_rule_program(causal_text, "causal")
    return build_dataset(config, decision, causal)


def random_dataset(seed: int, *, max_features=5, max_values=6, with_causal=True,
                   with_plausibility=True):
    """A random stratified rule setup over categorical features.

    Causal alternatives are guarded by complementary literals on one other
    feature, so no two alternatives of a group can fire at once.
    Returns None when the generated program leaves no decision-positive,
    causally consistent instance to start from.
    """
    rng = random.Random(seed)
    nf = rng.randint(2, max_features)
    names = [f"f{i}" for i in range(nf)]
    domains = {n: tuple(f"v{j}" for j in range(rng.randint(2, max_values))) for n in names}

    def lit(feature):
        value = rng.choice(domains[feature])
        neg = "not " if rng.random() < 0.4 else ""
        return f"{neg}{feature}(X,'{value}')"

    decision_rules = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, min(3, nf))
        feats = rng.sample(names, k)
        decision_rules.append("label(X,'bad') :- " + ", ".join(lit(f) for f in feats) + ".")

    causal_rules = []
    causal_heads = []
    if with_causal and nf >= 2:
        for head in rng.sample(names, rng.randint(0, min(2, nf - 1))):
            guards = [n for n in names if n != head]
            guard = rng.choice(guards)
            gv = rng.choice(domains[guard])
            values = list(domains[head])
            rng.shuffle(values)
            causal_rules.append(f"{head}(X,'{values[0]}') :- {guard}(X,'{gv}').")
            if len(values) > 1 and rng.random() < 0.7:
                causal_rules.append(f"{head}(X,'{values[1]}') :- not {guard}(X,'{gv}').")
            causal_heads.append(head)

    features = []
    for n in names:
        mutable = True
        actionable = True
        monotone = "none"
        if with_plausibility:
            roll = rng.random()
            if roll < 0.08:
                mutable = False
            elif roll < 0.20 and n in causal_heads:
                actionable = False
            elif roll < 0.28:
                monotone = rng.choice(("nondecreasing", "nonincreasing"))
        features.append(
            FeatureSpec(
                name=n,
                kind="categorical",
                domain=domains[n],
                mutable=mutable,
                monotone=monotone,
                directly_actionable=actionable,
            )
        )
    config = DatasetConfig(
        name=f"random{seed}",
        features=tuple(features),
        undesired_decision="bad",
        norm_p=rng.choice((0, 1, 2)),
    )
    try:
        dataset = build_dataset(
            config,
            parse_rule_program("\n".join(decision_rules), "decision"),
            parse_rule_program("\n".join(causal_rules), "causal"),
        )
    except Exception:
        return None
    from p2c.domain import enumerate_states

    starts = [
        s
        for s in enumerate_states(config)
        if dataset.decision_positive(s) and dataset.consistent(s)
    ]
    if not starts:
        return None
    return dataset, starts[rng.randrange(len(starts))]


def deep_ladder(n: int):
    """n features x 4 values, each change costing 1, and r = n // 2 rejecting
    rules ``label(X,'bad') :- xi(X,'a').`` on the first r features, with an
    all-'a' start.  Every goal moves those r features off 'a', so the
    optimum is r, and a search that pops cheap vectors one at a time sees
    every vector of cost below r first.  Returns the dataset and the start.
    """
    from p2c.domain import State

    names = [f"x{i}" for i in range(n)]
    decision = "\n".join(f"label(X,'bad') :- {f}(X,'a')." for f in names[: n // 2])
    dataset = make_dataset({f: ("a", "b", "c", "d") for f in names}, decision,
                           name=f"deep{n}")
    return dataset, State(("a",) * n)


def l2_root_tie():
    """Three categorical features weighted 0.6, 0.2 and 0.4 under p = 2, and
    rules that reject f = 'a' unless both g and h leave 'a'.  From all 'a',
    moving f sums to 0.6 and moving g and h to 0.2 + 0.4, a larger float
    with the same square root, so the two goals tie and rank decides.
    Returns the dataset and the start."""
    from p2c.domain import State

    spec = lambda name, w: FeatureSpec(name=name, kind="categorical", domain=("a", "b"), weight=w)
    dataset = make_dataset(
        {"f": spec("f", 0.6), "g": spec("g", 0.2), "h": spec("h", 0.4)},
        "label(X,'bad') :- f(X,'a'), g(X,'a').\nlabel(X,'bad') :- f(X,'a'), h(X,'a').",
        name="l2-root-tie", norm_p=2,
    )
    return dataset, State(("a", "a", "a"))


def absorbed_l2():
    """A numeric feature n over the range [0, 1e9] and a categorical c, under
    p = 2, rejecting c = 'a'.  A move of n adds at most (3 / 1e9)^2 to the sum,
    which 1.0 absorbs, so every goal costs 1.0 and rank alone orders them.
    Returns the dataset and the start n = 2.0, c = 'a'."""
    from p2c.domain import State

    n = FeatureSpec(name="n", kind="numeric", domain=(0.0, 1.0, 2.0, 3.0),
                    numeric_range=(0.0, 1e9))
    dataset = make_dataset({"n": n, "c": ("a", "b")}, "label(X,'bad') :- c(X,'a').",
                           name="absorbed-l2", norm_p=2)
    return dataset, State((2.0, "a"))


def cyclic_dataset():
    """A causal cycle with consistent goals: x and y hold each other at 'a'
    or leave it together, and z says where x goes."""
    causal = """\
x(X,'a') :- y(X,'a').
x(X,'b') :- not y(X,'a'), z(X,'p').
y(X,'a') :- x(X,'a').
y(X,'c') :- not x(X,'a').
"""
    decision = "label(X,'bad') :- x(X,'a'), not w(X,'r').\nlabel(X,'bad') :- z(X,'q'), w(X,'s')."
    return make_dataset(
        {"x": ("a", "b", "c"), "y": ("a", "b", "c"), "z": ("p", "q"), "w": ("r", "s", "t")},
        decision, causal,
    )


def chained_ladder(seed: int, n: int, *, chain: int = 3):
    """A causal chain inside a ladder of n features x 4 values.

    ``chain`` consecutive features are causal heads, none directly
    actionable, each set by an exhaustive two-alternative group on the
    feature before it, so the heads form one chain.  The decision has n + 2
    width-2 rules, each with one literal that fails on a witness state
    built here, so every start has a counterfactual.  Returns the dataset and
    a decision-positive, causally consistent start, or None when no start is
    found.
    """
    rng = random.Random(f"chained-ladder:{seed}:{n}")
    vals = ("a", "b", "c", "d")
    names = [f"x{i}" for i in range(n)]
    chain = min(chain, n - 1)
    first = rng.randrange(n - chain)
    heads = names[first + 1 : first + 1 + chain]
    causal_rules, law = [], {}
    for parent, head in zip(names[first:], heads):
        guard = rng.choice(vals)
        on, off = rng.sample(vals, 2)
        causal_rules.append(f"{head}(X,'{on}') :- {parent}(X,'{guard}').")
        causal_rules.append(f"{head}(X,'{off}') :- not {parent}(X,'{guard}').")
        law[head] = (parent, guard, on, off)

    def follow_chain(state):
        for head in heads:
            parent, guard, on, off = law[head]
            state[head] = on if state[parent] == guard else off
        return state

    witness = follow_chain({f: rng.choice(vals) for f in names})
    decision_rules = []
    for _ in range(n + 2):
        a, b = rng.sample(names, 2)
        miss = rng.choice([v for v in vals if v != witness[a]])
        fails = f"{a}(X,'{miss}')" if rng.random() < 0.5 else f"not {a}(X,'{witness[a]}')"
        other = f"{'not ' if rng.random() < 0.5 else ''}{b}(X,'{rng.choice(vals)}')"
        decision_rules.append(f"label(X,'bad') :- {fails}, {other}.")
    config = DatasetConfig(
        name=f"chained{seed}_{n}",
        features=tuple(
            FeatureSpec(name=f, kind="categorical", domain=vals, directly_actionable=f not in heads)
            for f in names
        ),
        undesired_decision="bad",
        norm_p=1,
    )
    dataset = build_dataset(
        config,
        parse_rule_program("\n".join(decision_rules), "decision"),
        parse_rule_program("\n".join(causal_rules), "causal"),
    )
    from p2c.domain import State

    for _ in range(200):
        drawn = follow_chain({f: rng.choice(vals) for f in names})
        start = State(tuple(drawn[f] for f in names))
        if dataset.decision_positive(start):
            return dataset, start
    return None


def rich_dataset(seed: int):
    """A random program over mixed categorical and numeric features, with
    exception predicates (called plainly, negated and from one another),
    numeric ``=<`` and ``not(=<)`` tests, direction-aware numeric causal
    heads, and causal alternatives free to fire together.  Such a program
    fails to compile, on its first query: 69 of seeds 0..299 do."""
    rng = random.Random(seed)
    features = []
    for i in range(rng.randint(2, 4)):
        if rng.random() < 0.45:
            domain = tuple(float(v) for v in sorted(rng.sample(range(21), rng.randint(2, 4))))
            features.append(FeatureSpec(
                name=f"n{i}", kind="numeric", domain=domain, numeric_range=(0.0, 20.0),
                causal_direction=rng.choice(("exact", "at_least", "at_most")),
            ))
        else:
            domain = tuple(f"v{j}" for j in range(rng.randint(2, 4)))
            features.append(FeatureSpec(name=f"c{i}", kind="categorical", domain=domain))
    names = [f.name for f in features]

    def literals(allowed, aux_names):
        out, var = [], 0
        for name in rng.sample(allowed, rng.randint(1, min(2, len(allowed)))):
            spec = next(f for f in features if f.name == name)
            neg = "not " if rng.random() < 0.4 else ""
            if spec.kind == "numeric" and rng.random() < 0.8:
                var += 1
                bound = rng.choice((rng.randint(0, 20) + 0.0, rng.randint(0, 19) + 0.5))
                test = f"N{var}=<{bound}" if not neg else f"not(N{var}=<{bound})"
                out += [f"{name}(X,N{var})", test]
            elif spec.kind == "numeric":
                out.append(f"{neg}{name}(X,{rng.choice(spec.domain)})")
            else:
                out.append(f"{neg}{name}(X,'{rng.choice(spec.domain + ('zz',))}')")
        for aux in aux_names:
            if rng.random() < 0.35:
                out.append(f"{'not ' if rng.random() < 0.6 else ''}{aux}(X,'True')")
        return out

    def aux_layer(allowed):
        rules = []
        for k in (1, 2):
            for _ in range(rng.randint(1, 2)):
                body = literals(allowed, [f"ab{j}" for j in range(1, k)])
                rules.append(f"ab{k}(X,'True') :- {', '.join(body)}.")
        return rules

    head = rng.choice(("bad", "good"))
    decision = aux_layer(names) + [
        f"label(X,'{head}') :- {', '.join(literals(names, ['ab1', 'ab2']))}."
        for _ in range(rng.randint(1, 3))
    ]
    causal = []
    heads = rng.sample(names, rng.randint(0, min(2, len(names) - 1)))
    readable = [n for n in names if n not in heads] or names[:1]
    if heads:
        causal += aux_layer(readable)
    for h in heads:
        spec = next(f for f in features if f.name == h)
        values = list(spec.domain) if spec.kind == "categorical" else [
            rng.choice(spec.domain + (7.0,)) for _ in range(3)
        ]
        for value in rng.sample(values, min(len(values), rng.randint(1, 3))):
            shown = f"'{value}'" if spec.kind == "categorical" else value
            for _ in range(rng.randint(1, 2)):
                body = literals([n for n in readable if n != h] or readable, ["ab1", "ab2"])
                causal.append(f"{h}(X,{shown}) :- {', '.join(body)}.")
    config = DatasetConfig(
        name=f"rich{seed}", features=tuple(features), undesired_decision="bad",
    )
    try:
        return build_dataset(
            config,
            parse_rule_program("\n".join(decision), "decision"),
            parse_rule_program("\n".join(causal), "causal"),
        )
    except Exception:
        return None


def tie_dataset(seed: int):
    """Small spaces where cost ties are the rule and domain index breaks
    them.  Features are zero-weight or weighted categoricals and numerics
    over (0, 1, 2, 3, 4) with range 4, some of them monotone; a numeric
    start sits at 2.0 or 1.0, so values on both sides can lie at one
    distance.  A categorical head follows a guard feature half the time.
    Every rejecting rule fires at the start.  Returns the dataset and its
    decision-positive, causally consistent start."""
    from p2c.domain import State

    rng = random.Random(f"ties:{seed}")
    numeric = (0.0, 1.0, 2.0, 3.0, 4.0)
    features, start = [], []
    for i in range(rng.randint(3, 4)):
        weight = rng.choice((0.0, 0.0, 0.5, 1.0))
        if rng.random() < 0.5:
            features.append(FeatureSpec(
                name=f"n{i}", kind="numeric", domain=numeric, numeric_range=(0.0, 4.0),
                weight=weight,
                monotone=rng.choice(("none", "nondecreasing", "nonincreasing")),
            ))
            start.append(rng.choice((2.0, 2.0, 1.0)))
        else:
            features.append(FeatureSpec(
                name=f"c{i}", kind="categorical", domain=("a", "b", "c"), weight=weight,
            ))
            start.append(rng.choice(("a", "b", "c")))
    causal = ""
    if rng.random() < 0.5:
        head, guard = rng.sample(range(len(features)), 2)
        features[head] = FeatureSpec(name=f"h{head}", kind="categorical",
                                     domain=("a", "b", "c"), weight=rng.choice((0.0, 1.0)))
        g = features[guard]
        v = start[guard]
        fires, fails = ((f"{g.name}(X,N), N=<{v}", f"{g.name}(X,N), not(N=<{v})")
                        if g.kind == "numeric" else (f"{g.name}(X,'{v}')", f"not {g.name}(X,'{v}')"))
        on, off = rng.sample(("a", "b", "c"), 2)
        causal = f"h{head}(X,'{on}') :- {fires}.\nh{head}(X,'{off}') :- {fails}."
        start[head] = on
    decision = []
    for _ in range(rng.randint(1, 3)):
        body = []
        for fi in rng.sample(range(len(features)), rng.randint(1, 2)):
            f, v = features[fi], start[fi]
            if f.kind == "numeric":
                body += [f"{f.name}(X,N{fi})",
                         f"N{fi}=<{v + 0.5}" if rng.random() < 0.5 else f"not(N{fi}=<{v - 0.5})"]
            elif rng.random() < 0.5:
                body.append(f"{f.name}(X,'{v}')")
            else:
                body.append(f"not {f.name}(X,'{rng.choice([u for u in 'abc' if u != v])}')")
        decision.append(f"label(X,'bad') :- {', '.join(body)}.")
    config = DatasetConfig(name=f"ties{seed}", features=tuple(features),
                           undesired_decision="bad", norm_p=1)
    dataset = build_dataset(config, parse_rule_program("\n".join(decision), "decision"),
                            parse_rule_program(causal, "causal"))
    return dataset, State(tuple(start))
