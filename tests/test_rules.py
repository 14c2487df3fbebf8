from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from oracles import _tokenize as reference_tokenize
from oracles import program_decides, rule_fires
from p2c.errors import EvaluationError, RuleProgramError, RuleSyntaxError
from p2c.rules import (
    COMPARISON,
    NEG_FEATURE_TEST,
    NUMERIC_BINDING,
    _position,
    _tokenize,
    canonicalize,
    mentioned_values,
    parse_rule_program,
)

ADULT_RULE = (
    "label(X,'<=50K') :- not marital_status(X,'Married-civ-spouse'), "
    "capital_gain(X,N1), N1=<6849.0."
)


def test_parse_adult_rule_structure():
    program = parse_rule_program(ADULT_RULE)
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.head.predicate == "label"
    assert rule.head.value == "<=50K"
    kinds = [lit.kind for lit in rule.body]
    assert kinds == [NEG_FEATURE_TEST, NUMERIC_BINDING, COMPARISON]
    assert rule.body[0].value == "Married-civ-spouse"
    assert rule.body[2].bound == 6849.0


def test_parse_empty_text_gives_empty_program():
    program = parse_rule_program("")
    assert program.rules == ()
    assert program.aux_rules == ()


def test_parse_comments_and_whitespace_insensitive():
    text = """
    % a comment line
    label(X,'bad')
        :-   f(X,'a') ,
             not g(X,'b') .
    """
    program = parse_rule_program(text)
    assert len(program.rules) == 1


def test_aux_rules_are_separated():
    text = (
        "label(X,'good') :- not ab1(X,'True').\n"
        "ab1(X,'True') :- property(X,'car or other'), credit_amount(X,N2), N2=<1345.0."
    )
    program = parse_rule_program(text)
    assert len(program.rules) == 1
    assert len(program.aux_rules) == 1
    assert program.aux_rules[0].head.predicate == "ab1"


def test_round_trip_is_canonical_fixpoint():
    text = "ab1(X,'True') :- property(X,'car or other'), credit_amount(X,N2), N2=<1345.0."
    once = canonicalize(text)
    assert canonicalize(once) == once
    assert once == "ab1(X,'True') :- property(X,'car or other'), credit_amount(X,N2), N2=<1345.0.\n"


def test_bare_constants_are_quoted_canonically():
    text = "marital_status(X,neither) :- not relationship(X,'Husband')."
    assert canonicalize(text, "causal") == (
        "marital_status(X,'neither') :- not relationship(X,'Husband').\n"
    )


def test_negated_comparison_round_trip():
    text = "label(X,'good') :- credit_amount(X,N2), not(N2=<428.0)."
    once = canonicalize(text)
    assert "not(N2=<428.0)" in once
    assert canonicalize(once) == once


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("label(X,'a') :- f(X,'b')", "'.'"),
        ("label(X,N1) :- f(X,'b').", "constant"),
        ("label(X,'a') :- N1=<3.0.", "before being bound"),
        ("label(X,'a') :- f(X,N1), N1=<3.0, not(N2=<4.0).", "before being bound"),
        ("label(X,'a') :- f(X,N1), f(X,N1).", "bound twice"),
        ("label(X,'a') :- f(X,N1), N1>=3.0.", "unexpected character"),
        ("label(X,'a') :- f(Y,'b').", "subject variable"),
        ("label(X,'a') :- not f(X,N1).", "negated"),
        ("label(X,'a') :- f(X,", "expected ')'"),  # cut after a body literal's comma
        ("label(X,'a') :- not f(X,", "expected ')'"),
    ],
)
def test_syntax_errors(bad, fragment):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_program(bad)
    assert fragment in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_program("label(X,'a') :-\n  f(X 'b').")
    assert err.value.line == 2
    assert err.value.column > 1


@pytest.mark.parametrize(
    "bad, line, column",
    [
        ("% a comment\nlabel(X,'a') :- f(X,'b') & g(X,'c').", 2, 26),  # after a comment line
        ("\n\n  \nlabel(X,'a') :-\n\n   f(X 'b').", 6, 8),  # after blank lines
        ("label(X,'a') :- f(X,'b'). label(X,'a') :- g(X,'c'), .", 1, 53),  # second rule
        ("label(X,'a') :- f(X,'b).\nlabel(X,'a') :- g(X,'c').", 1, 21),  # unterminated quote
        ("label(X,'a') :-\n  not f(X,", 2, 11),  # cut after a comma: at the end of the text
    ],
)
def test_syntax_error_position_is_exact(bad, line, column):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_program(bad)
    assert (err.value.line, err.value.column) == (line, column)


def _tokens(text):
    """p2c's tokens as (kind, text, line, column), each position found by the
    rescan errors use, or the error's position."""
    try:
        kinds, texts = _tokenize(text)
    except RuleSyntaxError as exc:
        return ("error", exc.line, exc.column)
    return [(k, t, *_position(text, i)) for i, (k, t) in enumerate(zip(kinds, texts))]


def _reference_tokens(text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in reference_tokenize(text)]
    except RuleSyntaxError as exc:
        return ("error", exc.line, exc.column)


def _same_tokens(text):
    return _tokens(text) == _reference_tokens(text)


def test_tokenizer_matches_reference_on_rule_files():
    files = sorted(conftest.DATA.rglob("*.rules")) + sorted(conftest.SUPPLEMENT.rglob("*.rules"))
    assert len(files) >= 15
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert _same_tokens(text), path


def test_tokenizer_matches_reference_on_generated_programs(monkeypatch):
    """Every rule text the test generators parse tokenizes as the reference does."""
    texts = []

    def recording(text, kind="decision"):
        texts.append(text)
        return parse_rule_program(text, kind)

    monkeypatch.setattr(conftest, "parse_rule_program", recording)
    for seed in range(300):
        conftest.random_dataset(seed)
        conftest.rich_dataset(seed)
    for n in range(3, 13):
        conftest.chained_ladder(0, n)
        conftest.deep_ladder(n)
    conftest.l2_root_tie()
    conftest.absorbed_l2()
    conftest.cyclic_dataset()
    assert len(texts) >= 1200
    for text in texts:
        assert _same_tokens(text), text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \n\n",
        "% only a comment",
        "% comment\r\nlabel(X,'a') :- f(X,'b').\r\n",
        "label(X,'a') :-\tf(X,N1), N1=<-2.5. % trailing\n\n\tab1(X,'True') :- g(X,'c').",
        "label(X,'a') :- f(X,'b') & g.",
        "\n\nlabel(X,'a') :- f(X,'b\n",
        "label(X,'it''s') :- f(X,'a').",
    ],
)
def test_tokenizer_matches_reference_on_edge_texts(text):
    assert _same_tokens(text)


# Pieces of rule text, among them the Unicode digit '٣' (which \d takes);
# then at most one stray piece: a lone '-', '=' or quote, an unterminated
# string, or the letter 'é' (which [A-Za-z_] does not take).
TOKEN_PIECES = (
    ":-", "=<", "(", ")", ",", ".", " ", "\t", "\n", "\r\n",
    "label", "f", "ab1", "X", "N1", "not", "_x", "Ab_2",
    "'a'", "'it s'", "''", "1", "-2.5", "3.", "07", "\u0663", "-\u0663.5",
    "% note", "% verified: yes\n", "%",
)
STRAY_PIECES = ("-", "=", "'", ":", "'b\n", "\u00e9", "&")


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from(TOKEN_PIECES), max_size=24),
    st.none() | st.tuples(st.integers(0, 24), st.sampled_from(STRAY_PIECES)),
)
def test_tokenizer_matches_reference_on_drawn_texts(pieces, stray):
    """The findall tokenizer and the named-group reference agree on every
    token's kind, text, line and column, or raise at the same place."""
    if stray is not None:
        pieces.insert(*stray)
    text = "".join(pieces)
    assert _tokens(text) == _reference_tokens(text)


def test_stratification_violations_rejected():
    with pytest.raises(RuleProgramError, match="own head"):
        parse_rule_program("label(X,'a') :- label(X,'b').")
    with pytest.raises(RuleProgramError, match="decision predicate"):
        parse_rule_program("label(X,'a') :- f(X,'v').\nab1(X,'True') :- label(X,'a').")
    with pytest.raises(RuleProgramError, match="cycle"):
        parse_rule_program(
            "label(X,'a') :- ab1(X,'True').\n"
            "ab1(X,'True') :- not ab2(X,'True').\n"
            "ab2(X,'True') :- ab1(X,'True')."
        )
    with pytest.raises(RuleProgramError, match="never defined"):
        parse_rule_program("label(X,'a') :- ab9(X,'True').")


def test_decision_program_single_head_enforced():
    with pytest.raises(RuleProgramError, match="single head"):
        parse_rule_program("label(X,'a') :- f(X,'v').\nlabel(X,'b') :- g(X,'w').")


# ---------------------------------------------------------------------------
# Evaluation by the tests' reference interpreter (oracles.rule_fires)
# ---------------------------------------------------------------------------

JOHN = {"age": 31.0, "debt": 5000.0, "loan_duration": 12.0,
        "bank_balance": 40000.0, "credit_score": 599.0}
REJECT_RULE = "reject(X,'True') :- bank_balance(X,N1), N1=<59999.0."


def test_rule_fires_on_low_balance():
    program = parse_rule_program(REJECT_RULE)
    assert rule_fires(program.rules[0], JOHN, program) is True
    goal = dict(JOHN, bank_balance=60000.0)
    assert rule_fires(program.rules[0], goal, program) is False


def test_empty_body_fires_vacuously():
    program = parse_rule_program("label(X,'bad').")
    assert rule_fires(program.rules[0], {"anything": "x"}, program) is True


def test_rule_fires_missing_feature_errors():
    program = parse_rule_program(REJECT_RULE)
    with pytest.raises(EvaluationError, match="bank_balance"):
        rule_fires(program.rules[0], {"age": 31.0}, program)


def test_program_decides_german_no_checking():
    text = (SUPPLEMENT_GERMAN := None) or (
        "label(X,'good') :- checking_account_status(X,'no_checking_account').\n"
        "label(X,'good') :- not checking_account_status(X,'no_checking_account'), "
        "not credit_history(X,'all_dues_atbank_cleared'), duration_months(X,N1), N1=<21.0, "
        "credit_amount(X,N2), not(N2=<428.0), not ab1(X,'True').\n"
        "ab1(X,'True') :- property(X,'car or other'), credit_amount(X,N2), N2=<1345.0."
    )
    program = parse_rule_program(text)
    state = {
        "checking_account_status": "no_checking_account",
        "credit_history": "critical_account",
        "duration_months": 48.0,
        "credit_amount": 300.0,
        "property": "car or other",
    }
    assert program_decides(program, state) is True
    # second rule blocked by the exception predicate
    state2 = dict(
        state,
        checking_account_status="lt_0",
        duration_months=12.0,
        credit_amount=1000.0,
    )
    assert program_decides(program, state2) is False
    # escaping the exception unblocks it
    state3 = dict(state2, credit_amount=1400.0)
    assert program_decides(program, state3) is True


def test_program_with_zero_rules_decides_nothing():
    program = parse_rule_program("")
    assert program_decides(program, {"f": "v"}) is False


def test_cars_decision_counts_match_literal_interpreter(cars):
    """Count 'negative' verdicts over all 1728 states two independent ways."""
    from p2c.domain import enumerate_states

    def literal_negative(row):
        return (
            row["persons"] == "2"
            or row["safety"] == "low"
            or (row["buying"] == "vhigh" and row["maint"] == "vhigh")
            or (row["buying"] not in ("low", "med") and row["maint"] == "vhigh")
            or (row["buying"] == "vhigh" and row["maint"] == "high")
        )

    engine = 0
    oracle = 0
    for state in enumerate_states(cars.config):
        row = cars.config.state_dict(state)
        engine += program_decides(cars.decision, row)
        oracle += literal_negative(row)
    assert engine == oracle == 1104


# ---------------------------------------------------------------------------
# mentioned_values
# ---------------------------------------------------------------------------


def test_mentioned_values_cars_buying(cars):
    assert mentioned_values(cars.decision, "buying") == {"vhigh", "low", "med"}


def test_mentioned_values_unknown_feature_empty(cars):
    assert mentioned_values(cars.decision, "nonexistent") == set()


def test_mentioned_values_adult_capital_gain(adult):
    assert mentioned_values(adult.decision, "capital_gain") == {6849.0, 5013.0}


def test_mentioned_values_includes_aux_and_causal_heads(german, example2):
    assert 1345.0 in mentioned_values(german.decision, "credit_amount")
    assert 620.0 in mentioned_values(example2.causal, "credit_score")


# ---------------------------------------------------------------------------
# Parser corpus: every supplement listing parses and round-trips
# ---------------------------------------------------------------------------


def test_supplement_corpus_round_trips(supplement_dir):
    kinds = {"decision": "decision", "causal": "causal"}
    files = sorted(supplement_dir.glob("*.rules"))
    assert len(files) >= 5
    for path in files:
        kind = "causal" if "causal" in path.name else "decision"
        text = path.read_text(encoding="utf-8")
        once = canonicalize(text, kind)
        assert canonicalize(once, kind) == once


def test_shipped_rule_files_round_trip(data_dir):
    for rules_path in sorted(data_dir.glob("*/*.rules")):
        kind = "causal" if "causal" in rules_path.name else "decision"
        text = rules_path.read_text(encoding="utf-8")
        once = canonicalize(text, kind)
        assert canonicalize(once, kind) == once


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

VALUES = ("a", "b", "c")


@st.composite
def total_state(draw):
    return {
        "f": draw(st.sampled_from(VALUES)),
        "g": draw(st.sampled_from(VALUES)),
        "n": float(draw(st.integers(0, 10))),
    }


@given(total_state(), st.sampled_from(VALUES))
def test_negation_totality(state, value):
    pos = parse_rule_program(f"label(X,'bad') :- f(X,'{value}').")
    neg = parse_rule_program(f"label(X,'bad') :- not f(X,'{value}').")
    fires_pos = rule_fires(pos.rules[0], state, pos)
    fires_neg = rule_fires(neg.rules[0], state, neg)
    assert fires_pos != fires_neg


@given(total_state(), st.randoms())
def test_body_order_irrelevant(state, rng):
    body = ["f(X,'a')", "not g(X,'b')", "n(X,N1)", "N1=<5.0"]
    program = parse_rule_program("label(X,'bad') :- " + ", ".join(body) + ".")
    reference = rule_fires(program.rules[0], state, program)
    # any permutation keeping the binding before the comparison
    for _ in range(5):
        perm = body[:]
        rng.shuffle(perm)
        if perm.index("n(X,N1)") > perm.index("N1=<5.0"):
            continue
        shuffled = parse_rule_program("label(X,'bad') :- " + ", ".join(perm) + ".")
        assert rule_fires(shuffled.rules[0], state, shuffled) == reference


@given(total_state())
def test_program_decides_monotone_in_rule_addition(state):
    base = "label(X,'bad') :- f(X,'a'), not g(X,'c')."
    extended = base + "\nlabel(X,'bad') :- n(X,N1), N1=<4.0."
    p1 = parse_rule_program(base)
    p2 = parse_rule_program(extended)
    if program_decides(p1, state):
        assert program_decides(p2, state)


@given(total_state())
def test_evaluation_deterministic(state):
    program = parse_rule_program("label(X,'bad') :- f(X,'a'), n(X,N1), not(N1=<3.0).")
    assert program_decides(program, state) == program_decides(program, state)
