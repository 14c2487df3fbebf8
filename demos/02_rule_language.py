"""A tour of the rule language: parsing, evaluation, canonical printing.

Rules are '.'-terminated clauses over one implicit subject, with quoted or
bare constants, numeric variable bindings, `=<` comparisons (optionally
negated), negation as failure, and `ab`-prefixed exception predicates.

The german bundle's decision rules describe the favourable label 'good', so
a profile is rejected when none of them fires.  Full states of the loaded
bundle are evaluated through its ``Dataset``, which compiles the rules to
bit masks over the config's domains.
"""

from pathlib import Path

from p2c import canonicalize, load_dataset, mentioned_values, validate_state

DATA = Path(__file__).resolve().parent.parent / "data"

german = load_dataset(DATA / "german")
program = german.decision
print(f"{len(program.rules)} main rule(s), {len(program.aux_rules)} exception rule(s)")
# which label the rules name is read off the config's undesired_decision
print("rules name the favourable label:", german.compiled.favourable)


def changed(state, **values):
    return validate_state(german.config, {**german.config.state_dict(state), **values})


profile = german.default_instance()
print("profile:", german.config.state_dict(profile))
print("rejected:", german.decision_positive(profile))
assert german.decision_positive(profile)

# a 21-month loan meets rule 2's duration test, but ab1 blocks rule 2 for a
# 'car or other' loan of at most 1345
short = changed(profile, duration_months=21)
print("with a 21-month loan, rejected:", german.decision_positive(short))
assert german.decision_positive(short)

# borrowing past the exception's bound unblocks rule 2
larger = changed(short, credit_amount=1346)
print("and 1346 borrowed, rejected:", german.decision_positive(larger))
assert not german.decision_positive(larger)

# rule 1: no checking account is a good credit whatever else holds
no_account = changed(profile, checking_account_status="no_checking_account")
print("with no checking account, rejected:", german.decision_positive(no_account))
assert not german.decision_positive(no_account)

# every constant or bound the program applies to one feature; the numeric
# domains of the config are built from these
print("values mentioned for credit_amount:", mentioned_values(program, "credit_amount"))
print("credit_amount domain:", german.config.feature("credit_amount").domain)

# the canonical form is stable: parse . print is a fixpoint
once = canonicalize((DATA / "german" / "decision.rules").read_text(encoding="utf-8"))
print("canonical form:")
print(once)
assert canonicalize(once) == once
