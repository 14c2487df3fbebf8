"""Parser and printer for the rule language.

Both decision programs (which characterise one classification label) and
causal programs (feature -> feature dependencies) share one clause syntax::

    head(X,'value') :- lit, not lit, feat(X,N1), N1=<21.0, not(N2=<428.0), not ab1(X,'True').

The grammar is deliberately small: one subject variable per clause, constant
heads, conjunction-only bodies, negation as failure, and ``=<`` as the only
comparator.  Anything outside it is rejected with a positioned syntax error.
Exception predicates (``ab1``, ``ab2``, ...) form an acyclic aux layer
beneath the main rules.

Programs are evaluated in one place only: ``masks.CompiledRules`` compiles
them to bit masks over a config's finite domains, and every per-state test
(search, planner, CLI, the surrogate model) runs on those masks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .errors import RuleProgramError, RuleSyntaxError

AUX_RE = re.compile(r"^ab\d*$")

FEATURE_TEST = "feature_test"
NEG_FEATURE_TEST = "negated_feature_test"
NUMERIC_BINDING = "numeric_binding"
COMPARISON = "comparison"
NEG_COMPARISON = "negated_comparison"
AUX_CALL = "aux_call"
NEG_AUX_CALL = "negated_aux_call"


def is_aux_predicate(name: str) -> bool:
    return AUX_RE.match(name) is not None


@dataclass(frozen=True)
class Atom:
    """A predicate applied to the implicit subject plus one constant value."""

    predicate: str
    value: str | float


@dataclass(frozen=True)
class BodyLiteral:
    kind: str
    predicate: str | None = None
    value: str | float | None = None
    variable: str | None = None
    bound: float | None = None

    @property
    def negated(self) -> bool:
        return self.kind in (NEG_FEATURE_TEST, NEG_COMPARISON, NEG_AUX_CALL)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyLiteral, ...] = ()

    @property
    def is_aux(self) -> bool:
        return is_aux_predicate(self.head.predicate)


@dataclass(frozen=True)
class RuleProgram:
    """An ordered set of clauses plus the aux layer they may call into.

    ``describes_undesired`` records whether the (single) decision head labels
    the outcome being escaped; dataset loading flips it for rule sets written
    in terms of the desired label.
    """

    clauses: tuple[Rule, ...]
    kind: str  # "decision" | "causal"
    describes_undesired: bool = True
    verified: bool = False

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.clauses if not r.is_aux)

    @cached_property
    def aux_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.clauses if r.is_aux)

    @property
    def head_label(self) -> Atom | None:
        """The shared (predicate, value) head of the non-aux rules, if any."""
        main = self.rules
        return main[0].head if main else None


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Whitespace and ``%`` comments: skipped, and the only text that holds a newline.
_SKIP = r"(?:\s+|%[^\n]*)*"
_SKIP_RE = re.compile(_SKIP)
# One token and the skipped text after it.  ``.`` takes any character no token
# starts with, so each match starts where the one before it ended.
_TOKEN_RE = re.compile(
    r"(-?\d+(?:\.\d+)?"  # NUMBER
    r"|[A-Za-z_][A-Za-z0-9_]*"  # IDENT
    r"|'[^'\n]*'"  # QSTRING
    r"|:-|=<|.)" + _SKIP  # ARROW, LEQ, punctuation, or a stray character
)
# A token's kind: by its whole text for punctuation, else by its first
# character.  A lone '-' or quote starts no number or string: it is stray.
_KIND_OF_TEXT = {
    ":-": "ARROW", "=<": "LEQ", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT",
    "-": None, "'": None,
}
_KIND_OF_LEAD = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("0123456789-", "NUMBER"),
    "'": "QSTRING",
}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of ``text``'s tokens, ``EOF`` last.

    One ``findall`` splits the text into tokens, skipping whitespace and
    comments; each kind is a dict lookup on the token's text.  Positions are
    not kept: :func:`_position` rescans for one when an error needs it.  A
    stray character raises a :class:`RuleSyntaxError` at its line and column.
    """
    texts = _TOKEN_RE.findall(text, _SKIP_RE.match(text).end())
    kind_of_text, kind_of_lead = _KIND_OF_TEXT.get, _KIND_OF_LEAD.get
    kinds = [kind_of_text(t, kind_of_lead(t[0])) for t in texts]
    if None in kinds:
        for i, t in enumerate(texts):
            if kinds[i] is None:
                if not t[0].isdecimal():  # \d takes every Unicode decimal digit
                    raise RuleSyntaxError(f"unexpected character {t!r}", *_position(text, i))
                kinds[i] = "NUMBER"
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token ``index`` of :func:`_tokenize`'s split of
    ``text``, both from 1; the last index is ``EOF`` at the end of the text."""
    matches = _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end())
    token = next(islice(matches, index, None), None)
    offset = len(text) if token is None else token.start()
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_variable(name: str) -> bool:
    return name[0].isupper()


class _Parser:
    """Recursive descent over the token kinds; tokens are named by index."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.kinds[self.i]

    def advance(self) -> int:
        self.i += 1
        return self.i - 1

    def expect(self, kind: str, what: str) -> int:
        if self.kinds[self.i] != kind:
            found = self.texts[self.i]
            raise self.fail(f"expected {what}, found {found!r}" if found else f"expected {what}")
        return self.advance()

    def fail(self, message: str, index: int | None = None) -> RuleSyntaxError:
        """A syntax error at token ``index``, by default the current one."""
        return RuleSyntaxError(message, *_position(self.text, self.i if index is None else index))

    # grammar ---------------------------------------------------------------

    def parse_program(self) -> list[Rule]:
        rules = []
        while self.peek() != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        head, subject = self.parse_head()
        body: list[BodyLiteral] = []
        bound: set[str] = set()
        if self.peek() == "ARROW":
            self.advance()
            body.append(self.parse_literal(subject, bound))
            while self.peek() == "COMMA":
                self.advance()
                body.append(self.parse_literal(subject, bound))
        self.expect("DOT", "'.' terminating the rule")
        return Rule(head=head, body=tuple(body))

    def parse_head(self) -> tuple[Atom, str]:
        pred = self.expect("IDENT", "a head predicate")
        predicate = self.texts[pred]
        if _is_variable(predicate):
            raise self.fail("head predicate must be lowercase", pred)
        self.expect("LPAREN", "'('")
        subj = self.expect("IDENT", "the subject variable")
        subject = self.texts[subj]
        if not _is_variable(subject):
            raise self.fail("subject must be a variable", subj)
        self.expect("COMMA", "','")
        val = self.advance()
        kind, text = self.kinds[val], self.texts[val]
        if kind == "QSTRING":
            value: str | float = text[1:-1]
        elif kind == "NUMBER":
            value = float(text)
        elif kind == "IDENT" and not _is_variable(text):
            value = text
        else:
            raise self.fail("rule heads take a constant value, not a variable", val)
        self.expect("RPAREN", "')'")
        return Atom(predicate, value), subject

    def parse_literal(self, subject: str, bound_vars: set[str]) -> BodyLiteral:
        kind, text = self.kinds[self.i], self.texts[self.i]
        if kind == "IDENT" and text == "not":
            self.advance()
            if self.peek() == "LPAREN":
                # not(N1=<bound)
                self.advance()
                var = self.expect("IDENT", "a numeric variable")
                name = self.texts[var]
                if not _is_variable(name):
                    raise self.fail("comparisons apply to numeric variables", var)
                if name not in bound_vars:
                    raise self.fail(f"numeric variable {name} used before being bound", var)
                self.expect("LEQ", "'=<'")
                num = self.expect("NUMBER", "a numeric bound")
                self.expect("RPAREN", "')'")
                return BodyLiteral(NEG_COMPARISON, variable=name, bound=float(self.texts[num]))
            inner = self._parse_atomlike(subject, bound_vars)
            if inner.kind == NUMERIC_BINDING:
                raise self.fail("numeric bindings cannot be negated")
            negated = {FEATURE_TEST: NEG_FEATURE_TEST, AUX_CALL: NEG_AUX_CALL}[inner.kind]
            return BodyLiteral(negated, predicate=inner.predicate, value=inner.value)
        if kind == "IDENT" and _is_variable(text):
            # N1 =< bound
            var = self.advance()
            if text not in bound_vars:
                raise self.fail(f"numeric variable {text} used before being bound", var)
            self.expect("LEQ", "'=<' (the only supported comparator)")
            num = self.expect("NUMBER", "a numeric bound")
            return BodyLiteral(COMPARISON, variable=text, bound=float(self.texts[num]))
        if kind == "IDENT":
            return self._parse_atomlike(subject, bound_vars)
        raise self.fail("expected a body literal")

    def _parse_atomlike(self, subject: str, bound_vars: set[str]) -> BodyLiteral:
        pred = self.expect("IDENT", "a predicate")
        predicate = self.texts[pred]
        if _is_variable(predicate):
            raise self.fail("predicates must be lowercase", pred)
        self.expect("LPAREN", "'('")
        subj = self.expect("IDENT", "the subject variable")
        if self.texts[subj] != subject:
            raise self.fail(
                f"subject variable {self.texts[subj]!r} differs from the head's {subject!r}", subj
            )
        self.expect("COMMA", "','")
        val = self.advance()
        self.expect("RPAREN", "')'")
        kind, text = self.kinds[val], self.texts[val]
        aux = is_aux_predicate(predicate)
        if kind == "QSTRING":
            value: str | float = text[1:-1]
        elif kind == "NUMBER":
            value = float(text)
        elif kind == "IDENT" and _is_variable(text):
            if aux:
                raise self.fail("exception predicates take constants, not variables", val)
            if text in bound_vars:
                raise self.fail(f"numeric variable {text} bound twice in one body", val)
            bound_vars.add(text)
            return BodyLiteral(NUMERIC_BINDING, predicate=predicate, variable=text)
        elif kind == "IDENT":
            value = text
        else:
            raise self.fail("expected a constant or numeric variable", val)
        return BodyLiteral(AUX_CALL if aux else FEATURE_TEST, predicate=predicate, value=value)


# ---------------------------------------------------------------------------
# Program-level validation
# ---------------------------------------------------------------------------


def _validate_program(rules: list[Rule], kind: str) -> None:
    defined_aux = {r.head.predicate for r in rules if r.is_aux}
    main = [r for r in rules if not r.is_aux]

    if kind == "decision" and main:
        heads = {(r.head.predicate, r.head.value) for r in main}
        if len(heads) > 1:
            raise RuleProgramError(
                f"decision programs must share a single head, found {sorted(map(str, heads))}"
            )
    label_preds = {r.head.predicate for r in main} if kind == "decision" else set()

    for rule in rules:
        for lit in rule.body:
            if lit.predicate is None:
                continue
            if lit.predicate == rule.head.predicate:
                raise RuleProgramError(
                    f"rule for {rule.head.predicate!r} references its own head predicate"
                )
            if lit.predicate in label_preds:
                raise RuleProgramError(
                    f"stratification violation: body references the decision predicate "
                    f"{lit.predicate!r}"
                )
            if is_aux_predicate(lit.predicate) and lit.predicate not in defined_aux:
                raise RuleProgramError(
                    f"exception predicate {lit.predicate!r} is referenced but never defined"
                )

    # aux layer must be acyclic (no recursion through negation or otherwise)
    deps: dict[str, set[str]] = {name: set() for name in defined_aux}
    for rule in rules:
        if not rule.is_aux:
            continue
        for lit in rule.body:
            if lit.predicate is not None and is_aux_predicate(lit.predicate):
                deps[rule.head.predicate].add(lit.predicate)
    seen: dict[str, int] = {}  # 0 = in progress, 1 = done

    def visit(node: str, trail: tuple[str, ...]) -> None:
        state = seen.get(node)
        if state == 1:
            return
        if state == 0:
            cycle = " -> ".join(trail + (node,))
            raise RuleProgramError(f"exception predicates form a cycle: {cycle}")
        seen[node] = 0
        for dep in sorted(deps.get(node, ())):
            visit(dep, trail + (node,))
        seen[node] = 1

    for name in sorted(defined_aux):
        visit(name, ())


def parse_rule_program(text: str, kind: str = "decision") -> RuleProgram:
    """Parse rule text into a validated program.

    ``kind`` is recorded on the program; decision programs additionally get
    the single-head and label-stratification checks.
    """
    if kind not in ("decision", "causal"):
        raise ValueError(f"unknown program kind {kind!r}")
    rules = _Parser(text).parse_program()
    _validate_program(rules, kind)
    verified = any(
        line.strip().lower().startswith("% verified:") for line in text.splitlines()
    )
    return RuleProgram(clauses=tuple(rules), kind=kind, verified=verified)


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def format_constant(value: str | float) -> str:
    if isinstance(value, float):
        return repr(value)
    return f"'{value}'"


def unparse_literal(lit: BodyLiteral) -> str:
    if lit.kind in (FEATURE_TEST, AUX_CALL):
        return f"{lit.predicate}(X,{format_constant(lit.value)})"
    if lit.kind in (NEG_FEATURE_TEST, NEG_AUX_CALL):
        return f"not {lit.predicate}(X,{format_constant(lit.value)})"
    if lit.kind == NUMERIC_BINDING:
        return f"{lit.predicate}(X,{lit.variable})"
    if lit.kind == COMPARISON:
        return f"{lit.variable}=<{repr(lit.bound)}"
    if lit.kind == NEG_COMPARISON:
        return f"not({lit.variable}=<{repr(lit.bound)})"
    raise ValueError(f"unknown literal kind {lit.kind!r}")


def unparse_rule(rule: Rule) -> str:
    head = f"{rule.head.predicate}(X,{format_constant(rule.head.value)})"
    if not rule.body:
        return head + "."
    return head + " :- " + ", ".join(unparse_literal(l) for l in rule.body) + "."


def unparse_program(program: RuleProgram) -> str:
    return "\n".join(unparse_rule(r) for r in program.clauses) + ("\n" if program.clauses else "")


def canonicalize(text: str, kind: str = "decision") -> str:
    """The canonical form of rule text: parse it and print it back."""
    return unparse_program(parse_rule_program(text, kind))


def mentioned_values(program: RuleProgram, feature: str) -> set[str | float]:
    """Every constant and comparison bound the program applies to ``feature``.

    Includes aux-rule bodies, and head values of causal rules for the feature.
    """
    out: set[str | float] = set()
    for rule in program.clauses:
        if program.kind == "causal" and rule.head.predicate == feature:
            out.add(rule.head.value)
        bound_vars: set[str] = set()
        for lit in rule.body:
            if lit.predicate == feature and lit.kind in (FEATURE_TEST, NEG_FEATURE_TEST):
                out.add(lit.value)  # type: ignore[arg-type]
            elif lit.predicate == feature and lit.kind == NUMERIC_BINDING:
                bound_vars.add(lit.variable)  # type: ignore[arg-type]
            elif lit.kind in (COMPARISON, NEG_COMPARISON) and lit.variable in bound_vars:
                out.add(lit.bound)  # type: ignore[arg-type]
    return out

