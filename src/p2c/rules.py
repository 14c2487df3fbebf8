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
from typing import NamedTuple

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

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<NUMBER>-?\d+(?:\.\d+)?)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<QSTRING>'[^'\n]*')
    | (?P<ARROW>:-)
    | (?P<LEQ>=<)
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    match = _TOKEN_RE.match
    pos, end = 0, len(text)
    line, line_start = 1, 0
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind == "WS" or kind == "COMMENT":  # only skipped tokens hold newlines
            value = m.group()
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


def _is_variable(name: str) -> bool:
    return name[0].isupper()


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise RuleSyntaxError(
                f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def fail(self, message: str) -> RuleSyntaxError:
        tok = self.peek()
        return RuleSyntaxError(message, tok.line, tok.column)

    # grammar ---------------------------------------------------------------

    def parse_program(self) -> list[Rule]:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> Rule:
        head, subject = self.parse_head()
        body: list[BodyLiteral] = []
        bound: set[str] = set()
        if self.peek().kind == "ARROW":
            self.advance()
            body.append(self.parse_literal(subject, bound))
            while self.peek().kind == "COMMA":
                self.advance()
                body.append(self.parse_literal(subject, bound))
        self.expect("DOT", "'.' terminating the rule")
        return Rule(head=head, body=tuple(body))

    def parse_head(self) -> tuple[Atom, str]:
        tok = self.expect("IDENT", "a head predicate")
        if _is_variable(tok.text):
            raise RuleSyntaxError("head predicate must be lowercase", tok.line, tok.column)
        predicate = tok.text
        self.expect("LPAREN", "'('")
        subj = self.expect("IDENT", "the subject variable")
        if not _is_variable(subj.text):
            raise RuleSyntaxError("subject must be a variable", subj.line, subj.column)
        self.expect("COMMA", "','")
        val_tok = self.advance()
        if val_tok.kind == "QSTRING":
            value: str | float = val_tok.text[1:-1]
        elif val_tok.kind == "NUMBER":
            value = float(val_tok.text)
        elif val_tok.kind == "IDENT" and not _is_variable(val_tok.text):
            value = val_tok.text
        else:
            raise RuleSyntaxError(
                "rule heads take a constant value, not a variable",
                val_tok.line,
                val_tok.column,
            )
        self.expect("RPAREN", "')'")
        return Atom(predicate, value), subj.text

    def parse_literal(self, subject: str, bound_vars: set[str]) -> BodyLiteral:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "not":
            self.advance()
            if self.peek().kind == "LPAREN":
                # not(N1=<bound)
                self.advance()
                var = self.expect("IDENT", "a numeric variable")
                if not _is_variable(var.text):
                    raise RuleSyntaxError(
                        "comparisons apply to numeric variables", var.line, var.column
                    )
                if var.text not in bound_vars:
                    raise RuleSyntaxError(
                        f"numeric variable {var.text} used before being bound",
                        var.line,
                        var.column,
                    )
                self.expect("LEQ", "'=<'")
                num = self.expect("NUMBER", "a numeric bound")
                self.expect("RPAREN", "')'")
                return BodyLiteral(
                    NEG_COMPARISON, variable=var.text, bound=float(num.text)
                )
            inner = self._parse_atomlike(subject, bound_vars)
            if inner.kind == NUMERIC_BINDING:
                raise self.fail("numeric bindings cannot be negated")
            negated = {FEATURE_TEST: NEG_FEATURE_TEST, AUX_CALL: NEG_AUX_CALL}[inner.kind]
            return BodyLiteral(negated, predicate=inner.predicate, value=inner.value)
        if tok.kind == "IDENT" and _is_variable(tok.text):
            # N1 =< bound
            var = self.advance()
            if var.text not in bound_vars:
                raise RuleSyntaxError(
                    f"numeric variable {var.text} used before being bound",
                    var.line,
                    var.column,
                )
            self.expect("LEQ", "'=<' (the only supported comparator)")
            num = self.expect("NUMBER", "a numeric bound")
            return BodyLiteral(COMPARISON, variable=var.text, bound=float(num.text))
        if tok.kind == "IDENT":
            return self._parse_atomlike(subject, bound_vars)
        raise self.fail("expected a body literal")

    def _parse_atomlike(self, subject: str, bound_vars: set[str]) -> BodyLiteral:
        pred = self.expect("IDENT", "a predicate")
        if _is_variable(pred.text):
            raise RuleSyntaxError("predicates must be lowercase", pred.line, pred.column)
        self.expect("LPAREN", "'('")
        subj = self.expect("IDENT", "the subject variable")
        if subj.text != subject:
            raise RuleSyntaxError(
                f"subject variable {subj.text!r} differs from the head's {subject!r}",
                subj.line,
                subj.column,
            )
        self.expect("COMMA", "','")
        val_tok = self.advance()
        self.expect("RPAREN", "')'")
        aux = is_aux_predicate(pred.text)
        if val_tok.kind == "QSTRING":
            value: str | float = val_tok.text[1:-1]
        elif val_tok.kind == "NUMBER":
            value = float(val_tok.text)
        elif val_tok.kind == "IDENT" and _is_variable(val_tok.text):
            if aux:
                raise RuleSyntaxError(
                    "exception predicates take constants, not variables",
                    val_tok.line,
                    val_tok.column,
                )
            if val_tok.text in bound_vars:
                raise RuleSyntaxError(
                    f"numeric variable {val_tok.text} bound twice in one body",
                    val_tok.line,
                    val_tok.column,
                )
            bound_vars.add(val_tok.text)
            return BodyLiteral(NUMERIC_BINDING, predicate=pred.text, variable=val_tok.text)
        elif val_tok.kind == "IDENT":
            value = val_tok.text
        else:
            raise RuleSyntaxError(
                "expected a constant or numeric variable", val_tok.line, val_tok.column
            )
        return BodyLiteral(AUX_CALL if aux else FEATURE_TEST, predicate=pred.text, value=value)


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

