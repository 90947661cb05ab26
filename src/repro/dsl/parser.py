"""Recursive-descent parser for the µDD DSL.

Grammar (semicolons after ``}`` and before ``}`` are forgiving, matching
the paper's examples)::

    program  := statement*
    statement:= "incr" IDENT ";"
              | "do" IDENT ";"
              | "pass" ";"
              | "done" ";"
              | "switch" IDENT "{" case+ "}" ";"?
    case     := IDENT "=>" (statement | block) ";"?
    block    := "{" statement* "}"
"""

import threading

from repro.errors import DSLSyntaxError
from repro.dsl.lexer import tokenize
from repro.mudd.program import Do, Done, Incr, Pass, Seq, Switch, compile_program


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing -------------------------------------------------
    def peek(self):
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self):
        token = self.peek()
        if token is None:
            raise DSLSyntaxError("unexpected end of input")
        self.position += 1
        return token

    def expect(self, kind, text=None):
        token = self.peek()
        if token is None:
            raise DSLSyntaxError(
                "expected %s but reached end of input" % (text or kind,)
            )
        if token.kind != kind or (text is not None and token.text != text):
            raise DSLSyntaxError(
                "expected %s, found %r" % (text or kind, token.text),
                line=token.line,
                column=token.column,
            )
        return self.advance()

    def accept(self, kind, text=None):
        token = self.peek()
        if token is not None and token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    # -- grammar ----------------------------------------------------------
    def parse_program(self):
        statements = []
        while self.peek() is not None:
            statements.append(self.parse_statement())
        if not statements:
            raise DSLSyntaxError("empty program")
        return statements[0] if len(statements) == 1 else Seq(statements)

    def parse_statement(self):
        token = self.peek()
        if token is None:
            raise DSLSyntaxError("expected a statement, reached end of input")
        if token.kind == "keyword":
            if token.text == "incr":
                self.advance()
                name = self.expect("ident").text
                self.expect("semi")
                return Incr(name)
            if token.text == "do":
                self.advance()
                name = self.expect("ident").text
                self.expect("semi")
                return Do(name)
            if token.text == "pass":
                self.advance()
                self.expect("semi")
                return Pass()
            if token.text == "done":
                self.advance()
                self.expect("semi")
                return Done()
            if token.text == "switch":
                return self.parse_switch()
        raise DSLSyntaxError(
            "expected a statement, found %r" % token.text,
            line=token.line,
            column=token.column,
        )

    def parse_switch(self):
        self.expect("keyword", "switch")
        property_name = self.expect("ident").text
        self.expect("lbrace")
        branches = {}
        while not self.accept("rbrace"):
            value_token = self.expect("ident")
            if value_token.text in branches:
                raise DSLSyntaxError(
                    "duplicate case %r in switch %s" % (value_token.text, property_name),
                    line=value_token.line,
                    column=value_token.column,
                )
            self.expect("arrow")
            branches[value_token.text] = self.parse_case_body()
            self.accept("semi")
        self.accept("semi")
        if not branches:
            raise DSLSyntaxError("switch %s has no cases" % property_name)
        return Switch(property_name, branches)

    def parse_case_body(self):
        if self.accept("lbrace"):
            statements = []
            while not self.accept("rbrace"):
                statements.append(self.parse_statement())
            if not statements:
                return Pass()
            return statements[0] if len(statements) == 1 else Seq(statements)
        # Single statement without trailing semicolon support: pass/done/
        # incr/do require their semicolon; a bare case like `Hit => pass`
        # (no semi before `}`) is handled by making semis optional here.
        token = self.peek()
        if token is not None and token.kind == "keyword" and token.text in (
            "pass",
            "done",
            "incr",
            "do",
        ):
            return self._parse_simple_optional_semi(token.text)
        return self.parse_statement()

    def _parse_simple_optional_semi(self, keyword):
        self.advance()
        if keyword == "pass":
            self.accept("semi")
            return Pass()
        if keyword == "done":
            self.accept("semi")
            return Done()
        name = self.expect("ident").text
        self.accept("semi")
        return Incr(name) if keyword == "incr" else Do(name)


def parse_program(source):
    """Parse DSL source into a combinator AST (a single Statement)."""
    return _Parser(tokenize(source)).parse_program()


#: Compiled µDDs by (source, name): each source is parsed once per
#: process. Bounded FIFO; callers get copies, never these templates.
_COMPILED = {}
_COMPILED_CAP = 128
_COMPILED_LOCK = threading.Lock()


def compile_dsl(source, name="model"):
    """Parse and compile DSL source into a validated µDD: a fresh
    :meth:`~repro.mudd.MuDD.copy` of the one memoized for ``(source,
    name)``, so changing it never changes what a later call returns."""
    template = _COMPILED.get((source, name))
    if template is None:
        template = compile_program(parse_program(source), name=name)
        with _COMPILED_LOCK:
            if len(_COMPILED) >= _COMPILED_CAP:
                del _COMPILED[next(iter(_COMPILED))]
            _COMPILED[(source, name)] = template
    return template.copy()
