"""Tests for the DSL lexer, parser and compiler."""

import pytest

from repro.dsl import compile_dsl, parse_program, tokenize
from repro.errors import DSLSyntaxError
from repro.mudd import Done, Incr, Seq, Switch, signature_matrix

FIGURE2_SOURCE = """
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
  Hit => pass;
  Miss => incr load.pde$_miss
};
done;
"""


class TestLexer:
    def test_figure2_tokens(self):
        kinds = [t.kind for t in tokenize("incr load.causes_walk;")]
        assert kinds == ["keyword", "ident", "semi"]

    def test_identifier_with_dollar_and_dot(self):
        tokens = tokenize("incr load.pde$_miss;")
        assert tokens[1].text == "load.pde$_miss"

    def test_comments_skipped(self):
        tokens = tokenize("# a comment\nincr x; // trailing\n")
        assert [t.text for t in tokens] == ["incr", "x", ";"]

    def test_line_column_tracking(self):
        tokens = tokenize("incr x;\ndone;")
        done = [t for t in tokens if t.text == "done"][0]
        assert done.line == 2
        assert done.column == 1

    def test_bad_character(self):
        with pytest.raises(DSLSyntaxError) as excinfo:
            tokenize("incr x @;")
        assert excinfo.value.line == 1

    def test_arrow_token(self):
        tokens = tokenize("Hit => pass")
        assert tokens[1].kind == "arrow"


class TestParser:
    def test_figure2_parses(self):
        program = parse_program(FIGURE2_SOURCE)
        assert isinstance(program, Seq)
        assert isinstance(program.statements[0], Incr)
        assert isinstance(program.statements[2], Switch)
        assert isinstance(program.statements[3], Done)

    def test_single_statement_program(self):
        program = parse_program("done;")
        assert isinstance(program, Done)

    def test_switch_with_blocks(self):
        source = """
        switch P {
          A => { incr c1; incr c2; };
          B => pass;
        };
        """
        program = parse_program(source)
        assert isinstance(program, Switch)
        assert isinstance(program.branches["A"], Seq)

    def test_empty_block_is_pass(self):
        program = parse_program("switch P { A => {}; B => pass; };")
        assert isinstance(program, Switch)

    def test_nested_switch(self):
        source = """
        switch P {
          A => switch Q { X => pass; Y => done; };
          B => pass;
        };
        """
        program = parse_program(source)
        assert isinstance(program.branches["A"], Switch)

    def test_empty_program_rejected(self):
        with pytest.raises(DSLSyntaxError):
            parse_program("   ")

    def test_missing_semicolon(self):
        with pytest.raises(DSLSyntaxError):
            parse_program("incr x incr y;")

    def test_duplicate_case_rejected(self):
        with pytest.raises(DSLSyntaxError):
            parse_program("switch P { A => pass; A => pass; };")

    def test_empty_switch_rejected(self):
        with pytest.raises(DSLSyntaxError):
            parse_program("switch P { };")

    def test_truncated_input(self):
        with pytest.raises(DSLSyntaxError):
            parse_program("switch P { A => ")

    def test_error_has_location(self):
        with pytest.raises(DSLSyntaxError) as excinfo:
            parse_program("incr x;\nincr ;")
        assert excinfo.value.line == 2


class TestCompileDsl:
    def test_figure2_signatures(self):
        mudd = compile_dsl(FIGURE2_SOURCE, name="fig2")
        counters, signatures = signature_matrix(mudd)
        assert counters == ["load.causes_walk", "load.pde$_miss"]
        assert set(map(tuple, signatures.tolist())) == {(1, 0), (1, 1)}

    def test_figure6c_refined_model(self):
        # The refined model of Figure 6c: PDE cache looked up before the
        # walk starts, and translation requests can abort in between.
        source = """
        do LookupPde$;
        switch Pde$Status {
          Miss => incr load.pde$_miss;
          Hit => pass;
        };
        switch Abort {
          Yes => done;
          No => pass;
        };
        incr load.causes_walk;
        do StartWalk;
        done;
        """
        mudd = compile_dsl(source, name="fig6c")
        counters, signatures = signature_matrix(
            mudd, counters=["load.causes_walk", "load.pde$_miss"]
        )
        # Path p of Figure 6d: miss + abort => (0, 1), violating
        # pde$_miss <= causes_walk.
        assert (0, 1) in set(map(tuple, signatures.tolist()))

    def test_compiled_model_validates(self):
        assert compile_dsl(FIGURE2_SOURCE).validate()

    def test_name_propagated(self):
        assert compile_dsl("done;", name="tiny").name == "tiny"
