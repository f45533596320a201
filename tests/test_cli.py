"""Instance file parsing, serialization round-trips, and the command
line surface: verdicts, exit codes, deterministic output."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import lierine
from lierine.cli import (
    InstanceSet,
    ParseError,
    main,
    parse_instance,
    run_command,
    serialize_instance,
)
from lierine.gerst import gerstenhaber_validate
from lierine.instances import book_double, desk_pair, sl2

FIXTURES = (
    "abelian2.lri",
    "derx2.lri",
    "derx3.lri",
    "desk.lri",
    "direct_sum22.lri",
    "flat_broken.lri",
    "matched_pair.lri",
    "matched_pair_flipped.lri",
    "sl2.lri",
)


def fixture(name: str) -> str:
    return str(resources.files("lierine") / "fixtures" / name)


def parse_text(tmp_path, text: str) -> InstanceSet:
    p = tmp_path / "case.lri"
    p.write_text(text)
    return parse_instance(str(p))


PREFIX = "algebra Q\n  dim 1\n  unit = 1\n  mult 0 0 = 1\nend\n"


BAD_BIALGEBRA = """algebra A
  dim 2
  unit = 1 0
  mult 0 0 = 1 0
  mult 0 1 = 0 1
end

lie_rinehart l
  algebra A
  rank 2
  bracket 0 1 1 = 1 0
  anchor 0 0 = 0 1
end

lie_rinehart d
  algebra A
  rank 2
end

bialgebra pair
  l l
  d d
end
"""

# a twilled pair whose L' fails Jacobi on (0, 1, 2), with zero actions
BAD_SIDE_TWILLED = """algebra Q
  dim 1
  unit = 1
  mult 0 0 = 1
end

lie_rinehart bad
  algebra Q
  rank 3
  bracket 0 1 2 = 1
  bracket 0 2 2 = 1
  bracket 1 2 1 = 1
end

lie_rinehart line
  algebra Q
  rank 1
end

action push
  source bad
  target line
end

action pull
  source line
  target bad
end

twilled pair
  prime bad
  second line
  act_prime_on_second push
  act_second_on_prime pull
end
"""


# L' fails Jacobi at (0, 1, 2); L'' is a line and both actions are empty
BAD_PRIME_TWILLED = """algebra Q
  dim 1
  unit = 1
  mult 0 0 = 1
end

lie_rinehart bad
  algebra Q
  rank 3
  bracket 0 1 0 = 1
  bracket 1 2 1 = 1
end

lie_rinehart line
  algebra Q
  rank 1
end

action push
  source bad
  target line
end

action pull
  source line
  target bad
end

twilled pair
  prime bad
  second line
  act_prime_on_second push
  act_second_on_prime pull
end
"""

# [e0, e1] = e1, [e0, e2] = e2, [e1, e2] = e0 fails Jacobi at (0, 1, 2)
NON_JACOBI_CONNECTION = """algebra Q
  dim 1
  unit = 1
  mult 0 0 = 1
end

lie_rinehart bad
  algebra Q
  rank 3
  bracket 0 1 1 = 1
  bracket 0 2 2 = 1
  bracket 1 2 0 = 1
end

connection line
  on bad
  omega 0 = 1
end
"""

# L' acts on L'' with curvature at (0, 1) on f_1, L'' acts flatly on L'
CURVED_TWILLED = """algebra Q
  dim 1
  unit = 1
  mult 0 0 = 1
end

lie_rinehart lp
  algebra Q
  rank 2
  bracket 0 1 1 = 2
end

lie_rinehart ls
  algebra Q
  rank 2
end

action push
  source lp
  target ls
  entry 1 1 0 = 2
end

action pull
  source ls
  target lp
  entry 1 0 1 = 1/2
end

twilled pair
  prime lp
  second ls
  act_prime_on_second push
  act_second_on_prime pull
end
"""


class TestParsing:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_shipped_fixture_parses(self, name):
        inst = parse_instance(fixture(name))
        assert isinstance(inst, InstanceSet)
        assert inst.order

    def test_sl2_fixture_matches_builtin(self):
        inst = parse_instance(fixture("sl2.lri"))
        assert inst.lr("sl2") == sl2()

    def test_matched_pair_fixture_matches_builtin(self):
        inst = parse_instance(fixture("matched_pair.lri"))
        assert inst.build_twilled("double") == book_double()

    def test_desk_fixture_matches_builtin(self):
        inst = parse_instance(fixture("desk.lri"))
        assert inst.build_twilled("pair") == desk_pair()

    def test_zero_denominator_reported_with_line(self, tmp_path):
        for token in ("1/0", "1/00", "-2/000"):
            text = f"algebra Q\n  dim 1\n  unit = 1\n  mult 0 0 = {token}\nend\n"
            with pytest.raises(ParseError, match=rf"line 4: zero denominator in '{token}'"):
                parse_text(tmp_path, text)

    def test_float_coefficient_rejected(self, tmp_path):
        for token in ("1.5", "1/", "/2", "1/-2", "1/2/3"):
            text = f"algebra Q\n  dim 1\n  unit = {token}\n  mult 0 0 = 1\nend\n"
            with pytest.raises(ParseError, match=rf"line 3: not a rational: '{re.escape(token)}'"):
                parse_text(tmp_path, text)

    def test_leading_zeros_in_denominator_accepted(self, tmp_path):
        # the denominators of 1/01 and -2/007 are 1 and 7
        text = "algebra A\n  dim 2\n  unit = 1/01 0\n  mult 0 0 = 01 0\n  mult 0 1 = 0 1\n  mult 1 1 = -2/007 0\nend\n"
        alg = parse_text(tmp_path, text).algebras["A"]
        assert alg.one().coeffs == (Fraction(1), Fraction(0))
        assert alg.mul_coeffs(alg.basis(1).coeffs, alg.basis(1).coeffs) == (Fraction(-2, 7), Fraction(0))

    def test_reference_must_be_defined_before_use(self, tmp_path):
        text = "lie_rinehart L\n  algebra Q\n  rank 1\nend\n" + PREFIX
        with pytest.raises(ParseError, match=r"line 2: unknown algebra 'Q'"):
            parse_text(tmp_path, text)

    def test_unknown_action_in_twilled_block(self, tmp_path):
        text = PREFIX + (
            "lie_rinehart a\n  algebra Q\n  rank 1\nend\n"
            "lie_rinehart b\n  algebra Q\n  rank 1\nend\n"
            "twilled t\n  prime a\n  second b\n"
            "  act_prime_on_second nope\n  act_second_on_prime nope\nend\n"
        )
        with pytest.raises(ParseError, match=r"unknown action 'nope'"):
            parse_text(tmp_path, text)

    def test_action_direction_must_match_twilled_slots(self, tmp_path):
        text = PREFIX + (
            "lie_rinehart a\n  algebra Q\n  rank 1\nend\n"
            "lie_rinehart b\n  algebra Q\n  rank 1\nend\n"
            "action ab\n  source a\n  target b\nend\n"
            "twilled t\n  prime a\n  second b\n"
            "  act_prime_on_second ab\n  act_second_on_prime ab\nend\n"
        )
        with pytest.raises(ParseError, match=r"maps a->b, expected b->a"):
            parse_text(tmp_path, text)

    def test_wrong_coefficient_count(self, tmp_path):
        text = PREFIX + "lie_rinehart L\n  algebra Q\n  rank 2\n  bracket 0 1 0 = 1 2\nend\n"
        with pytest.raises(ParseError, match=r"line 9: bracket needs 1 coefficients"):
            parse_text(tmp_path, text)

    def test_bracket_index_out_of_range(self, tmp_path):
        text = PREFIX + "lie_rinehart L\n  algebra Q\n  rank 2\n  bracket 0 2 0 = 1\nend\n"
        with pytest.raises(ParseError, match=r"line 9: bracket index out of range"):
            parse_text(tmp_path, text)

    def test_bracket_records_upper_triangle_only(self, tmp_path):
        text = PREFIX + "lie_rinehart L\n  algebra Q\n  rank 2\n  bracket 1 0 0 = 1\nend\n"
        with pytest.raises(ParseError, match=r"first index smaller"):
            parse_text(tmp_path, text)

    def test_duplicate_bracket_record_rejected(self, tmp_path, capsys):
        text = PREFIX + "lie_rinehart L\n  algebra Q\n  rank 2\n  bracket 0 1 1 = 1\n  bracket 0 1 1 = 5\nend\n"
        with pytest.raises(ParseError, match=r"line 10: duplicate bracket entry \(0,1,1\)"):
            parse_text(tmp_path, text)
        path = tmp_path / "dup.lri"
        path.write_text(text)
        assert main(["bracket", "--input", str(path)]) == 2
        assert "duplicate bracket entry" in capsys.readouterr().err

    def test_duplicate_action_entry_rejected(self, tmp_path):
        text = PREFIX + (
            "lie_rinehart a\n  algebra Q\n  rank 1\nend\n"
            "action ab\n  source a\n  target a\n  entry 0 0 0 = 1\n  entry 0 0 0 = 1\nend\n"
        )
        with pytest.raises(ParseError, match=r"line 14: duplicate action entry \(0,0,0\)"):
            parse_text(tmp_path, text)

    def test_duplicate_names_rejected(self, tmp_path):
        text = PREFIX + PREFIX
        with pytest.raises(ParseError, match=r"duplicate name 'Q'"):
            parse_text(tmp_path, text)

    def test_conflicting_mult_entries(self, tmp_path):
        text = (
            "algebra B\n  dim 2\n  unit = 1 0\n"
            "  mult 0 1 = 0 1\n  mult 1 0 = 1 0\n  mult 0 0 = 1 0\nend\n"
        )
        with pytest.raises(ParseError, match=r"conflicting mult entry"):
            parse_text(tmp_path, text)

    def test_unterminated_block(self, tmp_path):
        with pytest.raises(ParseError, match=r"unterminated block 'Q'"):
            parse_text(tmp_path, "algebra Q\n  dim 1\n  unit = 1\n")

    def test_mismatched_ranks_in_bialgebra_block(self, tmp_path):
        text = PREFIX + (
            "lie_rinehart a\n  algebra Q\n  rank 1\nend\n"
            "lie_rinehart b\n  algebra Q\n  rank 2\nend\n"
            "bialgebra p\n  l a\n  d b\nend\n"
        )
        with pytest.raises(ParseError, match=r"ranks differ: 1 vs 2"):
            parse_text(tmp_path, text)


# one block of each kind; every line keeps its number when a field line
# is put right after a block header
EVERY_BLOCK = PREFIX + (
    "lie_rinehart a\n  algebra Q\n  rank 1\nend\n"
    "action aa\n  source a\n  target a\nend\n"
    "connection c\n  on a\nend\n"
    "twilled t\n  prime a\n  second a\n  act_prime_on_second aa\n  act_second_on_prime aa\nend\n"
    "bialgebra p\n  l a\n  d a\nend\n"
)


class TestRecordsAndFields:
    def test_every_block_kind_parses(self, tmp_path):
        inst = parse_text(tmp_path, EVERY_BLOCK)
        assert [kind for kind, _ in inst.order] == [
            "algebra", "lie_rinehart", "action", "connection", "twilled", "bialgebra"
        ]

    @pytest.mark.parametrize("kind, field", [
        ("algebra", "colour blue"),
        ("lie_rinehart", "anchr 3"),
        ("action", "sorce a"),
        ("connection", "omga 1"),
        ("twilled", "prim a"),
        ("bialgebra", "dual a"),
    ])
    def test_unknown_field_rejected_with_its_line(self, tmp_path, capsys, kind, field):
        lines = EVERY_BLOCK.splitlines()
        at = next(n for n, text in enumerate(lines) if text.startswith(kind + " ")) + 1
        lines.insert(at, "  " + field)
        text = "\n".join(lines) + "\n"
        key = field.split()[0]
        with pytest.raises(ParseError, match=rf"^line {at + 1}: unknown field '{key}' in {kind} block$"):
            parse_text(tmp_path, text)
        path = tmp_path / "unknown.lri"
        path.write_text(text)
        assert main(["check-lr", "--input", str(path), "--name", "a"]) == 2
        assert f"unknown field '{key}'" in capsys.readouterr().err

    def test_unknown_command_is_a_key_error_naming_it(self):
        with pytest.raises(KeyError, match=r"unknown command 'nope'"):
            run_command("nope", InstanceSet(), "case.lri", None, None)

    @pytest.mark.parametrize("text, message", [
        (PREFIX + "lie_rinehart a\n  algebra Q\n  rank 2\n  bracket 0 1 \u00b2 = 1\nend\n", "line 9: not an index: '\u00b2'"),
        ("algebra Q\n  dim \u00b2\n  unit = 1\nend\n", "line 2: dim must be a positive integer"),
        (PREFIX + "lie_rinehart a\n  algebra Q\n  rank \u00b2\nend\n", "line 8: rank must be a nonnegative integer"),
    ], ids=["index", "dim", "rank"])
    def test_superscript_digit_rejected_with_its_line(self, tmp_path, capsys, text, message):
        """A superscript two passes str.isdigit but not int()."""
        with pytest.raises(ParseError, match=rf"^{message}$"):
            parse_text(tmp_path, text)
        path = tmp_path / "superscript.lri"
        path.write_text(text, encoding="utf-8")
        assert main(["check-lr", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize("record, message", [
        ("  = 1", "line 5: unknown record '' in algebra block"),
        ("  unit = 2", "line 5: duplicate unit"),
        ("  mult 0 = 1", "line 5: expected 2 indices, got 1"),
        ("  mult 0 x = 1", "line 5: not an index: 'x'"),
        ("  mult 0 1 = 1", "line 5: mult index out of range"),
        ("  mult 0 0 = 1 1", "line 5: mult needs 1 coefficients"),
        ("  mult 0 0 = 1", None),
        ("  mult 0 0 = 2", "line 5: conflicting mult entry \\(0,0\\)"),
    ])
    def test_algebra_records(self, tmp_path, record, message):
        lines = PREFIX.splitlines()
        lines.insert(4, record)
        text = "\n".join(lines) + "\n"
        if message is None:
            assert parse_text(tmp_path, text).algebras["Q"].mult == ((((Fraction(1),),),))
        else:
            with pytest.raises(ParseError, match=rf"^{message}$"):
                parse_text(tmp_path, text)

    @pytest.mark.parametrize("kind, records, message", [
        ("lie_rinehart", ["anchor 0 1 = 1"], "anchor index out of range"),
        ("lie_rinehart", ["anchor 0 0 = 3", "anchor 0 0 = 1"], "duplicate anchor entry \\(0,0\\)"),
        ("action", ["entry 0 1 0 = 1"], "entry index out of range"),
        ("action", ["entry 0 0 0 = 1", "entry 0 0 0 = 1"], "duplicate action entry \\(0,0,0\\)"),
        ("connection", ["omega 1 = 1"], "omega index out of range"),
        ("connection", ["omega 0 = 1", "omega 0 = 1/2"], "duplicate omega entry \\(0\\)"),
        ("twilled", ["omega 0 = 1"], "unknown record 'omega' in twilled block"),
        ("bialgebra", ["bracket 0 1 0 = 1"], "unknown record 'bracket' in bialgebra block"),
    ])
    def test_first_faulty_record_reported_at_its_line(self, tmp_path, kind, records, message):
        lines = EVERY_BLOCK.splitlines()
        at = next(n for n, text in enumerate(lines) if text.startswith(kind + " ")) + 1
        lines[at:at] = ["  " + record for record in records] + ["  bracket 0 0 0 = x"]
        with pytest.raises(ParseError, match=rf"^line {at + len(records)}: {message}$"):
            parse_text(tmp_path, "\n".join(lines) + "\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_serialize_then_reparse_is_identity(self, name, tmp_path):
        inst = parse_instance(fixture(name))
        text = serialize_instance(inst)
        p = tmp_path / "again.lri"
        p.write_text(text)
        again = parse_instance(str(p))
        assert again == inst
        assert serialize_instance(again) == text


def run_cli(capsys, *args: str):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


class TestCommands:
    def test_check_lr_pass(self, capsys):
        rc, out = run_cli(capsys, "check-lr", "--input", fixture("sl2.lri"), "--name", "sl2")
        assert rc == 0
        assert "verdict jacobi: pass" in out
        assert out.endswith("exit: 0\n")

    def test_check_lr_reports_every_axiom(self, capsys):
        rc, out = run_cli(capsys, "check-lr", "--input", fixture("derx3.lri"))
        assert rc == 0
        for axiom in ("algebra", "antisymmetry", "anchor-derivation", "anchor-morphism", "jacobi"):
            assert f"verdict {axiom}: pass" in out

    def test_check_twilled_pass(self, capsys):
        rc, out = run_cli(capsys, "check-twilled", "--input", fixture("matched_pair.lri"))
        assert rc == 0
        assert "verdict twilled: pass" in out
        assert "verdict dg-gerstenhaber-equivalence: pass" in out

    def test_check_twilled_flipped_fails_with_jacobi_witness(self, capsys):
        rc, out = run_cli(capsys, "check-twilled", "--input", fixture("matched_pair_flipped.lri"))
        assert rc == 1
        assert "verdict twilled: fail witness=('jacobi', (0, 1, 3))" in out
        assert "verdict bicomplex-equivalence: pass" in out
        assert "verdict dg-lie-equivalence: pass" in out

    def test_check_twilled_validates_both_sides_first(self, capsys, tmp_path):
        # a side that fails the axioms stops the checks, as in check-bialgebra
        path = tmp_path / "bad_prime.lri"
        path.write_text(BAD_PRIME_TWILLED)
        rc, out = run_cli(capsys, "check-twilled", "--input", str(path))
        assert rc == 1
        assert out == (
            f"command: check-twilled\ninput: {path}\nname: pair\n"
            "verdict lr-axioms: fail witness=('jacobi', (0, 1, 2))\n"
            "exit: 1\n"
        )

    def test_check_twilled_dg_verdicts_need_a_flat_action(self, capsys, tmp_path):
        # d'' is a square-zero derivation of the crossed bracket, but L' acts
        # on L'' with curvature, so the G-algebra is not one and the pair is
        # not twilled: both dG verdicts fail on flatness and stay equivalent
        path = tmp_path / "curved.lri"
        path.write_text(CURVED_TWILLED)
        rc, out = run_cli(capsys, "check-twilled", "--input", str(path))
        assert rc == 1
        assert out == (
            f"command: check-twilled\ninput: {path}\nname: pair\n"
            "verdict twilled: fail witness=('jacobi', (0, 1, 3))\n"
            "verdict bicomplex-squares: fail witness=('dprime_square', (0, (0,), ()))\n"
            "verdict bicomplex-equivalence: pass\n"
            "verdict dg-lie: fail witness=('flatness', (0, (0,), ()))\n"
            "verdict dg-lie-equivalence: pass\n"
            "verdict dg-gerstenhaber: fail witness=('flatness', (0, (0,), ()))\n"
            "verdict dg-gerstenhaber-equivalence: pass\n"
            "exit: 1\n"
        )

    def test_cohomology_sl2(self, capsys):
        rc, out = run_cli(capsys, "cohomology", "--input", fixture("sl2.lri"), "--name", "sl2")
        assert rc == 0
        assert "dims: 1 0 0 1" in out

    def test_cohomology_respects_max_degree(self, capsys):
        rc, out = run_cli(
            capsys, "cohomology", "--input", fixture("sl2.lri"), "--name", "sl2", "--max-degree", "2"
        )
        assert rc == 0
        assert "dims: 1 0 0\n" in out

    def test_cohomology_stops_at_the_rank_above_it(self, capsys):
        """No zero is printed past the top degree of a structure or a pair,
        so a cap far above the rank costs nothing."""
        rc, out = run_cli(capsys, "cohomology", "--input", fixture("abelian2.lri"), "--max-degree", "1000000")
        assert rc == 0
        assert "dims: 1 2 1\n" in out
        rc, out = run_cli(capsys, "cohomology", "--input", fixture("direct_sum22.lri"), "--max-degree", "1000000")
        assert rc == 0
        assert "total_dims: 1 4 6 4 1\n" in out and "sum_dims: 1 4 6 4 1\n" in out

    def test_cohomology_total_vs_sum(self, capsys):
        rc, out = run_cli(capsys, "cohomology", "--input", fixture("direct_sum22.lri"))
        assert rc == 0
        assert "total_dims: 1 4 6 4 1" in out
        assert "sum_dims: 1 4 6 4 1" in out
        assert "verdict total-vs-sum: pass" in out

    def test_cohomology_rejects_broken_pair(self, capsys):
        rc, out = run_cli(capsys, "cohomology", "--input", fixture("flat_broken.lri"))
        assert rc == 1
        assert "verdict twilled: fail witness=('jacobi', (0, 1, 2))" in out

    def test_bracket_prints_assembled_sum(self, capsys):
        rc, out = run_cli(capsys, "bracket", "--input", fixture("desk.lri"))
        assert rc == 0
        assert "structure: combined sum" in out
        assert "bracket 0 1 0: -1" in out
        assert "bracket 0 1 1: 1" in out

    def test_bracket_on_plain_structure(self, capsys):
        rc, out = run_cli(capsys, "bracket", "--input", fixture("sl2.lri"), "--name", "sl2")
        assert rc == 0
        assert "bracket 0 1 1: 2" in out
        assert "bracket 1 2 0: 1" in out

    def test_generator_flat_connection(self, capsys):
        rc, out = run_cli(capsys, "generator", "--input", fixture("derx3.lri"), "--name", "flat_line")
        assert rc == 0
        assert "flat: true" in out
        assert "exact: true" in out
        assert "verdict generator-identity: pass" in out
        assert "verdict connection-roundtrip: pass" in out
        assert "verdict square-iff-flat: pass" in out

    def test_generator_curved_connection_still_passes_checks(self, capsys):
        rc, out = run_cli(capsys, "generator", "--input", fixture("derx3.lri"), "--name", "curved_line")
        assert rc == 0
        assert "flat: false" in out
        assert "exact: false" in out
        assert "verdict square-iff-flat: pass" in out

    def test_generator_reports_an_invalid_structure(self, capsys, tmp_path):
        # the generator of a connection is checked only on a valid structure
        path = tmp_path / "non_jacobi.lri"
        path.write_text(NON_JACOBI_CONNECTION)
        rc, out = run_cli(capsys, "generator", "--input", str(path))
        assert rc == 1
        assert out == (
            f"command: generator\ninput: {path}\nname: line\n"
            "verdict lr-axioms: fail witness=('jacobi', (0, 1, 2))\n"
            "exit: 1\n"
        )

    def test_check_bialgebra_on_matched_pair(self, capsys):
        rc, out = run_cli(capsys, "check-bialgebra", "--input", fixture("matched_pair.lri"))
        assert rc == 0
        assert "verdict bialgebra: pass" in out
        assert "verdict twilled-vs-bialgebra-equivalence: pass" in out

    def test_check_bialgebra_on_dual_pair_block(self, capsys):
        rc, out = run_cli(capsys, "check-bialgebra", "--input", fixture("sl2.lri"))
        assert rc == 0
        assert "name: std" in out
        assert "verdict bialgebra: pass" in out

    def test_check_bialgebra_on_broken_pair(self, capsys):
        rc, out = run_cli(capsys, "check-bialgebra", "--input", fixture("flat_broken.lri"))
        assert rc == 1
        assert "verdict bialgebra: fail" in out
        assert "verdict twilled: fail witness=('jacobi', (0, 1, 2))" in out
        assert "verdict duality-equivalence: pass" in out
        assert "verdict twilled-vs-bialgebra-equivalence: pass" in out

    def test_check_bialgebra_reports_invalid_structure(self, capsys, tmp_path):
        # l over Q[x]/(x^2) has an anchor sending 1 to x, so it fails
        # check-lr; its pairing with an abelian d is not checked
        path = tmp_path / "bad.lri"
        path.write_text(BAD_BIALGEBRA)
        rc, out = run_cli(capsys, "check-lr", "--input", str(path), "--name", "l")
        assert rc == 1
        assert "verdict anchor-derivation: fail" in out
        rc, out = run_cli(capsys, "check-bialgebra", "--input", str(path))
        assert rc == 1
        assert "verdict lr-axioms: fail witness=('anchor-derivation', (0,))" in out
        assert "verdict bialgebra" not in out

    def test_check_bialgebra_reports_invalid_side_of_twilled_pair(self, capsys, tmp_path):
        # the semidirect dual pair of an invalid side is not built
        path = tmp_path / "bad_side.lri"
        path.write_text(BAD_SIDE_TWILLED)
        rc, out = run_cli(capsys, "check-lr", "--input", str(path), "--name", "bad")
        assert rc == 1
        assert "verdict jacobi: fail witness=('jacobi', (0, 1, 2))" in out
        rc, out = run_cli(capsys, "check-bialgebra", "--input", str(path))
        assert rc == 1
        assert out.splitlines()[-2:] == ["verdict lr-axioms: fail witness=('jacobi', (0, 1, 2))", "exit: 1"]
        assert "verdict bialgebra" not in out

    @pytest.mark.parametrize("path", ["flat_broken.lri", "sl2.lri", "matched_pair.lri"])
    def test_check_bialgebra_cap_below_one_is_not_usable(self, capsys, path):
        rc = main(["check-bialgebra", "--input", fixture(path), "--max-degree", "0"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "input not usable: the degree cap must be at least 1, got 0" in err

    def test_ambiguous_name_is_usage_error(self, capsys):
        rc = main(["check-lr", "--input", fixture("sl2.lri")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "pick one with --name" in err

    def test_unknown_name_is_usage_error(self, capsys):
        rc = main(["check-lr", "--input", fixture("sl2.lri"), "--name", "nope"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no instance named 'nope'" in err

    def test_missing_file_is_parse_error(self, capsys):
        rc = main(["check-lr", "--input", "/no/such/file.lri"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "parse error" in err

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.lri"
        path.write_bytes(b"\xff\xfea\x00l\x00g\x00")
        rc = main(["check-lr", "--input", str(path)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"parse error: cannot read {path}: invalid start byte\n")
        with pytest.raises(ParseError):
            parse_instance(str(path))

    def test_parser_is_built_once_and_answers_alike(self, capsys):
        assert lierine.cli._parser() is lierine.cli._parser()
        for _ in range(2):
            assert main(["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: lierine ")
            assert main(["check-lr", "--input", fixture("sl2.lri"), "--max-degree", "-1"]) == 2
            assert capsys.readouterr().err.endswith("lierine: error: --max-degree must be nonnegative, got -1\n")

    def test_bad_flag_is_usage_error(self, capsys):
        rc = main(["check-lr", "--input", fixture("sl2.lri"), "--frob"])
        assert rc == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("cohomology", "--input", "sl2.lri", "--name", "sl2"),
            ("check-bialgebra", "--input", "matched_pair.lri"),
        ],
    )
    def test_negative_max_degree_is_usage_error(self, capsys, args):
        command, flag, path, *rest = args
        rc = main([command, flag, fixture(path), *rest, "--max-degree", "-1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "--max-degree must be nonnegative" in err

    @pytest.mark.parametrize("command", ["cohomology", "bracket"])
    def test_invalid_base_algebra_is_not_usable(self, capsys, tmp_path, command):
        # unit = 2 with e0*e0 = e0 breaks the unit law
        p = tmp_path / "bad_unit.lri"
        p.write_text(
            "algebra Q\n  dim 1\n  unit = 2\n  mult 0 0 = 1\nend\n"
            "lie_rinehart g\n  algebra Q\n  rank 1\nend\n"
        )
        rc = main([command, "--input", str(p)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "input not usable: base algebra fails validation: unit at (0)" in err
        # check-lr keeps reporting the algebra axioms as a verdict
        rc, out = run_cli(capsys, "check-lr", "--input", str(p))
        assert rc == 1
        assert "verdict algebra: fail witness=('unit', (0,))" in out

    def test_json_format_matches_text_verdicts(self, capsys):
        rc, out = run_cli(
            capsys, "check-twilled", "--input", fixture("matched_pair.lri"), "--format", "json-like"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["command"] == "check-twilled"
        assert doc["name"] == "double"
        assert doc["exit"] == 0
        checks = [v["check"] for v in doc["verdicts"]]
        assert checks == [
            "twilled",
            "bicomplex-squares",
            "bicomplex-equivalence",
            "dg-lie",
            "dg-lie-equivalence",
            "dg-gerstenhaber",
            "dg-gerstenhaber-equivalence",
        ]
        assert all(v["ok"] for v in doc["verdicts"])


def run_subprocess(*args: str) -> subprocess.CompletedProcess:
    # the child imports the same lierine as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(lierine.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "lierine.cli", *args],
        capture_output=True,
        env=env,
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("check-twilled", "--input", fixture("matched_pair.lri")),
            ("check-twilled", "--input", fixture("matched_pair_flipped.lri")),
            ("check-bialgebra", "--input", fixture("sl2.lri")),
            ("cohomology", "--input", fixture("direct_sum22.lri")),
            ("generator", "--input", fixture("derx3.lri"), "--name", "flat_line"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        first = run_subprocess(*args)
        second = run_subprocess(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    def test_exit_codes_cross_process(self):
        ok = run_subprocess("check-twilled", "--input", fixture("matched_pair.lri"))
        bad = run_subprocess("check-twilled", "--input", fixture("matched_pair_flipped.lri"))
        ugly = run_subprocess("check-twilled", "--input", "/no/such/file.lri")
        assert (ok.returncode, bad.returncode, ugly.returncode) == (0, 1, 2)


ROOT = Path(__file__).resolve().parents[1]


with open(ROOT / "bench" / "golden.json", encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def golden_fixture_ops():
    """(name, argv, expected) for every fixture operation with a recorded
    report in bench/golden.json; names read `<fixture> <command> [args]`.
    The generated sl2 double has no fixture file, and entries without
    stdout record library calls, not commands: both are pinned below."""
    out = []
    for name, want in sorted(GOLDEN.items()):
        if name == "check-twilled sl2_double" or "stdout" not in want:
            continue
        fixture_name, command, *extra = name.split()
        argv = [command, "--input", f"src/lierine/fixtures/{fixture_name}.lri", *extra]
        out.append((name, argv, want))
    return out


GOLDEN_OPS = golden_fixture_ops()


@pytest.mark.parametrize("name,argv,want", GOLDEN_OPS, ids=[n for n, _, _ in GOLDEN_OPS])
def test_fixture_reports_match_golden_copy(name, argv, want, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    rc, out = run_cli(capsys, *argv)
    assert rc == want["exit"]
    assert out == want["stdout"]


def load_bench_gen():
    """The benchmark's input generator, bench/gen.py."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.mark.parametrize("seed", [1, 11, 24, 101])
def test_generated_sl2_double_report_matches_golden_copy(seed, capsys, monkeypatch, tmp_path):
    """The double is written at the relative path its golden report names;
    its report names no basis index, so one copy serves every seed."""
    want = GOLDEN["check-twilled sl2_double"]
    path = re.search(r"^input: (.*)$", want["stdout"], re.M).group(1)
    monkeypatch.chdir(tmp_path)
    Path(path).parent.mkdir(parents=True)
    Path(path).write_text(load_bench_gen().sl2_double(seed))
    rc, out = run_cli(capsys, "check-twilled", "--input", path)
    assert rc == want["exit"]
    assert out == want["stdout"]


def test_gerstenhaber_validate_matches_golden_copy():
    derx3 = parse_instance(fixture("derx3.lri")).lr("derx3")
    assert repr(gerstenhaber_validate(derx3, 2)) == GOLDEN["gerstenhaber_validate derx3 2"]["return"]
