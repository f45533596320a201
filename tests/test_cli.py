"""Instance file parsing, serialization round-trips, and the command
line surface: verdicts, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import lierine
from lierine.cli import (
    InstanceSet,
    ParseError,
    main,
    parse_instance,
    serialize_instance,
)
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
        text = "algebra Q\n  dim 1\n  unit = 1\n  mult 0 0 = 1/0\nend\n"
        with pytest.raises(ParseError, match=r"line 4: zero denominator"):
            parse_text(tmp_path, text)

    def test_float_coefficient_rejected(self, tmp_path):
        text = "algebra Q\n  dim 1\n  unit = 1.5\n  mult 0 0 = 1\nend\n"
        with pytest.raises(ParseError, match=r"line 3: not a rational: '1.5'"):
            parse_text(tmp_path, text)

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


def golden_fixture_ops():
    """(name, argv, expected) for every fixture operation with a recorded
    report in bench/golden.json; names read `<fixture> <command> [args]`.
    The generated sl2 double has no fixture file, and entries without
    stdout record library calls, not commands."""
    with open(ROOT / "bench" / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    out = []
    for name, want in sorted(golden.items()):
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
