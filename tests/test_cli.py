import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from nsboxes.boxes import MAX_EXHAUSTIVE_PARTIES, make_correlated, make_even_parity, make_npr
from nsboxes.boxfile import box_to_text, load_box, save_box
from nsboxes.cli import main
from nsboxes.distill import t_map

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoxBuild:
    def test_build_and_check_npr(self, tmp_path, capsys):
        path = tmp_path / "npr3.box"
        code, _, _ = run(capsys, "box", "build", "--type", "npr", "--n", "3", "--out", str(path))
        assert code == 0
        assert load_box(path) == make_npr(3)
        code, out, _ = run(capsys, "box", "check", str(path))
        assert code == 0
        assert "non-signaling: yes" in out
        assert "local: no" in out and "verified" in out

    def test_check_even_parity_reports_model(self, tmp_path, capsys):
        path = tmp_path / "even.box"
        run(capsys, "box", "build", "--type", "even", "--n", "2", "--out", str(path))
        code, out, _ = run(capsys, "box", "check", str(path))
        assert code == 0
        assert "local: yes" in out
        assert "weight" in out

    @pytest.mark.parametrize("box, expected", [
        (make_even_parity(3), (
            "non-signaling: yes\n"
            "local: yes (4 deterministic strategies)\n"
            "  weight 1/4 on responses 00,00,00\n"
            "  weight 1/4 on responses 00,11,11\n"
            "  weight 1/4 on responses 11,00,11\n"
            "  weight 1/4 on responses 11,11,00\n"
        )),
        (make_npr(3), (
            "non-signaling: yes\n"
            "local: no (separating certificate verified)\n"
        )),
    ], ids=["even-3", "npr-3"])
    def test_check_output_is_pinned(self, tmp_path, capsys, box, expected):
        path = tmp_path / "box.box"
        save_box(box, path)
        assert run(capsys, "box", "check", str(path)) == (0, expected, "")

    def test_build_correlated_and_fc(self, tmp_path, capsys):
        path = tmp_path / "c.box"
        code, _, _ = run(
            capsys, "box", "build", "--type", "correlated", "--n", "2",
            "--eps", "1/3", "--out", str(path),
        )
        assert code == 0
        assert load_box(path) == make_correlated(2, F(1, 3))
        path2 = tmp_path / "fc.box"
        code, _, _ = run(
            capsys, "box", "build", "--type", "fc", "--n", "2",
            "--f", "x1*x2", "--out", str(path2),
        )
        assert code == 0
        assert load_box(path2) == make_npr(2)

    def test_build_fc_from_truth_table(self, tmp_path, capsys):
        path = tmp_path / "tt.box"
        code, _, _ = run(
            capsys, "box", "build", "--type", "fc",
            "--truth-table", "0001", "--out", str(path),
        )
        assert code == 0
        assert load_box(path) == make_npr(2)

    def test_check_skips_locality_past_the_limit(self, tmp_path, capsys):
        n = MAX_EXHAUSTIVE_PARTIES + 1
        path = tmp_path / "even.box"
        run(capsys, "box", "build", "--type", "even", "--n", str(n), "--out", str(path))
        code, out, _ = run(capsys, "box", "check", str(path))
        assert code == 0
        assert f"local: skipped (supported up to {n - 1} parties)" in out

    def test_malformed_box_file_names_input(self, tmp_path, capsys):
        path = tmp_path / "bad.box"
        path.write_text("n 2\n00 00 1/2\n00 11 1/4\n")
        code, _, err = run(capsys, "box", "check", str(path))
        assert code == 1
        assert "x=(0, 0)" in err

    def test_signaling_box_witness_printed(self, tmp_path, capsys):
        lines = ["n 2"]
        for x0 in (0, 1):
            for x1 in (0, 1):
                for a in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    if a[1] == x0:
                        lines.append(f"{x0}{x1} {a[0]}{a[1]} 1/2")
        path = tmp_path / "sig.box"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "box", "check", str(path), "--skip-local")
        assert code == 0
        assert "non-signaling: no" in out
        assert "party 1 signals" in out


class TestDistill:
    def test_trajectory_rows(self, capsys):
        code, out, _ = run(capsys, "distill", "--n", "2", "--eps", "1/2", "--steps", "3")
        assert code == 0
        assert "0,1,2,0.5,1" in out
        assert "1,5,8,0.625,2" in out
        assert "2,95,128," in out

    def test_validate_flag(self, capsys):
        code, out, _ = run(
            capsys, "distill", "--n", "3", "--eps", "1/3", "--steps", "1", "--validate"
        )
        assert code == 0
        assert "wiring oracle: MATCH" in out

    def test_fixed_point_notice(self, capsys):
        code, out, _ = run(capsys, "distill", "--n", "2", "--eps", "1", "--steps", "2")
        assert code == 0
        assert "fixed point" in out
        assert out.count("1,1,1") >= 1

    def test_validate_up_to_the_party_limit(self, capsys):
        limit = MAX_EXHAUSTIVE_PARTIES
        code, out, _ = run(capsys, "distill", "--n", str(limit), "--eps", "1/3", "--validate")
        assert code == 0
        assert "wiring oracle: MATCH" in out
        code, out, _ = run(
            capsys, "distill", "--n", str(limit + 1), "--eps", "1/3", "--validate"
        )
        assert code == 0
        assert f"wiring oracle: skipped (supported up to {limit} parties)" in out

    def test_bad_eps_precondition(self, capsys):
        code, _, _ = run(capsys, "distill", "--n", "2", "--eps", "3/2")
        assert code == 2
        code, _, err = run(capsys, "distill", "--n", "0", "--eps", "1/2", "--steps", "0")
        assert code == 2
        assert "error: the boosting map needs at least two parties" in err

    def test_invalid_fraction_message(self, capsys):
        code, _, err = run(capsys, "distill", "--n", "2", "--eps", "abc")
        assert code == 1
        assert "error: invalid fraction 'abc'" in err

    def test_csv_written_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "distill", "--n", "2", "--eps", "1/2", "--steps", "2",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("step,eps_num,eps_den,eps_decimal,copies")


class TestAnalyze:
    def test_four_party_example_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "x1*x2*x3 + x3*x4 + x1", "--n", "4")
        assert code == 0
        assert "n_scratch: 3" in out
        assert "n_distill: 1" in out
        assert "forwarding edges: (4->3)" in out

    def test_four_party_with_verification(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "x1*x2*x3 + x3*x4 + x1", "--n", "4",
            "--verify", "--eps", "1/2", "--steps", "2",
        )
        assert code == 0
        assert "end-to-end check (eps=1/2, steps=2): ok" in out

    def test_six_party_not_amplifiable(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "x1*x2 + x2*x3 + x4*x5*x6 + x5", "--n", "6"
        )
        assert code == 0
        assert "n_scratch: 4" in out
        assert "amplifiable: no (n_J = 2 != 1)" in out

    def test_local_function(self, capsys):
        code, out, _ = run(capsys, "analyze", "x1", "--n", "3")
        assert code == 0
        assert "local function; nothing to simulate" in out

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "x1 + ?", "--n", "2")
        assert code == 1
        assert "position" in err

    def test_verify_precondition_failure(self, capsys):
        code, _, err = run(
            capsys, "analyze", "x1*x2 + x2*x3 + x4*x5*x6 + x5", "--n", "6", "--verify"
        )
        assert code == 2
        assert "n_J" in err

    def test_verify_size_limit(self, capsys):
        n = MAX_EXHAUSTIVE_PARTIES + 1
        expr = "*".join(f"x{i}" for i in range(1, n + 1))
        code, out, err = run(capsys, "analyze", expr, "--n", str(n), "--verify")
        assert code == 2
        assert out == ""
        assert f"up to {n - 1} parties" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "analyze", "x1*x2*x3 + x3*x4 + x1", "--n", "4")
        _, out2, _ = run(capsys, "analyze", "x1*x2*x3 + x3*x4 + x1", "--n", "4")
        assert out1 == out2


class TestWiringEval:
    def test_bs_on_two_weak_copies(self, tmp_path, capsys):
        eps = F(1, 3)
        box = make_correlated(2, eps)
        path = tmp_path / "weak.box"
        save_box(box, path)
        out_path = tmp_path / "out.box"
        code, _, _ = run(
            capsys, "wiring", "eval", "--name", "bs", str(path), str(path),
            "--out", str(out_path),
        )
        assert code == 0
        assert load_box(out_path) == make_correlated(2, t_map(2, eps))

    def test_identity(self, tmp_path, capsys):
        box = make_npr(2)
        path = tmp_path / "b.box"
        save_box(box, path)
        code, out, _ = run(capsys, "wiring", "eval", "--name", "identity", str(path))
        assert code == 0
        assert out == box_to_text(box)

    def test_dump_rules(self, tmp_path, capsys):
        box = make_npr(2)
        path = tmp_path / "b.box"
        save_box(box, path)
        code, out, _ = run(
            capsys, "wiring", "eval", "--name", "identity", str(path), "--dump-rules"
        )
        assert code == 0
        assert out.startswith("wiring identity n=2 boxes=1")

    def test_unknown_wiring(self, tmp_path, capsys):
        path = tmp_path / "b.box"
        save_box(make_npr(2), path)
        code, _, err = run(capsys, "wiring", "eval", "--name", "bogus", str(path))
        assert code == 2
        assert "unknown wiring" in err

    def test_wrong_box_count(self, tmp_path, capsys):
        path = tmp_path / "b.box"
        save_box(make_npr(2), path)
        code, _, _ = run(capsys, "wiring", "eval", "--name", "bs", str(path))
        assert code == 2

    def test_bs_needs_two_parties(self, tmp_path, capsys):
        path = tmp_path / "b.box"
        save_box(make_correlated(1, F(1, 2)), path)
        code, out, err = run(
            capsys, "wiring", "eval", "--name", "bs", str(path), str(path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: the boosting map needs at least two parties\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "distill", "--eps", "1/2")
        assert code == 1
        assert "error: the following arguments are required: --n" in err

    def test_missing_function(self, capsys):
        assert run(capsys, "analyze", "--n", "3")[0] == 1

    def test_io_failures_print_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        commands = [
            ("box", "build", "--type", "npr", "--n", "2", "--out", str(missing / "x.box")),
            ("box", "check", str(missing / "x.box")),
            ("wiring", "eval", "--name", "identity", str(missing / "x.box")),
        ]
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestErrorMapping:
    """Each rule lives in one place, and each fault maps to one exit code."""

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(
            ("box", "build", "--type", "correlated", "--n", "2", "--eps", "3/2"),
            2, "error: eps must be in [0, 1], got 3/2", id="correlated-eps",
        ),
        pytest.param(
            ("analyze", "x1*x2*x3 + x3*x4 + x1", "--n", "4", "--verify", "--eps", "3/2"),
            2, "error: eps must be in (0, 1], got 3/2", id="analyze-verify-eps",
        ),
        pytest.param(
            ("box", "build", "--type", "fc", "--n", "2", "--f", "x1*x2",
             "--truth-table", "0110"),
            1, "error: give a function expression or a truth table, not both",
            id="build-both-sources",
        ),
        pytest.param(
            ("analyze", "x1*x2", "--n", "2", "--truth-table", "0110"),
            1, "error: give a function expression or a truth table, not both",
            id="analyze-both-sources",
        ),
        pytest.param(
            ("analyze", "--truth-table", "0110", "--n", "3"),
            1, "error: function has 2 variables, --n says 3", id="analyze-table-mismatch",
        ),
        pytest.param(
            ("analyze", "x1*x" + "9" * 5000, "--n", "3"),
            1, "error: variable x" + "9" * 5000 + " outside x1..x3 (at position 3)",
            id="analyze-variable-past-int-digit-limit",
        ),
        pytest.param(
            ("analyze", "x\u0661*x\u0662", "--n", "2"),
            1, "error: unexpected character 'x' (at position 0)", id="analyze-non-ascii-digits",
        ),
    ])
    def test_exit_code_and_message(self, capsys, argv, code, line):
        assert run(capsys, *argv) == (code, "", line + "\n")


class TestEntryPoint:
    """`python -m nsboxes.cli`, the entry point the README documents."""

    def run_module(self, tmp_path, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "nsboxes.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    def test_exit_codes(self, tmp_path):
        proc = self.run_module(tmp_path, "box", "build", "--type", "npr", "--n", "2")
        assert proc.returncode == 0
        assert proc.stdout == box_to_text(make_npr(2))
        proc = self.run_module(
            tmp_path, "box", "build", "--type", "npr", "--n", "2",
            "--out", str(tmp_path / "missing" / "x.box"),
        )
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = self.run_module(tmp_path, "distill", "--n", "2", "--eps", "3/2")
        assert proc.returncode == 2
