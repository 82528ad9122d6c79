"""Tests for the batch-runner CLI: config parsing, outputs, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphereproj import cli
from sphereproj.cli import _GRAMMAR, build_problem, main, parse_config
from sphereproj.errors import NoConvergence

PI5 = math.pi / 5


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def stationary_config(tmp_path, out):
    return write_config(tmp_path / "stationary.cfg", f"""
# stationary start: the anchor is already a common fixed point
dim = 4
cap_pole = 3
cap_radius = {PI5}
mapping = rotation 0 1 0.8
mapping = rotation 0 2 0.5
x1 = 0 0 0 1
method = cq
out = {out}
""")


HALF_TURN = f"mapping = rotation 0 1 {math.pi}"


def half_turn_config(tmp_path, out, method="both", max_iter=100):
    return write_config(tmp_path / "half_turn.cfg", f"""
dim = 4
cap_pole = 3
cap_radius = {PI5}
{HALF_TURN}
alphas = 0.5
x1 = random
method = {method}
eps_step = 1e-3
eps_residual = 1e-3
max_iter = {max_iter}
seed = 7
out = {out}
""")


class TestRunCommand:
    def test_stationary_start_exit_zero_single_row(self, tmp_path, capsys):
        cfg = stationary_config(tmp_path, tmp_path / "st")
        assert main(["run", cfg]) == 0
        rows = (tmp_path / "st_cq_trace.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one record
        assert rows[0] == "n,dist_x1_xn,step_len,res_1,res_2,constraint_count,solver_sweeps"
        summary = json.loads((tmp_path / "st_cq_summary.json").read_text())
        assert summary["stop_reason"] == "converged"
        assert summary["iterations"] == 1
        np.testing.assert_allclose(summary["final_point"], [0, 0, 0, 1], atol=1e-12)
        assert summary["dist_to_known_PF"] <= 1e-12

    def test_convergent_run_exit_zero(self, tmp_path):
        cfg = half_turn_config(tmp_path, tmp_path / "ht", method="cq")
        assert main(["run", cfg]) == 0
        summary = json.loads((tmp_path / "ht_cq_summary.json").read_text())
        assert summary["stop_reason"] == "converged"
        assert 1 < summary["iterations"] <= 20
        # the fixed circle meets the cap: the summary reports the oracle gap
        assert summary["dist_to_known_PF"] <= 5e-3

    def test_iteration_cap_exit_two(self, tmp_path):
        cfg = write_config(tmp_path / "cap.cfg", f"""
dim = 4
cap_pole = 3
cap_radius = {PI5}
mapping = rotation 0 1 0.8
mapping = rotation 0 2 0.5
x1 = random
method = cq
eps_step = 1e-12
eps_residual = 1e-12
max_iter = 5
seed = 3
out = {tmp_path / "cap"}
""")
        assert main(["run", cfg]) == 2
        summary = json.loads((tmp_path / "cap_cq_summary.json").read_text())
        assert summary["stop_reason"] == "iteration-cap"
        assert summary["iterations"] == 5

    def test_stalled_exit_two(self, tmp_path, capsys):
        """The single-rotation shrinking walk from this seed stops moving
        after 52 steps, far from eps_step: the run stops stalled, exit 2."""
        s = math.sqrt(2) / 2
        cfg = write_config(tmp_path / "stall.cfg", f"""
dim = 4
cap_pole = 0.0 0.0 {s!r} {s!r}
cap_radius = {PI5!r}
mapping = rotation 0 1 0.8
x1 = random
method = shrinking
eps_step = 1e-8
eps_residual = 1e-8
max_iter = 100
seed = 20250803
out = {tmp_path / "stall"}
""")
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().out == "[shrinking] stalled after 52 iterations\n"
        summary = json.loads((tmp_path / "stall_shrinking_summary.json").read_text())
        assert summary["stop_reason"] == "stalled"
        assert summary["iterations"] == 52
        rows = (tmp_path / "stall_shrinking_trace.csv").read_text().splitlines()
        assert len(rows) == 1 + 52

    def test_malformed_cap_radius_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", f"""
dim = 4
cap_pole = 3
cap_radius = 1.0
mapping = rotation 0 1 0.8
x1 = 0 0 0 1
method = cq
out = {tmp_path / "bad"}
""")
        assert main(["run", cfg]) == 1
        assert "cap_radius" in capsys.readouterr().err

    def test_unknown_field_exit_one(self, tmp_path, capsys):
        # there is no `schedule` key: leaving out `alphas` gives weights 0.5
        for key, value in (("bogus", "1"), ("schedule", "constant-half")):
            cfg = write_config(tmp_path / "unk.cfg", f"dim = 4\n{key} = {value}\n")
            assert main(["run", cfg]) == 1
            err = capsys.readouterr().err
            assert key in err and "line 2" in err and "unknown field" in err

    def test_duplicate_field_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "dup.cfg", "dim = 4\ndim = 5\n")
        assert main(["run", cfg]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_non_numeric_tokens_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "junk.cfg", f"""
dim = 4
cap_pole = north
cap_radius = {PI5}
mapping = rotation 0 1 0.8
method = cq
out = {tmp_path / "junk"}
""")
        assert main(["run", cfg]) == 1
        assert "cap_pole" in capsys.readouterr().err

    def test_bad_mapping_tokens_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "badmap.cfg", f"""
dim = 4
cap_pole = 3
cap_radius = {PI5}
mapping = rotation zero one 0.8
method = cq
out = {tmp_path / "badmap"}
""")
        assert main(["run", cfg]) == 1
        assert "mapping" in capsys.readouterr().err

    def test_missing_config_exit_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_x1_outside_cap_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "far.cfg", f"""
dim = 4
cap_pole = 3
cap_radius = {PI5}
mapping = rotation 0 1 0.8
x1 = 1 0 0 0
method = cq
out = {tmp_path / "far"}
""")
        assert main(["run", cfg]) == 1
        assert "x1" in capsys.readouterr().err

    def test_identity_member_runs(self, tmp_path, capsys):
        """A family with an identity member runs and gets a residual column
        per member."""
        text = Path(half_turn_config(tmp_path, tmp_path / "id", method="cq",
                                     max_iter=20)).read_text(encoding="utf-8")
        for old, new in ((f"cap_radius = {PI5}", "cap_radius = 0.6"), ("seed = 7", "seed = 3"),
                         (HALF_TURN, f"{HALF_TURN}\nmapping = identity"),
                         ("alphas = 0.5", "alphas = 0.5 0.5")):
            text = text.replace(old, new)
        assert main(["run", write_config(tmp_path / "id.cfg", text)]) == 2
        assert capsys.readouterr().out == "[cq] iteration-cap after 20 iterations\n"
        rows = (tmp_path / "id_cq_trace.csv").read_text().splitlines()
        assert rows[0] == "n,dist_x1_xn,step_len,res_1,res_2,constraint_count,solver_sweeps"
        assert len(rows) == 1 + 20

    def test_explicit_pole_vector_and_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "vec.cfg", f"""
dim = 4
cap_pole = 0 0 0 1
cap_radius = {PI5}
mapping = rotation 0 1 {math.pi}
x1 = random
method = cq
eps_step = 1e-3
eps_residual = 1e-3
seed = 1
out = {tmp_path / "ignored"}
""")
        assert main(["run", cfg, "--seed", "9", "--out", str(tmp_path / "ovr")]) == 0
        assert (tmp_path / "ovr_cq_trace.csv").exists()
        assert not (tmp_path / "ignored_cq_trace.csv").exists()


class TestBadInputs:
    """Every bad input exits 1 with a message that names its cause."""

    @staticmethod
    def half_turn_with(tmp_path, old, new):
        """The half-turn cq config with one line replaced."""
        text = Path(half_turn_config(tmp_path, tmp_path / "bad", method="cq")).read_text()
        assert old in text
        return write_config(tmp_path / "edited.cfg", text.replace(old, new))

    @staticmethod
    def exits_one(capsys, argv, cause):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert cause in err
        assert "Traceback" not in err

    def test_negative_seed(self, tmp_path, capsys):
        cfg = self.half_turn_with(tmp_path, "seed = 7", "seed = -1")
        self.exits_one(capsys, ["run", cfg], "config error: seed:")
        cfg = half_turn_config(tmp_path, tmp_path / "neg", method="cq")
        self.exits_one(capsys, ["run", cfg, "--seed", "-1"], "config error: seed:")

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("dim = 4  # größe\n".encode("latin-1"))
        self.exits_one(capsys, ["run", str(path)], "config error: cannot read config file")

    def test_out_directory_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("", encoding="utf-8")
        cfg = half_turn_config(tmp_path, tmp_path / "taken" / "run", method="cq")
        self.exits_one(capsys, ["run", cfg], "error: cannot write outputs")

    def test_nan_epsilon(self, tmp_path, capsys):
        cfg = self.half_turn_with(tmp_path, "eps_step = 1e-3", "eps_step = nan")
        self.exits_one(capsys, ["run", cfg], "stop rule")

    def test_weight_count(self, tmp_path, capsys):
        cfg = self.half_turn_with(tmp_path, "alphas = 0.5", "alphas = 0.5 0.5")
        self.exits_one(capsys, ["run", cfg], "alphas: expected 1 stage weights, got 2")

    def test_radius_cos_cannot_resolve(self, tmp_path, capsys):
        cfg = self.half_turn_with(tmp_path, f"cap_radius = {PI5}", "cap_radius = 1e-9")
        self.exits_one(capsys, ["run", cfg],
                       "config error: problem: cap radius is too small for cos to resolve, "
                       "got 1e-09")

    @pytest.mark.parametrize("old, new, cause", [
        ("method = cq", "method = fast",
         "config error: line 8: method: must be one of cq, shrinking, both"),
        ("seed = 7", "seed 7", "config error: line 12: expected 'key = value'"),
        ("dim = 4", "dim = four", "config error: line 2: dim: invalid literal for int()"),
        ("x1 = random", "x1 = 0 0 1",
         "config error: x1: expected an axis index or 4 coordinates, got 3"),
        ("x1 = random", "x1 = 0 0 0 0",
         "config error: x1: cannot normalize a (near-)zero vector onto the sphere"),
        (HALF_TURN, "mapping =", "config error: mapping: empty specification"),
        (HALF_TURN, "mapping = identity 0", "config error: mapping: identity takes no arguments"),
        (HALF_TURN, "mapping = rotation 0 1",
         "config error: mapping: rotation needs 'rotation <i> <j> <angle>'"),
        (HALF_TURN, "mapping = shear 0 1 0.5", "config error: mapping: unknown type 'shear'"),
        (HALF_TURN, "mapping = rotation 0 4 0.5",
         "config error: mapping: plane (0,4) invalid for dim 4"),
        (HALF_TURN, "mapping = rotation 1 1 0.5",
         "config error: mapping: need 0 <= axis_i < axis_j"),
        ("dim = 4", "", "config error: dim: must be an integer >= 2"),
        ("dim = 4", "dim = 1", "config error: dim: must be an integer >= 2"),
        (HALF_TURN, "", "config error: mapping: at least one mapping block is required"),
        ("method = cq", "", "config error: method: required field"),
        ("cap_pole = 3", "", "config error: cap_pole: required field"),
    ])
    def test_bad_field(self, tmp_path, capsys, old, new, cause):
        self.exits_one(capsys, ["run", self.half_turn_with(tmp_path, old, new)], cause)

    def test_library_error_exits_one(self, tmp_path, capsys, monkeypatch):
        """`main` reports a numerical error from the run as `error: ...`."""
        def fail(*args):
            raise NoConvergence("solver gave up")

        monkeypatch.setattr(cli, "run", fail)
        cfg = half_turn_config(tmp_path, tmp_path / "fail", method="cq")
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: solver gave up\n"

    def test_usage_errors_exit_one(self, capsys):
        """argparse's usage errors exit 1 too, not argparse's own 2, which
        is the code of a run that did not converge; --help still exits 0."""
        for argv, cause in (([], "required: command"),
                            (["run"], "required: config"),
                            (["bogus", "x.cfg"], "invalid choice: 'bogus'"),
                            (["run", "x.cfg", "--seed", "abc"], "invalid int value: 'abc'")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert "usage: sphereproj" in err and cause in err
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage: sphereproj" in capsys.readouterr().out


def readme_config():
    """The config block of the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_documented_configs_match_the_grammar(tmp_path):
    """The README's config block and the module docstring's example each
    parse, build a problem, and name exactly the grammar's keys plus
    `mapping`."""
    examples = {"README": readme_config(),
                "docstring": cli.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]}
    for name, text in examples.items():
        build_problem(parse_config(write_config(tmp_path / f"{name}.cfg", text)))
        lines = (raw.split("#", 1)[0] for raw in text.splitlines())
        keys = {line.split("=", 1)[0].strip() for line in lines if line.strip()}
        assert keys == set(_GRAMMAR) | {"mapping"}, name


def test_production_paths_leave_the_oracle_unimported():
    """The README's "Oracles stay out of production paths": a fresh process
    that imports the package and its CLI and runs a walk never loads
    `sphereproj.oracle`, and every name in `sphereproj.__all__` resolves."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "import sphereproj as sp, sphereproj.cli; "
        "pole = sp.basis_point(3, 4); "
        "family = sp.MappingFamily([sp.PlaneRotation(0, 1, 0.8), sp.PlaneRotation(0, 2, 0.5)]); "
        "problem = sp.Problem(4, pole, 0.6, family, sp.random_point_in_cap(pole, 0.6, 1)); "
        "sp.run(problem, 'cq', sp.StopRule(max_iter=20)); "
        "print(json.dumps(['sphereproj.oracle' in sys.modules, "
        "[n for n in sp.__all__ if not hasattr(sp, n)]]))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, []]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: an audit fires on rounding in a well-posed walk")
def test_item_8_tiny_cap_readme_config_runs(tmp_path, capsys):
    """The README config with cap_radius = 1e-6 and seed = 0 exits 1 today,
    with `error: iteration 17: d(x1, x_n) decreased by 1.890e-10` from the CQ
    walk."""
    lines = []
    for line in readme_config().splitlines():
        key = line.split("=", 1)[0].strip()
        new = {"cap_radius": "1e-6", "seed": "0", "out": str(tmp_path / "tiny")}.get(key)
        lines.append(line if new is None else f"{key} = {new}")
    assert main(["run", write_config(tmp_path / "tiny.cfg", "\n".join(lines))]) in (0, 2), \
        capsys.readouterr().err


class TestCompareCommand:
    def test_requires_both(self, tmp_path, capsys):
        cfg = half_turn_config(tmp_path, tmp_path / "c1", method="cq")
        assert main(["compare", cfg]) == 1
        assert "both" in capsys.readouterr().err

    def test_compare_outputs(self, tmp_path):
        cfg = half_turn_config(tmp_path, tmp_path / "c2")
        assert main(["compare", cfg]) == 0
        payload = json.loads((tmp_path / "c2_compare.json").read_text())
        assert set(payload) == {"cq", "shrinking", "final_point_distance"}
        for method in ("cq", "shrinking"):
            assert payload[method]["stop_reason"] == "converged"
            assert payload[method]["total_solver_sweeps"] > 0
            assert (tmp_path / f"c2_{method}_trace.csv").exists()
        # both methods settle to the anchor's fixed-circle projection
        assert payload["final_point_distance"] <= 2e-3

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = half_turn_config(tmp_path, tmp_path / "d1")
        assert main(["compare", cfg, "--out", str(tmp_path / "p1")]) == 0
        assert main(["compare", cfg, "--out", str(tmp_path / "p2")]) == 0
        for suffix in ("cq_trace.csv", "shrinking_trace.csv", "compare.json"):
            a = (tmp_path / f"p1_{suffix}").read_bytes()
            b = (tmp_path / f"p2_{suffix}").read_bytes()
            assert a == b

    def test_every_summary_has_the_target_distance(self, tmp_path):
        """dist_to_known_PF, the distance to Problem.target, is written by
        every `run` summary and every `compare` entry."""
        for method in ("cq", "shrinking", "both"):
            cfg = half_turn_config(tmp_path, tmp_path / method, method=method)
            assert main(["run", cfg]) == 0
            for m in ("cq", "shrinking") if method == "both" else (method,):
                summary = json.loads((tmp_path / f"{method}_{m}_summary.json").read_text())
                assert 0.0 <= summary["dist_to_known_PF"] <= 5e-3
        cfg = half_turn_config(tmp_path, tmp_path / "cmp")
        assert main(["compare", cfg]) == 0
        payload = json.loads((tmp_path / "cmp_compare.json").read_text())
        for m in ("cq", "shrinking"):
            assert 0.0 <= payload[m]["dist_to_known_PF"] <= 5e-3

    def test_seed_changes_trace(self, tmp_path):
        cfg = half_turn_config(tmp_path, tmp_path / "d2")
        assert main(["compare", cfg, "--out", str(tmp_path / "s1")]) == 0
        assert main(["compare", cfg, "--seed", "8", "--out", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1_cq_trace.csv").read_bytes()
        b = (tmp_path / "s2_cq_trace.csv").read_bytes()
        assert a != b


class TestTraceSchema:
    def test_float_format_and_column_count(self, tmp_path):
        cfg = half_turn_config(tmp_path, tmp_path / "sch", method="cq")
        assert main(["run", cfg]) == 0
        rows = (tmp_path / "sch_cq_trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["n", "dist_x1_xn", "step_len", "res_1",
                          "constraint_count", "solver_sweeps"]
        for line in rows[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            int(cells[0]); float(cells[1]); float(cells[2]); float(cells[3])
            int(cells[4]); int(cells[5])
