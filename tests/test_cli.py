import json
import subprocess
import sys
from pathlib import Path

import pytest

from nesthilb.cli import (
    UsageError,
    build_parser,
    main,
    parse_bundle,
    parse_surface,
    run_checks,
)


def run_cli(args):
    return main(args)


class TestSelectors:
    def test_builtin_surfaces(self):
        assert parse_surface("p2").euler_number == 3
        assert parse_surface("p1xp1").euler_number == 4
        assert parse_surface("fa:2").euler_number == 4

    def test_unknown_surface(self):
        with pytest.raises(UsageError):
            parse_surface("p3")

    def test_bundle_coeffs(self):
        S = parse_surface("p2")
        M, coeffs = parse_bundle(S, "0,0,1")
        assert coeffs == [0, 0, 1]

    def test_bundle_label(self):
        S = parse_surface("p2")
        M, coeffs = parse_bundle(S, "K")
        assert M.label == "K" and coeffs == []

    def test_bad_coeff_count(self):
        with pytest.raises(UsageError):
            parse_bundle(parse_surface("p2"), "1,2")

    def test_bad_label(self):
        with pytest.raises(UsageError):
            parse_bundle(parse_surface("p2"), "nope")


class TestExitCodes:
    def test_passing_run(self, capsys):
        code = run_cli(["--surface", "p2", "--bundle", "0,0,0",
                        "--check", "theorem7", "--nmax", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("flag", ["--bundle", "-b"])
    def test_negative_coefficients_after_a_space(self, flag, capsys):
        # K on p2: argparse alone takes "-1,-1,-1" for an option and exits 2
        base = ["--surface", "p2", "--check", "theorem7", "--nmax", "1", "--output", "json"]
        assert run_cli([*base, "--bundle=-1,-1,-1"]) == 0
        joined = capsys.readouterr().out
        assert json.loads(joined)["bundle"] == [-1, -1, -1]
        assert run_cli([*base, flag, "-1,-1,-1"]) == 0
        assert capsys.readouterr().out == joined

    def test_missing_file_is_usage_error(self, capsys):
        assert run_cli(["--surface", "file:missing.json"]) == 2

    def test_bad_check_is_usage_error(self, capsys):
        assert run_cli(["--check", "theorem9"]) == 2

    def test_negative_nmax_is_usage_error(self, capsys):
        assert run_cli(["--nmax", "-1"]) == 2
        assert capsys.readouterr().err == "error: nmax must be nonnegative\n"

    def test_bad_workers(self, capsys):
        assert run_cli(["--workers", "0"]) == 2

    def test_unknown_bundle_label_is_usage_error(self, capsys):
        assert run_cli(["--surface", "p2", "--bundle", "Q"]) == 2
        assert capsys.readouterr().err == "error: no bundle named 'Q' on surface 'p2'\n"

    def test_wrong_coefficient_count_names_the_surface(self, capsys):
        assert run_cli(["--surface", "p2", "--bundle", "1,2"]) == 2
        assert capsys.readouterr().err == (
            "error: surface 'p2' has 3 fan rays: expected 3 divisor coefficients, got 2\n")

    def test_degenerate_descriptor_is_usage_error(self, tmp_path, capsys):
        descriptor = {
            "name": "flat",
            "fixed_points": [{"w1": [1, 1], "w2": [2, 2]}] * 3,
        }
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(descriptor))
        assert run_cli(["--surface", f"file:{path}"]) == 2
        assert "fixed_points[0]: chart weights" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["theorem7", "case2"])
    def test_inconsistent_canonical_bundle_is_usage_error(self, tmp_path, capsys, check):
        # every chart weight has an opposite, but the edge from fixed_points[0]
        # along [0, 1] has no end, so K = -w1 - w2 is no bundle either;
        # unchecked at load, these checks died on K with a traceback
        descriptor = {"name": "bad-K", "fixed_points": [
            {"w1": [1, 0], "w2": [0, 1]},
            {"w1": [-1, 0], "w2": [1, 1]},
            {"w1": [-1, -1], "w2": [0, -1]},
        ]}
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(descriptor))
        assert run_cli(["--surface", f"file:{path}", "--check", check, "--nmax", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot load surface file: fixed_points[0]: the edge along [0, 1] needs one "
            "end with chart weights [0, -1] and [1, 0] - m * [0, 1], m an integer; found none\n"
        )

    @pytest.mark.parametrize("check", ["theorem7", "theorem5", "case2", "case3", "zprod"])
    def test_repeated_fixed_point_is_usage_error(self, tmp_path, capsys, check):
        # with P^2's third fixed point listed twice, the edge from
        # fixed_points[0] along [0, 1] has two ends; case3, which integrates
        # nothing and so cannot meet a non-constant sum, must refuse it too
        descriptor = {"name": "p2-twice", "fixed_points": PLANE_POINTS + PLANE_POINTS[2:]}
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(descriptor))
        assert run_cli(["--surface", f"file:{path}", "--check", check, "--nmax", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot load surface file: fixed_points[0]: the edge along [0, 1] needs one "
            "end with chart weights [0, -1] and [1, 0] - m * [0, 1], m an integer; found "
            "fixed_points[2], fixed_points[3]\n"
        )

    def test_non_object_fixed_point_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"name": "ints", "fixed_points": [1, 2, 3]}))
        assert run_cli(["--surface", f"file:{path}"]) == 2
        assert "fixed_points[0]: expected an object" in capsys.readouterr().err

    def test_unwritable_out_path_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        code = run_cli(["--check", "theorem7", "--nmax", "1", "--out", str(path)])
        assert code == 2
        assert f"error: cannot write report to {path}: " in capsys.readouterr().err

    def test_all_checks_quadric(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["--surface", "p1xp1", "--check", "all", "--nmax", "1",
                        "--output", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "theorem7", "theorem5", "case2", "case3", "zprod"
        }


class TestJsonReport:
    def test_schema_and_value_serialization(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli(["--surface", "p2", "--check", "theorem7", "--nmax", "1",
                 "--output", "json", "--out", str(out), "--seed", "5"])
        doc = json.loads(out.read_text())
        assert doc["surface"] == "p2"
        assert doc["seed"] == 5
        check = doc["checks"][0]
        assert check["name"] == "theorem7"
        entry = {(e["n1"], e["n2"]): e for e in check["entries"]}
        assert entry[(1, 0)]["lhs"] == "-9"
        assert entry[(1, 0)]["match"] is True
        assert isinstance(check["millis"], int)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        outputs = []
        for w in ("1", "4", "8"):
            path = tmp_path / f"w{w}.json"
            code = run_cli(["--surface", "p2", "--check", "theorem5",
                            "--nmax", "1", "--workers", w, "--seed", "11",
                            "--output", "json", "--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_text_and_json_report_same_values(self, tmp_path, capsys):
        run_cli(["--surface", "p2", "--check", "theorem7", "--nmax", "1"])
        text = capsys.readouterr().out
        path = tmp_path / "r.json"
        run_cli(["--surface", "p2", "--check", "theorem7", "--nmax", "1",
                 "--output", "json", "--out", str(path)])
        doc = json.loads(path.read_text())
        for e in doc["checks"][0]["entries"]:
            assert f"lhs={e['lhs']}" in text

    def test_timings_change_only_millis(self, tmp_path):
        def report(*flags):
            path = tmp_path / "r.json"
            run_cli(["--surface", "p1xp1", "--check", "all", "--nmax", "2",
                     "--output", "json", "--out", str(path), *flags])
            return json.loads(path.read_text())

        plain, timed = report(), report("--timings")
        assert [c["millis"] for c in plain["checks"]] == [0] * 5
        assert all(type(c["millis"]) is int and c["millis"] >= 0 for c in timed["checks"])
        assert any(c["millis"] > 0 for c in timed["checks"])  # theorem5 alone takes milliseconds
        for check in timed["checks"]:
            check["millis"] = 0
        assert timed == plain


PLANE_POINTS = [
    {"w1": [1, 0], "w2": [0, 1], "bundles": {}},
    {"w1": [-1, 1], "w2": [-1, 0], "bundles": {}},
    {"w1": [0, -1], "w2": [1, -1], "bundles": {}},
]


class TestCustomSurfaceRun:
    def test_coefficients_on_a_surface_without_fan_data(self, tmp_path, capsys):
        # a coefficient list that is no label of the surface needs fan data
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"name": "custom-plane", "fixed_points": PLANE_POINTS}))
        assert run_cli(["--surface", f"file:{path}", "--bundle", "0,0,0"]) == 2
        assert capsys.readouterr().err == (
            "error: surface 'custom-plane' has no fan data; use a named bundle\n")

    def test_a_label_that_reads_as_coefficients_is_selected(self, tmp_path, capsys):
        # the surface's own label wins over the coefficient reading
        weights = ([0, 0], [-1, 0], [0, -1])  # O(1) on the plane
        points = [dict(pt, bundles={"1": w}) for pt, w in zip(PLANE_POINTS, weights)]
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"name": "custom-plane", "fixed_points": points}))
        M, coeffs = parse_bundle(parse_surface(f"file:{path}"), "1")
        assert (M.label, coeffs) == ("1", [])
        base = ["--surface", f"file:{path}", "--check", "all", "--nmax", "1"]
        assert run_cli([*base, "--bundle", "1"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_file_surface(self, tmp_path, capsys):
        descriptor = {"name": "custom-plane", "fixed_points": PLANE_POINTS}
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(descriptor))
        code = run_cli(["--surface", f"file:{path}", "--bundle", "O",
                        "--check", "theorem7", "--nmax", "1"])
        assert code == 0

    def test_scaled_plane_matches_custom_plane(self, tmp_path):
        # scaled-plane is custom-plane with the torus reparametrized by
        # s -> 2s and L's linearization shifted by [1, 0]; its chart weights
        # are no lattice basis, so a twist is half a local exponent there.
        # Neither change may move an invariant.
        root = Path(__file__).resolve().parents[1]
        checks = {}
        for path in (root / "perfbench" / "data" / "custom-plane.json",
                     root / "tests" / "data" / "scaled-plane.json"):
            out = tmp_path / f"{path.stem}.json"
            assert run_cli(["--surface", f"file:{path}", "--bundle", "L", "--check", "all",
                            "--nmax", "3", "--output", "json", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            checks[path.stem] = [(c["name"], c["entries"]) for c in report["checks"]]
        assert [name for name, _ in checks["custom-plane"]] == [
            "theorem7", "theorem5", "case2", "case3", "zprod"
        ]
        assert checks["scaled-plane"] == checks["custom-plane"]


class TestFanoDecision:
    def test_theorem5_asserted_only_on_fano_fans(self, tmp_path):
        # Fano-ness comes from the chart weights (every invariant curve has
        # self-intersection >= -1), never from the name: of two descriptors
        # called "p2", the one with F_2's charts is not Fano
        plane, f2 = tmp_path / "plane.json", tmp_path / "f2.json"
        plane.write_text(json.dumps({"name": "p2", "fixed_points": PLANE_POINTS}))
        f2_points = [{"w1": [*c.w1], "w2": [*c.w2]} for c in parse_surface("fa:2").charts]
        f2.write_text(json.dumps({"name": "p2", "fixed_points": f2_points}))
        expected = {"fa:0": False, "fa:1": False, "fa:2": True, "fa:3": True,
                    f"file:{plane}": False, f"file:{f2}": True}
        for selector, informational in expected.items():
            S = parse_surface(selector)
            (report,) = run_checks(S, S.bundle("O"), "theorem5", 1, seed=0)
            assert report.informational is informational, selector


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.surface == "p2"
        assert args.bundle == "O"
        assert args.check == "all"
        assert args.workers == 1


class TestScripts:
    @pytest.mark.parametrize("script", ["run_all_checks.py", "zprod_goldens.py"])
    def test_runs_outside_the_repo_root(self, script, tmp_path):
        path = Path(__file__).resolve().parent.parent / "scripts" / script
        done = subprocess.run([sys.executable, str(path), "1"], cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
