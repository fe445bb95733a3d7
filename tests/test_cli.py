import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weierpath import cli
from weierpath.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_figure_preset_emits_two_files(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        code, _, _ = run(["eval", "--figure1", "--N", "8", "--points", "65",
                          "--out", str(out)], capsys)
        assert code == 0
        curves = (out.parent / "fig1_curves.csv").read_text().splitlines()
        par = (out.parent / "fig1_parametric.csv").read_text().splitlines()
        assert curves[0] == "t,W1,W2"
        assert par[0] == "W1,W2"
        assert len([l for l in curves if not l.startswith("#")]) == 66
        assert any(l.startswith("# component0=") for l in curves)
        assert any(l.startswith("# generator=weierpath") for l in curves)

    def test_single_point_grid(self, capsys):
        code, out, _ = run(["eval", "--b", "2", "--a", "18/25", "--N", "3",
                            "--grid-step", "1"], capsys)
        assert code == 0
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "t,W1"
        assert len(data) == 3  # t = 0 and t = 1

    def test_two_components_monotone_grid(self, capsys):
        code, out, _ = run(["eval", "--figure-params", "--N", "4",
                            "--grid-step", "1/1024"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1025
        times = [eval(r.split(",")[0].replace("/", "/")) for r in []]  # format check below
        assert rows[0].startswith("0/1,") or rows[0].startswith("0,")
        assert rows[-1].split(",")[0] in ("1/1", "1")

    def test_malformed_config_names_flag(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code, _, err = run(["eval", "--config", str(bad)], capsys)
        assert code == 1
        assert "--config" in err

    def test_missing_components_names_flag(self, capsys):
        code, _, err = run(["eval"], capsys)
        assert code == 1
        assert "--b" in err


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        code, _, err = run(["norms", "--figure-params", "--alpha", "0.5", "--N", "8",
                            "--depth", "6"], capsys)
        assert code == 1
        assert "alpha" in err

    def test_tolerance_unreachable_is_two(self, capsys):
        code, _, err = run(["lift", "--figure-params", "--tol", "1e-30"], capsys)
        assert code == 2
        assert "unreachable" in err

    def test_converge_single_level_is_one(self, capsys):
        code, _, err = run(["converge", "--figure-params", "--Ns", "4"], capsys)
        assert code == 1
        assert "insufficient" in err

    def test_unknown_flag_is_one(self, capsys):
        code, _, err = run(["eval", "--nope"], capsys)
        assert code == 1

    BOUNDS = ["bounds", "--b1", "2", "--b2", "3", "--n", "1", "--ell", "1", "--eps", "0.1"]

    @pytest.mark.parametrize("argv,flag", [
        (["eval", "--figure-params", "--figure1", "--points", "1"], "--points"),
        (["eval", "--figure-params", "--figure1", "--points", "0"], "--points"),
        (["converge", "--figure-params", "--Ns", "4,x"], "--Ns"),
        (["demo", "--Ns", "x"], "--Ns"),
        (["rde", "--figure-params", "--y0", "1,x"], "--y0"),
        (BOUNDS + ["--depth", "0"], "--depth"),
        (BOUNDS + ["--samples", "0"], "--samples"),
        (["rde", "--figure-params", "--points", "1"], "--points"),
        (["norms", "--figure-params", "--alpha", "0.46", "--depth", "0"], "--depth"),
        (["converge", "--figure-params", "--depth", "0"], "--depth"),
        # rational flags parse through an argparse type, so the message names them
        (["lift", "--figure-params", "--s", "x"], "--s"),
        (["eval", "--b", "2", "--a", "18/25", "--grid-step", "1/0"], "--grid-step"),
        (["rde", "--figure-params", "--step", "x"], "--step"),
        (["demo", "--t", "x"], "--t"),
        (["lift", "--figure-params", "--t", "3/2"], "--t"),
        # the cost guard: more than 2^16 + 1 points
        (["eval", "--figure-params", "--figure1", "--points", "65538"], "--points"),
        (["eval", "--b", "2", "--a", "18/25", "--grid-step", "1/65537"], "--grid-step"),
    ])
    def test_bad_value_is_one_and_names_the_flag(self, argv, flag, tmp_path, capsys):
        code, _, err = run(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert flag in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        # 0.1 * 3^-700 underflows to 0 and 3.0^700 overflows in float; both are exact now
        ("rde --figure-params --N 700", "about 2^1113 RK4 steps, above 67108864 (cost guard)"),
        ("rde --figure-params --N 700 --step 1/1024", "decrease step to at most 1/(2*3^700)"),
        # the default step of level 40 is 2^-67
        ("rde --figure-params --N 40", "about 2^67 RK4 steps, above 67108864 (cost guard)"),
    ])
    def test_ode_beyond_the_step_guards_is_one(self, argv, message, tmp_path, capsys):
        code, _, err = run(argv.split() + ["--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["lift", "--figure-params"],
        ["norms", "--figure-params", "--alpha", "0.46", "--depth", "6"],
        ["rde", "--figure-params", "--rough", "--step", "1/1024", "--points", "33"],
    ], ids=["lift", "norms", "rde"])
    def test_infinite_tolerance_is_one(self, argv, tmp_path, capsys):
        # an infinite tolerance bounds nothing, and "tol": Infinity is not valid JSON
        code, _, err = run(argv + ["--tol", "inf", "--out", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "tolerance must be positive and finite, got inf" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,flags", [
        ("rde --figure-params --tol 1e-6 --points 3", ["--tol"]),
        ("norms --figure-params --witness --tol 1e-6", ["--tol"]),
        ("lift --figure-params --N 3 --tol 1e-6", ["--N"]),
        ("lift --figure-params --N 3 --eps-prime 0.2", ["--eps-prime"]),
        ("rde --figure3 --rough --points 3", ["--rough"]),
        ("rde --figure3 --N 5 --points 3", ["--N"]),
        ("rde --figure-params --N 4 --tol 1e-6 --rough --step 1/64 --points 3", ["--N"]),
        ("norms --figure-params --witness --estimate-exponent --alpha 0.46",
         ["--estimate-exponent", "--alpha"]),
        ("norms --figure-params --estimate-exponent --alpha 0.46 --depth 4", ["--alpha"]),
        ("eval --figure-params --N 3 --grid-step 1/2 --points 5", ["--points"]),
        ("eval --figure1 --b 5 --a 1/2 --N 3 --points 3", ["--b", "--a"]),
        ("eval --config cfg.json --b 3 --a 3/5 --N 3 --grid-step 1/2", ["--b", "--a"]),
        ("eval --figure-params --config cfg.json --N 3 --grid-step 1/2", ["--config"]),
        ("demo --figure-params --Ns 1,2", ["--figure-params"]),
        ("demo --phase sin --Ns 1,2", ["--phase"]),
        ("demo --b 2 --b 3 --a 18/25 --a 3/5 --Ns 1,2", ["--b"]),
        ("demo --config cfg.json --Ns 1,2", ["--config"]),
        ("demo --alpha 0.4 --Ns 1,2", ["--alpha"]),
    ])
    def test_flag_the_mode_does_not_read_is_one(self, argv, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"components": [{"b": 2, "a": "18/25"}]}))
        out = tmp_path / "out"
        argv = [str(cfg) if x == "cfg.json" else x for x in argv.split()]
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1
        assert any(flag in err for flag in flags), err
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_bad_demo_amplitude_is_one(self, capsys):
        # validate_component parses the amplitude, so the message names it
        for argv, value in ((["demo", "--a", "x", "--Ns", "1,2"], "x"),
                            (["eval", "--b", "2", "--a", "x"], "x"),
                            (["eval", "--b", "2", "--a", "1/0"], "1/0")):
            code, _, err = run(argv, capsys)
            assert code == 1
            assert f"amplitude ratio a must be a rational such as 18/25, got '{value}'" in err


class TestLift:
    def test_truncated_json(self, capsys):
        code, out, _ = run(["lift", "--figure-params", "--N", "8", "--s", "0", "--t", "1"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 8
        assert len(payload["first"]) == 2
        assert len(payload["second"]) == 2 and len(payload["second"][0]) == 2
        # base-2 cosine component: increment over [0, 1] is exactly -2
        assert payload["first"][0] == -2.0

    def test_limit_json(self, capsys):
        code, out, _ = run(["lift", "--figure-params", "--tol", "1e-5",
                            "--eps-prime", "0.1", "--s", "0", "--t", "1/2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tol"] == 1e-5


class TestNorms:
    def test_seminorm_json(self, capsys):
        code, out, _ = run(["norms", "--figure-params", "--alpha", "0.46", "--N", "8",
                            "--depth", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {"holderPart", "areaPart", "alphaUsed", "gridSpec"} <= set(payload)

    def test_exponent_fit_csv(self, capsys):
        code, out, _ = run(["norms", "--figure-params", "--estimate-exponent",
                            "--N", "12", "--depth", "8"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "component,m,scale,supIncrement"
        assert any(l.startswith("# alphaHat0=") for l in lines)

    def test_witness_json(self, capsys):
        code, out, _ = run(["norms", "--figure-params", "--witness", "--N", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        bounds = [w["lowerBound"] for w in payload["witnesses"]]
        assert bounds == [2.0, pytest.approx(3.0)]


class TestConverge:
    def test_csv_report(self, capsys):
        code, out, _ = run(["converge", "--figure-params", "--Ns", "4,6,8",
                            "--depth", "6"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,supFirst,supSecond"
        assert any(l.startswith("# fittedRatio=") for l in lines)
        assert any(l.startswith("# theoreticalRho=") for l in lines)

    def test_json_report(self, capsys):
        code, out, _ = run(["converge", "--figure-params", "--Ns", "4,6",
                            "--depth", "6", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["Ns"] == [4, 6]
        assert "supSecondEntries" in payload


class TestRde:
    def test_figure_preset_three_files(self, tmp_path, capsys):
        out = tmp_path / "f3"
        code, _, _ = run(["rde", "--figure3", "--points", "33", "--out", str(out)], capsys)
        assert code == 0
        for N in (4, 8, 12):
            lines = (out.parent / f"f3_N{N}.csv").read_text().splitlines()
            assert lines[0] == "t,Y1,Y2"
            assert lines[1] == "0.0,1.0,0.0"
            assert len([l for l in lines if not l.startswith("#")]) == 34
            assert any(l == f"# N={N}" for l in lines)

    def test_coarse_step_rejected_by_guard(self, capsys):
        code, _, err = run(["rde", "--figure-params", "--N", "8", "--step", "1/2048"],
                           capsys)
        assert code == 1
        assert "decrease step" in err

    def test_path_csv(self, capsys):
        code, out, _ = run(["rde", "--figure-params", "--N", "4", "--points", "9"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,Y1,Y2"
        assert lines[1].startswith("0.0,1.0,0.0")


class TestDemo:
    def test_table_csv(self, capsys):
        code, out, _ = run(["demo", "--Ns", "1,2,3", "--s", "0", "--t", "7/10"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("N,F1dG1,F2dG2,sumCombo,diffCombo")
        assert len([l for l in lines if not l.startswith("#")]) == 4


class TestBounds:
    def test_csv_columns(self, capsys):
        code, out, _ = run(["bounds", "--b1", "2", "--b2", "3", "--n", "2", "--ell", "3",
                            "--eps", "0.2", "--samples", "20"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,ell,s,t,J,bound_i,bound_ii,bound_iii,bound_iv"
        assert any(l.startswith("# bound_iv=") for l in lines)


class TestGeneratedArgv:
    """cli.main on argv drawn from the table: a mode's flags, valid and invalid values, a stray flag."""

    # values per dest, valid ones first; sizes capped so that no run takes long
    # (eval's cost guard still admits 65,537 points, about 20 s)
    VALUES = {
        "b": ["2", "3", "5", "1", "x"], "a": ["18/25", "3/5", "1/2", "2", "x"],
        "component_alpha": ["0.47", "0.4", "1.5", "x"], "phase": ["cos", "sin", "tan"],
        "config": ["cfg.json", "missing.json"], "N": ["2", "4", "0", "-1", "x"],
        "tol": ["1e-3", "1e-4", "1e-30", "0", "inf", "x"], "eps_prime": ["0.1", "0.5", "0", "x"],
        "norm_alpha": ["0.46", "0.4", "0.9", "0.2", "x"], "beta": ["0.4", "0.44", "x"],
        "eps": ["0.02", "0.2", "0", "x"], "Ns": ["2,3", "3,5", "4", "0,1", "x"],
        "grid_step": ["1/4", "1/16", "1", "0", "2", "x"], "step": ["1/64", "1/256", "1/2", "0", "x"],
        "s": ["0", "1/3", "1/2", "3/2", "x"], "t": ["1", "1/2", "2/3", "-1", "x"],
        "points": ["2", "5", "9", "1", "x"], "depth": ["4", "5", "6", "0", "x"],
        "y0": ["1,0", "0.5,1", "1", "x"], "samples": ["4", "8", "0"],
        "b1": ["2", "3", "x"], "b2": ["3", "5"], "n": ["1", "2", "0"], "ell": ["1", "3"],
    }
    SIZES = {"N", "points", "depth", "grid_step", "Ns", "samples"}
    SLOW = "figure3"  # three ODE solves up to N = 12, about 1 s at any --points

    @classmethod
    def draw_argv(cls, data, command):
        """argv of one mode of ``command``, every size flag given, and maybe one stray flag."""
        modes = cli.COMMANDS[command][2]
        flags = modes[data.draw(st.sampled_from([key for key in modes if key[0] != cls.SLOW]))]
        dests = [d for d, v in flags.items() if v is cli.REQUIRED] + sorted(cls.SIZES & set(flags))
        dests += [d for d in flags if d not in dests and d != "out" and data.draw(st.booleans())]
        if data.draw(st.booleans()):
            stray = {d for f in modes.values() for d in f} - {"out", cls.SLOW}
            dests.append(data.draw(st.sampled_from(sorted(stray))))
        dests = data.draw(st.permutations(list(dict.fromkeys(dests))))
        argv, count = [command], data.draw(st.sampled_from([1, 1, 2]))
        for dest in dests:
            option, kind, _ = cli.FLAGS[dest]
            if kind is None:
                argv.append(option)
                continue
            for _ in range(count if isinstance(flags.get(dest), list) else 1):
                argv += [option, data.draw(st.sampled_from(cls.VALUES[dest]))]
        return argv, set(dests)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_output(self, command, data, tmp_path, capsys):
        argv, given_dests = self.draw_argv(data, command)
        run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        (run_dir / "cfg.json").write_text(json.dumps({"components": [{"b": 2, "a": "18/25"}]}))
        argv = [str(run_dir / x) if x.endswith(".json") else x for x in argv]
        code = main(argv + ["--out", str(run_dir / "out")])
        capsys.readouterr()
        assert code in (0, 1, 2)
        if code != 0:
            return
        _, flags = cli._mode(command, given_dests)
        assert given_dests <= set(flags)
        outputs = [p for p in run_dir.iterdir() if p.name != "cfg.json"]
        assert outputs
        for path in outputs:
            text = path.read_text()
            if text.startswith("{"):
                json.loads(text)
                continue
            rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
            assert len(rows) >= 2 and len({len(row) for row in rows}) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["eval", "--b", "2", "--a", "18/25", "--N", "6", "--grid-step", "1/128"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_help_runs(script):
    # the scripts import library internals that no other test reaches
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_layer_targets_resolve(monkeypatch):
    # a renamed library function would silently zero its perfbench layer; the
    # two expected absentees are stale targets the benchmark keeps until it is updated
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    absent = set()
    for _, module, path, _, _ in layers.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.add(f"{module}.{path}")
    assert absent == {"weierpath.iterated.iterated_grid_prefix",
                      "weierpath.iterated._truncated_best_path"}


def test_traced_ode_layers_count_the_solve(monkeypatch, figure_pair):
    # the benchmark's ode_fig3 layers read their work from these calls: one
    # stage-matrix step per RK4 step, and one W' call per component and block
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)
    spec.loader.exec_module(layers)
    from weierpath.rde import _STEP_BLOCK, BilinearField, RdeProblem, solve_ode_truncated

    K = 16384
    problem = RdeProblem(BilinearField(), figure_pair, [1.0, 0.0], step=Fraction(1, K))
    with layers.Tracer() as tracer:
        solve_ode_truncated(problem, 4)
    blocks = K // _STEP_BLOCK
    assert blocks == 2
    # the spot check adds 4 whole steps and 8 half steps, in one call each
    assert tracer.stats["rde.stage_matrices"].work == K + 12
    assert tracer.stats["weierstrass.derivative_affine"].calls == figure_pair.d * (blocks + 2)
