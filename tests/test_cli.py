import dataclasses
import json
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from distcost import cli
from distcost.cli import _COMMAND_OPTIONS, _KEYS, EXIT_CONFIG, EXIT_NUMERIC, EXIT_PARSE, entry
from distcost.energy import EnergyReport, disturbed_signal_energy
from distcost.errors import NumericalError
from distcost.gramian import build_bundle
from distcost.models import admire, load_model, save_model
from distcost.signals import make_disturbance
from distcost.systems import StabilizationTask

from conftest import metzler_system


# a finite initial state whose energies overflow a double
HUGE_X0 = "1e200,1e200,1e200"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return entry([*argv, "--out", str(out)]), out


@pytest.fixture()
def fast_args():
    # small grids keep CLI tests quick; correctness-at-scale lives in
    # the acceptance module
    return ["--tf-grid", "0.5,1", "--R-grid", "10,100"]


class TestStabilize:
    def test_writes_four_trajectories_and_summary(self, tmp_path):
        rc, out = run(tmp_path, "stabilize", "--steps", "1000")
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == ["summary.json", "traj_constant.csv", "traj_nominal.csv",
                         "traj_piecewise.csv", "traj_sinusoid.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 4
        for entry_ in summary["runs"]:
            assert entry_["terminal_residual"] <= 1e-5

    def test_zero_disturbance_config_single_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disturbances": []}))
        rc, out = run(tmp_path, "stabilize", "--steps", "500", "--config", str(cfg))
        assert rc == 0
        assert sorted(os.listdir(out)) == ["summary.json", "traj_nominal.csv"]
        summary = json.loads((out / "summary.json").read_text())
        nominal = summary["runs"][0]
        assert abs(nominal["energy_quadrature"] - summary["E_N"]) / summary["E_N"] < 1e-5

    def test_cells_key_sets_piecewise_cells(self, tmp_path):
        spec = {"disturbances": [{"name": "p", "kind": "piecewise_uniform"}]}
        texts = []
        for doc in ({**spec, "cells": 10}, spec):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            rc, out = run(tmp_path, "stabilize", "--steps", "1000", "--config", str(cfg))
            assert rc == 0
            texts.append((out / "traj_p.csv").read_text())
        assert texts[0] != texts[1]

    def test_custom_disturbance_names(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disturbances": [
            {"name": "bias", "kind": "constant_sign", "sign_vector": [1, 0, -1]}]}))
        rc, out = run(tmp_path, "stabilize", "--steps", "500", "--config", str(cfg))
        assert rc == 0
        assert (out / "traj_bias.csv").exists()

    def test_constant_spec_amplitude_sets_worst_sign(self, tmp_path, jet, jet_x0):
        # the worst pattern depends on the amplitude: at t_f = 0.5 it is
        # (1, -1, 1) at w_bar = 1 but (-1, -1, 1) at w_bar = 100
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wbar": 1.0, "tf": 0.5, "disturbances": [
            {"name": "loud", "kind": "constant_sign", "wbar": 100.0}]}))
        rc, out = run(tmp_path, "stabilize", "--steps", "200", "--config", str(cfg))
        assert rc == 0
        loud = json.loads((out / "summary.json").read_text())["runs"][1]
        task = StabilizationTask(x0=jet_x0, t_f=0.5, w_bar=1.0)
        bundle = build_bundle(jet, 0.5)
        worst = max(disturbed_signal_energy(
            task, bundle,
            make_disturbance("constant_sign", 100.0, 3, sign_vector=np.array(s)))
            for s in product((1.0, -1.0), repeat=3))
        assert loud["energy_closed_form"] == worst

    def test_sinusoid_spec_amplitudes_reach_run(self, tmp_path, jet, jet_x0):
        amplitudes = [0.5, 0.25, 1.0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tf": 0.5, "disturbances": [
            {"name": "s", "kind": "sinusoid", "amplitudes": amplitudes}]}))
        rc, out = run(tmp_path, "stabilize", "--steps", "200", "--config", str(cfg))
        assert rc == 0
        got = json.loads((out / "summary.json").read_text())["runs"][1]
        task = StabilizationTask(x0=jet_x0, t_f=0.5, w_bar=1.0)
        bundle = build_bundle(jet, 0.5)
        spec_energy, default_energy = (disturbed_signal_energy(
            task, bundle, make_disturbance("sinusoid", 1.0, 3, amplitudes=a))
            for a in (np.array(amplitudes), None))
        assert got["energy_closed_form"] == spec_energy != default_energy

    def test_csv_header(self, tmp_path):
        rc, out = run(tmp_path, "stabilize", "--steps", "500")
        header = (out / "traj_nominal.csv").read_text().split("\n", 1)[0]
        assert header == "t,x1,x2,x3,u1,u2,u3,u4,xnorm,energy"

    @pytest.mark.parametrize("disturbances", [
        [{"name": "a", "kind": "sinusoid"}, {"name": "b", "kind": "bogus"}],
        [{"name": "a", "kind": "sinusoid"}, {"name": "a", "kind": "constant_sign"}],
        [{"kind": "sinusoid"}, {"kind": "sinusoid"}],
        [{"name": "nominal", "kind": "sinusoid"}],
        [{"name": "s", "kind": "sinusoid", "phases": [float("nan"), 0, 0]}],
        [{"name": "s", "kind": "sinusoid", "frequencies": [float("inf"), 27, 35]}],
        [{"name": "s", "kind": "sinusoid", "amplitudes": [float("nan"), 1, 1]}],
        [{"kind": "constant_sign", "amplitudes": [9, 9, 9]}],
        [{"kind": "sinusoid", "cells": 4.7}],
        [{"kind": "sinusoid", "seed": 1}],
        [{"kind": "zero", "sign_vector": [1, 1, 1]}],
        [{"kind": "piecewise_uniform", "horizon": 5.0}],
    ], ids=["bad-kind", "repeated-name", "repeated-default-name", "reserved-name",
            "nan-phase", "inf-frequency", "nan-amplitude", "constant-amplitudes",
            "sinusoid-cells", "sinusoid-seed", "zero-sign-vector", "piecewise-horizon"])
    def test_bad_run_list_writes_nothing(self, tmp_path, disturbances):
        # every run is resolved before the first file is written, a name
        # may own only one traj_<name>.csv, and a spec takes only its
        # kind's parameters
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disturbances": disturbances}))
        (tmp_path / "out").mkdir()
        rc, out = run(tmp_path, "stabilize", "--steps", "200", "--config", str(cfg))
        assert rc == EXIT_CONFIG
        assert os.listdir(out) == []

    def test_failing_later_run_writes_nothing(self, tmp_path, monkeypatch):
        # every run is computed before the first file is written
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericalError("third run fails")
            return simulate(*args)

        simulate = cli.simulate_closed_loop
        monkeypatch.setattr(cli, "simulate_closed_loop", third_fails)
        (tmp_path / "out").mkdir()
        rc, out = run(tmp_path, "stabilize", "--steps", "200")
        assert rc == EXIT_NUMERIC
        assert len(calls) == 3
        assert os.listdir(out) == []


class TestTrajectoryWriters:
    @pytest.mark.parametrize("disturbances", [None, []], ids=["four-files", "one-file"])
    def test_bytes_do_not_depend_on_process_count(self, tmp_path, monkeypatch,
                                                  disturbances):
        # every trajectory is formatted once, in the calling process, and
        # its file holds those bytes
        args = ["stabilize", "--steps", "200"]
        if disturbances is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"disturbances": disturbances}))
            args += ["--config", str(cfg)]
        files = 4 if disturbances is None else 1
        formatted, to_csv = [], cli.trajectory_to_csv
        monkeypatch.setattr(cli, "trajectory_to_csv",
                            lambda traj: formatted.append((os.getpid(), to_csv(traj)))
                            or formatted[-1][1])
        rc, out = run(tmp_path, *args)
        assert rc == 0
        assert [pid for pid, _ in formatted] == [os.getpid()] * files
        names = sorted(os.listdir(out))
        assert len(names) == files + 1
        assert not any(".tmp" in name for name in names)
        texts = {(out / name).read_text() for name in names if name.startswith("traj_")}
        assert texts == {text for _, text in formatted}

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("failing", [(0,), (3,), (1, 2)],
                             ids=["parent-slice", "child-slice", "both-slices"])
    def test_failing_file_commits_none(self, tmp_path, monkeypatch, capsys, cpus, failing):
        # file 0, file 3, or files 1 and 2 fail. Whatever the CPU count,
        # no process is forked, the first failing file's error is raised
        # and every temporary is removed
        trajs, forks, fork = [], [], os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or fork())

        def record(*args):
            trajs.append(simulate(*args))
            return trajs[-1]

        def fail_some(traj):
            index = [t is traj for t in trajs].index(True)
            if index in failing:
                raise NumericalError(f"forced failure of file {index}")
            return to_csv(traj)

        simulate, to_csv = cli.simulate_closed_loop, cli.trajectory_to_csv
        monkeypatch.setattr(cli, "simulate_closed_loop", record)
        monkeypatch.setattr(cli, "trajectory_to_csv", fail_some)
        (tmp_path / "out").mkdir()
        rc, out = run(tmp_path, "stabilize", "--steps", "200")
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == f"error: forced failure of file {failing[0]}\n"
        assert os.listdir(out) == []
        assert forks == []

    def test_failed_atomic_write_leaves_no_temporary(self, tmp_path):
        # one text that cannot be encoded fails the whole commit
        with pytest.raises(UnicodeEncodeError):
            cli._commit(str(tmp_path), [("a.txt", "a"), ("f.txt", "a\ud800")])
        assert os.listdir(tmp_path) == []


class TestBoundAccuracy:
    def test_csv_schema_and_trends(self, tmp_path):
        rc, out = run(tmp_path, "bound-accuracy", "--tf-grid", "0.1,1,5")
        assert rc == 0
        lines = (out / "bound_accuracy.csv").read_text().strip().split("\n")
        assert lines[0] == "t_f,ratio_constant,ratio_sinusoid,ratio_piecewise"
        rows = [dict(zip(lines[0].split(","), map(float, ln.split(","))))
                for ln in lines[1:]]
        assert [r["t_f"] for r in rows] == [0.1, 1.0, 5.0]
        assert rows[0]["ratio_constant"] > rows[-1]["ratio_constant"]


class TestMetricsSweep:
    def test_csv_schema(self, tmp_path, fast_args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 20}))
        rc, out = run(tmp_path, "metrics-sweep", *fast_args, "--config", str(cfg))
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == ("R,t_f,H,r_A_bound,r_M_bound,E_N,E_D_bound,"
                            "diff_min,diff_max,ratio_min,ratio_max")
        assert len(lines) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["containment"] == {"diff_le_r_A": True, "ratio_ge_r_M": True}

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tf_grid": [9.0], "R_grid": [1.0], "samples": 5}))
        rc, out = run(tmp_path, "metrics-sweep", "--tf-grid", "0.5", "--R-grid", "10",
                      "--config", str(cfg))
        assert rc == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[1].startswith("10.0,0.5,")

    def test_byte_identical_across_runs_and_workers(self, tmp_path, fast_args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 20}))
        rc1 = entry(["metrics-sweep", *fast_args, "--config", str(cfg),
                     "--out", str(tmp_path / "a")])
        rc2 = entry(["metrics-sweep", *fast_args, "--config", str(cfg),
                     "--out", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert csv_a == csv_b


class TestEnergyAndModel:
    def test_energy_report(self, tmp_path, capsys):
        rc, out = run(tmp_path, "energy", "--tf", "1")
        assert rc == 0
        doc = json.loads((out / "energy.json").read_text())
        assert set(doc) >= {"E_N", "E_D_bound", "q_bar", "cross_term", "c_term",
                            "witness_q"}
        assert doc["E_D_bound"] >= doc["E_N"]
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == doc

    def test_energy_on_an_n24_model(self, tmp_path, capsys):
        # a controllable pair whose Kalman matrix reads as rank deficient
        # loads from its file and gets its report
        save_model(metzler_system(0, n=24, p=12), tmp_path / "m24.json")
        rc, out = run(tmp_path, "energy", "--model", str(tmp_path / "m24.json"),
                      "--x0", ",".join(["1"] * 24), "--tf", "1")
        assert rc == 0
        doc = json.loads((out / "energy.json").read_text())
        assert doc["E_D_bound"] >= doc["E_N"] > 0.0

    def test_model_prints_normalized_json(self, capsys):
        rc = entry(["model", "--model", "admire"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3 and doc["p"] == 4
        assert doc["A"][0][0] == -0.9967

    def test_model_roundtrip_through_file(self, tmp_path, capsys):
        rc = entry(["model", "--model", "admire"])
        doc = json.loads(capsys.readouterr().out)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        rc = entry(["model", "--model", str(path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == doc

    def test_energy_json_is_the_report(self, tmp_path, capsys):
        # the report's fields, each once, plus the run's command and config
        rc, out = run(tmp_path, "energy", "--tf", "1")
        assert rc == 0
        doc = json.loads((out / "energy.json").read_text())
        fields = {f.name for f in dataclasses.fields(EnergyReport)}
        assert set(doc) == fields | {"command", "config"}
        assert doc["command"] == "energy"

    @pytest.mark.parametrize("name", ["admire", "metzler"])
    def test_model_prints_the_saved_file(self, tmp_path, capsys, name):
        # stdout is byte for byte the file save_model writes, for the
        # builtin model and for an n = 12 model loaded from its file
        if name == "admire":
            model, sys_ = "admire", admire()
        else:
            m = metzler_system(0)
            model = tmp_path / "in.json"
            model.write_text(json.dumps({"name": m.name, "n": m.n, "p": m.p,
                                         "A": m.A.tolist(), "B": m.B.tolist()}))
            sys_ = load_model(model)
        assert entry(["model", "--model", str(model)]) == 0
        save_model(sys_, tmp_path / "saved.json")
        assert capsys.readouterr().out.encode() == (tmp_path / "saved.json").read_bytes()


FOREIGN = [(command, key) for command, keys in _COMMAND_OPTIONS.items()
           for key in _KEYS if key not in keys]


class TestOptions:
    def test_default_runs_are_each_configs_own(self):
        # an in-place edit of one run's disturbances, down to a run dict,
        # leaves the declared default and the next run's value as they were
        default = json.loads(json.dumps(_KEYS["disturbances"][2]["stabilize"]))
        args = cli.build_parser().parse_args(["stabilize"])
        first = cli.RunConfig(args)
        assert first.disturbances == default
        first.disturbances[0]["kind"] = "zero"
        first.disturbances.append({"name": "extra", "kind": "zero"})
        assert _KEYS["disturbances"][2]["stabilize"] == default
        assert cli.RunConfig(args).disturbances == default

    @pytest.mark.parametrize("command,key", FOREIGN,
                             ids=[f"{c}-{k}" for c, k in FOREIGN])
    def test_unread_key_is_rejected(self, tmp_path, monkeypatch, command, key):
        # a command takes neither the flag nor the config key of a value
        # it does not read, even a valid one, and writes nothing
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)  # the default --out; model writes nowhere
        with pytest.raises(SystemExit) as exc:
            entry([command, "--" + key.replace("_", "-"), "1"])
        assert exc.value.code == EXIT_CONFIG
        cfg = tmp_path / "cfg.json"
        # a valid value: the last default that is data, not a function of
        # the values resolved before it (a list default is both)
        value = [v for v in _KEYS[key][2].values() if isinstance(v, list) or not callable(v)][-1]
        cfg.write_text(json.dumps({key: value}))
        assert entry([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert os.listdir(out) == []

    @pytest.mark.parametrize("argv,doc,read", [
        (["stabilize", "--steps", "500"], {"disturbances": []},
         {"steps": 500, "cells": 500, "disturbances": []}),
        (["bound-accuracy", "--tf-grid", "0.5"], {"cells": 10},
         {"tf_grid": [0.5], "cells": 10}),
        (["metrics-sweep", "--R-grid", "10", "--tf-grid", "0.5"], {"samples": 5},
         {"R_grid": [10.0], "tf_grid": [0.5], "samples": 5, "cells": 100}),
        (["energy", "--tf", "1"], {"x0": [1, 2, 3]}, {"tf": 1.0, "x0": [1.0, 2.0, 3.0]}),
        (["stabilize", "--steps", "200.0", "--seed", "1e3"], {"disturbances": []},
         {"steps": 200, "seed": 1000}),
    ], ids=["stabilize", "bound-accuracy", "metrics-sweep", "energy", "whole-float-flags"])
    def test_config_echo_is_the_values_read(self, tmp_path, argv, doc, read):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, out = run(tmp_path, *argv, "--config", str(cfg))
        assert rc == 0
        name = "energy.json" if argv[0] == "energy" else "summary.json"
        summary = json.loads((out / name).read_text())
        assert set(summary["config"]) == set(_COMMAND_OPTIONS[argv[0]]) - {"out"}
        assert {k: summary["config"][k] for k in read} == read
        assert summary["config"]["model"] == "admire"

    @pytest.mark.parametrize("key,text,value", [
        ("steps", "5000.0", 5000.0), ("seed", "1e3", 1e3), ("samples", "5.0", 5.0),
        ("cells", "1e1", 10.0), ("seed", "18446744073709551615", 2**64 - 1)])
    def test_whole_flag_text_resolves_as_its_config_value(self, key, text, value):
        # "5.0" names 5 as a flag as it does as a JSON value; integer text
        # past a double's 53 bits stays exact
        resolve = _KEYS[key][0]
        got = resolve(text)
        assert type(got) is int and got == resolve(value) == int(value)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        rc, _ = run(tmp_path, "energy", "--tf", "1")
        assert rc == 0

    def test_invalid_tf_is_config(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "stabilize", "--tf", "0")
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_zero_x0_is_config(self, tmp_path):
        rc, _ = run(tmp_path, "energy", "--x0", "0,0,0", "--tf", "1")
        assert rc == EXIT_CONFIG

    def test_unknown_config_key_is_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workerz": 2}))
        rc, _ = run(tmp_path, "energy", "--config", str(cfg))
        assert rc == EXIT_CONFIG

    def test_bad_config_json_is_parse(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        rc, _ = run(tmp_path, "energy", "--config", str(cfg))
        assert rc == EXIT_PARSE

    def test_bad_model_file_is_parse(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"name": "x"}))
        rc = entry(["model", "--model", str(bad)])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("literal", ["NaN", "1e400", "1" + "0" * 400],
                             ids=["NaN", "1e400", "400-digit-int"])
    def test_non_finite_model_entry_is_parse(self, tmp_path, capsys, literal):
        # the model file is malformed: exit 3 naming the entry, nothing written
        model = tmp_path / "model.json"
        model.write_text('{"name": "dblint", "n": 2, "p": 1, "A": [[0.0, %s], [0.0, 0.0]], '
                         '"B": [[0.0], [1.0]]}' % literal)
        assert entry(["model", "--model", str(model)]) == EXIT_PARSE
        rc, out = run(tmp_path, "energy", "--model", str(model), "--x0", "1,1")
        assert rc == EXIT_PARSE and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("entry (0, 1) of 'A' is not a finite float") == 2

    def test_singular_gramian_is_numeric(self, tmp_path):
        model = tmp_path / "dblint.json"
        model.write_text(json.dumps({"name": "dblint", "n": 2, "p": 1,
                                     "A": [[0.0, 1.0], [0.0, 0.0]],
                                     "B": [[0.0], [1.0]]}))
        rc, _ = run(tmp_path, "energy", "--model", str(model),
                    "--x0", "1,1", "--tf", "1e-8")
        assert rc == EXIT_NUMERIC

    @pytest.mark.parametrize("tf", ["800", "1e300", "5e306", "1e307"])
    def test_overflowing_gramian_is_numeric(self, tmp_path, tf):
        # no RuntimeWarning comes first (filterwarnings = error here)
        rc, out = run(tmp_path, "energy", "--tf", tf)
        assert rc == EXIT_NUMERIC
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        (["energy", "--x0", HUGE_X0], None),
        (["stabilize", "--x0", HUGE_X0, "--steps", "200"], None),
        (["bound-accuracy", "--x0", HUGE_X0, "--tf-grid", "1"], None),
        (["metrics-sweep", "--R-grid", "1e200", "--tf-grid", "1"], None),
        (["stabilize", "--steps", "200"],
         {"disturbances": [{"name": "big", "kind": "constant_sign",
                            "sign_vector": [1, 1, 1], "wbar": 1e300}]}),
    ], ids=["energy", "stabilize", "bound-accuracy", "metrics-sweep-R-grid",
            "stabilize-run-wbar"])
    def test_overflowing_energy_is_numeric(self, tmp_path, argv, config):
        # finite input whose energies overflow: no Infinity or nan reaches
        # a file, because the run stops before its first write, and the
        # error alone reports it (any RuntimeWarning is an error here)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        rc, out = run(tmp_path, *argv)
        assert rc == EXIT_NUMERIC
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["energy", "--x0", HUGE_X0], None, "disturbed energy bound E_D_bound = inf"),
        (["bound-accuracy", "--x0", HUGE_X0, "--tf-grid", "1"], None,
         "disturbed energy bound E_D_bound = inf"),
        (["metrics-sweep", "--R-grid", "1e200", "--tf-grid", "1"], None,
         "metric bounds at R = 1e+200, t_f = 1 are not finite"),
        (["stabilize", "--steps", "200"],
         {"disturbances": [{"name": "big", "kind": "constant_sign",
                            "sign_vector": [1, 1, 1], "wbar": 1e300}]},
         "closed-loop trajectory overflows"),
        (["stabilize", "--steps", "200"],
         {"disturbances": [{"name": "big", "kind": "constant_sign", "wbar": 1e300}]},
         "worst constant-sign disturbance energy at t_f = 5 is not finite"),
        (["energy", "--tf", "800"], None, "Gramian exponential overflows at horizon t_f = 800"),
        (["bound-accuracy", "--tf-grid", "800"], None,
         "Gramian exponential overflows at horizon t_f = 800"),
    ], ids=["energy", "bound-accuracy", "metrics-sweep-R-grid",
            "stabilize-run-wbar", "stabilize-run-wbar-searched", "energy-tf",
            "bound-accuracy-tf-grid"])
    def test_overflow_prints_only_the_error(self, tmp_path, argv, config, message):
        # a fresh interpreter with the default warning filters: stderr is
        # the error line alone, with no RuntimeWarning before it
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
        proc = subprocess.run([sys.executable, "-m", "distcost", *argv,
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr.startswith(f"error: {message}")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_subnormal_gramian_prints_only_the_error(self, tmp_path):
        # W_B ~ 1e-310: its eigenvalue ratio is fine, but the reciprocal of
        # its smallest eigenvalue overflows, so the Gramian stage rejects it
        # (in a fresh interpreter with the default warning filters)
        model = tmp_path / "subnormal.json"
        model.write_text(json.dumps({"name": "subnormal", "n": 2, "p": 1,
                                     "A": [[-1.0, 1.0], [0.0, -2.0]],
                                     "B": [[0.0], [1e-155]]}))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
        proc = subprocess.run([sys.executable, "-m", "distcost", "energy", "--model",
                               str(model), "--x0", "1,1", "--tf", "1",
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr.startswith("error: Gramian is numerically singular at "
                                      "horizon t_f = 1 (smallest eigenvalue ")
        assert proc.stderr.endswith(" has no finite reciprocal)\n")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out" / "energy.json").exists()

    def test_lost_energy_form_prints_only_the_error(self, tmp_path):
        # W_B is well conditioned, but e^{A t_f} ~ e^-500 makes the smallest
        # eigenvalue l of e^{A^T t_f} W_B^{-1} e^{A t_f} underflow to 0, so
        # r_M_bound has no positive l (in a fresh interpreter with the
        # default warning filters)
        model = tmp_path / "fast.json"
        model.write_text(json.dumps({"name": "fast", "n": 2, "p": 2,
                                     "A": [[-100.0, 0.0], [0.0, -100.0]],
                                     "B": [[1.0, 0.0], [0.0, 1.0]]}))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
        proc = subprocess.run([sys.executable, "-m", "distcost", "metrics-sweep",
                               "--model", str(model), "--x0", "1,1", "--tf-grid", "5",
                               "--R-grid", "10", "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr == ("error: energy quadratic form lost positive definiteness "
                               "at t_f = 5 (min eigenvalue 0.000e+00)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,blocked", [
        (["energy"], "energy.json"),
        (["bound-accuracy", "--tf-grid", "0.5,1"], "summary.json"),
        (["metrics-sweep", "--tf-grid", "0.5", "--R-grid", "10"], "summary.json"),
        (["stabilize", "--steps", "200"], "summary.json"),
    ], ids=["energy", "bound-accuracy", "metrics-sweep", "stabilize"])
    def test_unwritable_output_file_is_config(self, tmp_path, capsys, argv, blocked):
        # a directory where the last output file belongs: the files
        # renamed into place before it are removed again, no temporary
        # is left, and the error line is all that is printed
        (tmp_path / "out" / blocked).mkdir(parents=True)
        rc, out = run(tmp_path, *argv)
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output file {out / blocked}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert os.listdir(out) == [blocked]
        assert os.listdir(out / blocked) == []

    @pytest.mark.parametrize("first,second", [
        (["bound-accuracy", "--tf-grid", "0.5"], ["bound-accuracy", "--tf-grid", "1"]),
        (["stabilize", "--steps", "100"], ["stabilize", "--steps", "200"]),
    ], ids=["bound-accuracy", "stabilize"])
    def test_failed_commit_keeps_the_earlier_files(self, tmp_path, capsys, first, second):
        # a later run whose last file cannot be written leaves the earlier
        # run's files with their bytes, and a run that succeeds replaces
        # them with nothing left aside
        rc, out = run(tmp_path, *first)
        assert rc == 0
        (out / "summary.json").unlink()
        (out / "summary.json").mkdir()
        earlier = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert earlier
        rc, _ = run(tmp_path, *second)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: cannot write output file {out / 'summary.json'}: ")
        assert sorted(os.listdir(out)) == sorted([*earlier, "summary.json"])
        assert {name: (out / name).read_bytes() for name in earlier} == earlier
        (out / "summary.json").rmdir()
        rc, _ = run(tmp_path, *second)
        assert rc == 0
        assert sorted(os.listdir(out)) == sorted([*earlier, "summary.json"])
        assert all((out / name).read_bytes() != data for name, data in earlier.items())

    @pytest.mark.parametrize("x0", [HUGE_X0, "1e-200,1e-200,1e-200"],
                             ids=["huge", "tiny"])
    def test_sweep_direction_of_extreme_x0(self, tmp_path, x0):
        # metrics-sweep reads only the direction of x0, so one whose
        # squares overflow or underflow names the same sweep as (1, 1, 1)
        args = ["metrics-sweep", "--tf-grid", "1", "--R-grid", "10"]
        rc_ref, ref = run(tmp_path / "ref", *args, "--x0", "1,1,1")
        rc, out = run(tmp_path, *args, "--x0", x0)
        assert rc == rc_ref == 0
        assert (out / "metrics.csv").read_bytes() == (ref / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("command,doc", [
        ("metrics-sweep", {"samples": "abc"}),
        ("energy", {"tf": "x"}),
        ("energy", {"x0": [1, "a", 2]}),
        ("energy", {"model": 5}),
        ("stabilize", {"disturbances": {"name": "a", "kind": "sinusoid"}}),
        ("stabilize", {"disturbances": [{"kind": "piecewise_uniform", "cells": "x"}]}),
        ("metrics-sweep", {"R_grid": []}),
        ("bound-accuracy", {"tf_grid": []}),
        ("metrics-sweep", {"workers": 2}),
        ("bound-accuracy", {"seed": float("inf")}),
        ("metrics-sweep", {"samples": -float("inf")}),
        ("bound-accuracy", {"cells": float("inf")}),
        ("stabilize", {"disturbances": [{"kind": "piecewise_uniform",
                                         "seed": float("inf")}]}),
        ("bound-accuracy", {"tf_grid": [1.0, -1.0]}),
        ("metrics-sweep", {"R_grid": [10.0, float("nan")]}),
        ("metrics-sweep", {"seed": 1.7}),
        ("stabilize", {"disturbances": [{"kind": "piecewise_uniform", "seed": 1.5}]}),
        ("metrics-sweep", {"samples": 5.9}),
        ("bound-accuracy", {"cells": 4.7}),
        ("stabilize", {"disturbances": [{"kind": "piecewise_uniform", "cells": 4.7}]}),
        # JSON true and false are no numbers, though float(True) is 1.0
        ("energy", {"tf": True}),
        ("energy", {"wbar": False}),
        ("energy", {"x0": [True, 0, 0]}),
        ("metrics-sweep", {"R_grid": [10.0, True]}),
        ("bound-accuracy", {"tf_grid": [True]}),
        ("bound-accuracy", {"seed": True}),
        ("stabilize", {"steps": True}),
        ("metrics-sweep", {"samples": True}),
        ("bound-accuracy", {"cells": True}),
        ("stabilize", {"disturbances": [{"kind": "sinusoid", "wbar": True}]}),
    ], ids=["samples-text", "tf-text", "x0-text-entry", "model-number",
            "disturbances-object", "cells-text", "empty-R-grid", "empty-tf-grid",
            "workers-key", "infinite-seed", "infinite-samples", "infinite-cells",
            "infinite-disturbance-seed", "negative-tf-grid", "nan-R-grid", "fractional-seed",
            "fractional-disturbance-seed", "fractional-samples", "fractional-cells",
            "fractional-disturbance-cells", "boolean-tf", "boolean-wbar", "boolean-x0-entry",
            "boolean-R-grid-entry", "boolean-tf-grid-entry", "boolean-seed", "boolean-steps",
            "boolean-samples", "boolean-cells", "boolean-disturbance-wbar"])
    def test_malformed_config_value_is_config(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # a --steps flag keeps stabilize short, unless steps is the bad value
        steps = ["--steps", "200"] if command == "stabilize" and "steps" not in doc else []
        rc, out = run(tmp_path, command, *steps, "--config", str(cfg))
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("under_file", [False, True], ids=["empty", "under-a-file"])
    def test_bad_output_directory_is_config(self, tmp_path, capsys, under_file):
        # os.makedirs fails on "" and on a path through a regular file
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "sub") if under_file else ""
        rc = entry(["energy", "--tf", "1", "--out", out])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert "Traceback" not in err

    def test_uncontrollable_model_is_config(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "u", "n": 2, "p": 1, "A": [[1.0, 0.0], [0.0, 2.0]],
                                    "B": [[0.0], [1.0]]}))
        rc, out = run(tmp_path, "energy", "--model", str(path), "--x0", "1,1")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: (A, B) is not controllable: "
                                           "controllability matrix rank 1 < 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,argv,doc,key", [
        ("stabilize", ["--steps", str(10**30)], {}, "steps"),
        ("metrics-sweep", [], {"samples": 10**23}, "samples"),
        ("metrics-sweep", [], {"cells": 10**23}, "cells"),
        ("bound-accuracy", [], {"cells": 10**23}, "cells"),
        ("stabilize", ["--steps", "200"], {"cells": 10**23}, "cells"),
    ], ids=["steps", "samples", "cells", "bound-accuracy-cells", "stabilize-cells"])
    def test_count_past_index_range_is_config(self, tmp_path, capsys, command, argv, doc,
                                              key):
        # a count numpy cannot index exits 2 naming its key, with no
        # traceback and no file written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc, out = run(tmp_path, command, *argv, "--config", str(cfg))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be at most" in err
        assert not out.exists() or not os.listdir(out)

    def test_steps_past_array_size_is_config(self, tmp_path, capsys):
        # in numpy's index range, but the (2*steps + 1, n) control half
        # grid would hold more bytes than any array can
        rc, out = run(tmp_path, "stabilize", "--steps", str(10**18))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: steps = 1000000000000000000 needs a 2000000000000000001 x 3 "
            "half grid, past numpy's array size limit\n")
        assert not out.exists()

    def test_out_of_memory_is_config(self, tmp_path):
        # a 447 GiB half grid in a child limited to 2 GiB of address space:
        # numpy's MemoryError is one error line, and nothing is written
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
        proc = subprocess.run([sys.executable, "-m", "distcost", "stabilize",
                               "--steps", str(10**10), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: out of memory: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_infinite_steps_is_config(self, tmp_path):
        # steps comes from the config only when no --steps flag is given
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 1e400}))
        rc, out = run(tmp_path, "stabilize", "--config", str(cfg))
        assert rc == EXIT_CONFIG
        assert not out.exists() or not os.listdir(out)

    def test_fractional_steps_is_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 200.5}))
        rc, out = run(tmp_path, "stabilize", "--config", str(cfg))
        assert rc == EXIT_CONFIG
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("flag,text", [("--steps", "5.9"), ("--seed", "1.5e0"),
                                           ("--steps", "nan"), ("--seed", "1e400")])
    def test_fractional_flag_text_is_config(self, tmp_path, capsys, flag, text):
        rc, out = run(tmp_path, "stabilize", flag, text)
        assert rc == EXIT_CONFIG
        assert "must be a whole number" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    def test_workers_flag_is_usage_error(self, tmp_path):
        # argparse rejects the unknown flag with its usage-error status 2
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "metrics-sweep", "--workers", "4")
        assert exc.value.code == EXIT_CONFIG

    def test_bad_settings_value_is_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"settings": {"no_such_tol": 1.0}}))
        rc, _ = run(tmp_path, "energy", "--config", str(cfg))
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("key,value", [("response_rel_tol", 1e-9),
                                           ("response_max_doublings", 24)])
    def test_removed_response_settings_are_config(self, tmp_path, key, value):
        # responses are closed forms now; the old quadrature knobs must
        # fail loudly instead of being silently ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"settings": {key: value}}))
        rc, out = run(tmp_path, "stabilize", "--steps", "500", "--config", str(cfg))
        assert rc == EXIT_CONFIG
        assert not out.exists() or not os.listdir(out)
