import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mebd
from mebd import cli
from mebd.cli import main, parse_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePartition:
    def test_valid(self):
        p = parse_partition("1,2|3,4", 4)
        assert p.part_a.sites() == (1, 2)
        assert p.part_b.sites() == (3, 4)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_partition("1,2,3,4", 4)
        with pytest.raises(ValueError):
            parse_partition("1,2|2,3,4", 4)
        with pytest.raises(ValueError):
            parse_partition("1,x|2", 2)
        with pytest.raises(ValueError):
            parse_partition("1,1|2,3", 3)


class TestSweepCommand:
    def test_csv_header_and_rows(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--n", "3", "--init", "010",
                             "--tau-max", "1.0", "--tau-step", "0.1",
                             "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,mebd,e1_fixed,e_tilde"
        assert len(lines) == 12  # header + 11 grid points
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["n_sites"] == 3
        assert manifest["profile_used"] == "all-pairs"

    @pytest.mark.parametrize("extra, label", [((), "1|2.3"),
                                              (("--e1-partition", "1,2|3"), "1.2|3")])
    def test_manifest_records_e1_partition(self, capsys, tmp_path, extra, label):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--n", "3", "--init", "010", "--tau-max", "0.5",
                             "--tau-step", "0.25", "--out", str(out), *extra)
        assert code == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["e1_partition"] == label

    def test_ground_state_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--init", "00",
                               "--tau-max", "1.0", "--tau-step", "0.25")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            vals = [float(x) for x in line.split(",")[1:]]
            assert all(v < 1e-10 for v in vals)

    def test_per_partition_min_equals_mebd(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--init", "1001",
                               "--tau-max", "1.0", "--tau-step", "0.25",
                               "--quantities", "mebd,per-partition")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["tau", "mebd"]
        assert len(header) == 2 + 7  # 7 partition columns for N=4
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert min(vals[2:]) == vals[1]

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "3")
        assert code == 2
        assert err

    @pytest.mark.parametrize("argv, missing", [
        (("sweep", "--n", "3"), {"--init"}),
        (("first-max", "--init", "010"), {"--n"}),
        (("negativity", "--n", "3", "--init", "010", "--tau", "1"), {"--partition"}),
        (("negativity",), {"--n", "--init", "--tau", "--partition"}),
    ], ids=["sweep-init", "first-max-n", "negativity-partition", "negativity-all"])
    def test_missing_flags_named(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert not out
        for flag in ("--n", "--init", "--tau", "--partition"):
            assert (flag in re.findall(r"--[\w-]+", err)) == (flag in missing)

    def test_init_length_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--n", "3", "--init", "0100")
        assert code == 2

    @pytest.mark.parametrize("command", ["sweep", "negativity", "first-max"])
    def test_init_not_binary(self, capsys, command):
        extra = ("--tau", "1", "--partition", "1|2,3") if command == "negativity" else ()
        code, out, err = run_cli(capsys, command, "--n", "3", "--init", "0x0", *extra)
        assert code == 2
        assert "0/1 string" in err
        assert not out

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "init": "10", "tau-max": 0.5,
                                   "tau-step": 0.25}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.startswith("tau,")

    @pytest.mark.parametrize("key", ["typo_key", "threads"])
    def test_config_unknown_key(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "init": "10", key: 4}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert key in err
        assert not out

    @pytest.mark.parametrize("key, value", [
        ("tau_step", [1]), ("tau-max", True), ("n", "x"), ("n", 2.5), ("profile", "bogus"),
        ("quantities", None), ("json", "no"), ("json", 1)])
    def test_config_value_of_wrong_type(self, capsys, tmp_path, key, value):
        # A store-true flag takes only a JSON bool; any other flag a string or
        # number that its own type accepts, as on the command line.  first-max
        # takes every flag named here, --json among them.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "init": "10", key: value}))
        code, out, err = run_cli(capsys, "first-max", "--config", str(cfg))
        assert code == 2
        assert repr(key) in err
        assert not out

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("dest", cli.FLAGS)
    def test_config_keys_follow_the_table(self, capsys, tmp_path, command, dest):
        # A config key is accepted iff its flag is in the subcommand's row of
        # COMMANDS; --config itself is never a key.
        spec = cli.FLAGS[dest]
        value = True if spec.get("action") == "store_true" else spec.get("choices", ["1"])[0]
        key = dest.replace("_", "-")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        argv = [command, "--config", str(cfg)]
        if dest in cli.COMMANDS[command].flags and dest != "config":
            args = cli._apply_config(cli._shared_parser().parse_args(argv), argv)
            expected = True if value is True else spec.get("type", str)(value)
            assert getattr(args, dest) == expected
        else:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert f"unknown config key {key!r}" in err
            assert not out

    def test_config_strings_read_as_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": "2", "init": "10", "tau-max": "0.5",
                                   "tau_step": 0.25, "profile": "nearest-neighbor"}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        flags = run_cli(capsys, "sweep", "--n", "2", "--init", "10", "--tau-max", "0.5",
                        "--tau-step", "0.25", "--profile", "nearest-neighbor")
        assert flags == (0, out, "")

    def test_defaults(self, capsys):
        # The grid, quantity and profile defaults live on the flags.
        default = run_cli(capsys, "sweep", "--n", "3", "--init", "010")
        explicit = run_cli(capsys, "sweep", "--n", "3", "--init", "010",
                           "--tau-min", "0", "--tau-max", "4", "--tau-step", "0.005",
                           "--quantities", "mebd,e1_fixed,e_tilde", "--profile", "all-pairs")
        assert default[0] == 0
        assert default == explicit

    @pytest.mark.parametrize("quantities", ["", ",", " , "])
    def test_empty_quantities(self, capsys, quantities):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--init", "010",
                                 "--quantities", quantities)
        assert code == 2
        assert "quantities" in err
        assert not out

    @pytest.mark.parametrize("step", ["1e-15", "5e-324"])
    def test_grid_too_large(self, capsys, step):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--init", "010",
                                 "--tau-step", step)
        assert code == 2
        assert "grid exceeds" in err
        assert not out

    @pytest.mark.parametrize("flag", ["--tau-min", "--tau-max", "--tau-step"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_grid(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "sweep", "--n", "3", "--init", "010",
                                 f"{flag}={value}")
        assert code == 2
        assert "finite" in err
        assert not out

    @pytest.mark.parametrize("command", ["sweep", "first-max", "negativity"])
    @pytest.mark.parametrize("n", [1, 13])
    def test_chain_length_out_of_range(self, capsys, command, n):
        extra = ("--tau", "1", "--partition", "1|") if command == "negativity" else ()
        code, out, err = run_cli(capsys, command, "--n", str(n), "--init", "1" * n, *extra)
        assert code == 2
        assert "n_sites must be 2..12" in err
        assert not out

    def test_config_defaults_do_not_leak(self, capsys, tmp_path):
        # The config's tau_step must not become the flag default of later calls
        # in the same process, which share one parser.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tau_step": 0.0025}))
        argv = ["sweep", "--n", "2", "--init", "10", "--tau-max", "0.01"]
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 1 + 5
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == \
            [repr(0.0), repr(0.005), repr(0.01)]

    def test_parser_built_once_per_process(self, capsys):
        cli._shared_parser.cache_clear()
        for tau in ("0.5", "1.0"):
            assert run_cli(capsys, "negativity", "--n", "2", "--init", "10",
                           "--tau", tau, "--partition", "1|2")[0] == 0
        info = cli._shared_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestNegativityCommand:
    def test_tau_zero_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "negativity", "--n", "4", "--init", "1001",
                               "--tau", "0", "--partition", "1,2|3,4")
        assert code == 0
        assert float(out.strip()) < 1e-10

    def test_two_spin_closed_form(self, capsys):
        tau = math.pi / 2
        code, out, _ = run_cli(capsys, "negativity", "--n", "2", "--init", "10",
                               "--tau", str(tau), "--partition", "1|2",
                               "--profile", "nearest-neighbor")
        assert code == 0
        assert abs(float(out.strip()) - abs(math.sin(tau))) < 1e-9

    def test_malformed_partition(self, capsys):
        for spec in ("1,2,3,4", "1,1|2,3,4"):
            code, _, err = run_cli(capsys, "negativity", "--n", "4", "--init", "1001",
                                   "--tau", "0", "--partition", spec)
            assert code == 2
            assert err

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tau(self, capsys, tau):
        code, out, err = run_cli(capsys, "negativity", "--n", "3", "--init", "010",
                                 f"--tau={tau}", "--partition", "1|2,3")
        assert code == 2
        assert "finite" in err
        assert not out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "negativity", "--n", "3", "--init", "010",
                               "--tau", "1.505", "--partition", "1|2,3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["double_negativity"] >= 0.943 - 0.01


class TestTable1Command:
    def test_single_row(self, capsys, tmp_path):
        out_path = tmp_path / "t1.json"
        code, out, _ = run_cli(capsys, "table1", "--n-list", "3", "--json",
                               "--out", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["tau_dev"] <= 0.01
        assert row["value_dev"] <= 0.01
        assert row["tau_below_pi"]
        manifest = json.loads((tmp_path / "t1.json.manifest.json").read_text())
        assert manifest["n_list"] == [3]
        assert manifest["profile"] == "all-pairs"
        assert (manifest["tau_start"], manifest["tau_end"], manifest["tau_step"]) \
            == (0.0, 3.0, 0.01)
        assert manifest["quantities"] == ["mebd"]

    def test_bad_n(self, capsys, tmp_path):
        # An empty list is not the default list, and a row is asked for once.
        cfg = tmp_path / "c.json"
        for n_list in ("5", "3,", "x", "", "3,3"):
            cfg.write_text(json.dumps({"n_list": n_list}))
            for argv in (["--n-list", n_list], ["--config", str(cfg)]):
                code, out, err = run_cli(capsys, "table1", *argv)
                assert code == 2
                assert "--n-list" in err
                assert not out


class TestFirstMaxCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "first-max", "--n", "3", "--init", "010",
                               "--tau-max", "3.0", "--tau-step", "0.01",
                               "--quantities", "mebd", "--quantity", "mebd",
                               "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["tau_star"] - 1.505) < 0.01
        assert abs(payload["value"] - 0.943) < 0.01
        assert payload["tau_below_pi"]

    def test_config_sets_json_and_flags_win(self, capsys, tmp_path):
        # "json": true in the file switches on the store-true flag; underscore
        # and dash spellings both work; --min-value on the command line
        # overrides the file's value, which would leave no maximum.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 3, "init": "010", "tau_max": 3.0,
                                   "tau-step": 0.01, "quantities": "mebd",
                                   "min_value": 2.0, "json": True}))
        code, out, _ = run_cli(capsys, "first-max", "--config", str(cfg),
                               "--min-value", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["tau_star"] - 1.505) < 0.01

    def test_nan_min_value(self, capsys):
        code, out, err = run_cli(capsys, "first-max", "--n", "4", "--init", "1001",
                                 "--min-value", "nan")
        assert code == 2
        assert "min_value must not be NaN" in err
        assert not out

    def test_no_maximum(self, capsys):
        code, _, err = run_cli(capsys, "first-max", "--n", "2", "--init", "00",
                               "--tau-max", "1.0", "--tau-step", "0.25",
                               "--quantities", "mebd", "--quantity", "mebd")
        assert code == 2
        assert err

    @pytest.mark.parametrize("quantity, quantities", [
        ("bogus", "mebd"), ("e_tilde", "mebd"), ("per-partition", "mebd,per-partition")])
    def test_unknown_quantity(self, capsys, quantity, quantities):
        code, out, err = run_cli(capsys, "first-max", "--n", "3", "--init", "010",
                                 "--tau-max", "3", "--quantities", quantities,
                                 "--quantity", quantity)
        assert code == 2
        assert quantity.replace("-", "_") in err
        assert not out


class TestBadUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ("table1", "--n", "5", "--n-list", "3"),
        ("negativity", "--n", "3", "--init", "010", "--tau", "1", "--partition", "1|2,3",
         "--out", "{out}"),
        ("first-max", "--n", "3", "--init", "010", "--tau-max", "3", "--quantities", "mebd",
         "--out", "{out}"),
        ("sweep", "--n", "2", "--init", "10", "--tau-max", "0.5", "--json", "--out", "{out}"),
    ], ids=["table1-n", "negativity-out", "first-max-out", "sweep-json"])
    def test_flag_the_subcommand_does_not_read(self, capsys, tmp_path, argv):
        # Each subcommand takes only the flags it reads; any other is refused.
        out = tmp_path / "result"
        code, stdout, err = run_cli(capsys, *(a.format(out=out) for a in argv))
        assert code == 2
        assert "unrecognized arguments" in err
        assert not stdout
        assert not list(tmp_path.iterdir())

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ("sweep", "--n", "2", "--init", "10", "--tau-max", "0.5"),
        ("table1", "--n-list", "3"),
    ], ids=["sweep", "table1"])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "result"
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("mebd: ")
        assert str(out) in err


class TestErrorContract:
    def test_linalg_error_is_numerical_failure(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        code, out, err = run_cli(capsys, "negativity", "--n", "3", "--init", "010",
                                 "--tau", "1", "--partition", "1|2,3")
        assert code == 3
        assert "numerical failure" in err
        assert not out

    def test_every_package_exception_is_a_value_error(self):
        # Bad input raises ValueError (exit 2); a class outside that contract
        # would reach the user as a traceback or a wrong exit code.
        defined = [cls for info in pkgutil.iter_modules(mebd.__path__)
                   for _, cls in inspect.getmembers(
                       importlib.import_module(f"mebd.{info.name}"), inspect.isclass)
                   if issubclass(cls, Exception) and cls.__module__.startswith("mebd")]
        assert defined
        assert all(issubclass(cls, ValueError) for cls in defined), defined


def test_readme_flag_table_matches_commands():
    # README's "common flags per subcommand" table must say what COMMANDS says.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("The common flags per subcommand:", 1)[1].strip().split("\n\n")[0]
    header, _, *rows = [[c.strip() for c in line.strip("|").split("|")]
                        for line in table.splitlines()]
    columns = [re.findall(r"--([\w-]+)", cell) for cell in header[1:]]
    common = {f for col in columns for f in col}
    readme_rows = {}
    for row in rows:
        marked = {f for col, cell in zip(columns, row[1:]) if cell == "yes" for f in col}
        readme_rows[row[0].strip("`")] = marked
    assert readme_rows == {name: {f.replace("_", "-") for f in cmd.flags} & common
                           for name, cmd in cli.COMMANDS.items()}


# An N=6 sweep with e1_fixed and an N=6 ladder both reach the mixed-state
# kernel through reduced states; the negativity query takes the pure one.
# Every number is printed with repr, so equal output means equal floats.
THREAD_WORKLOAD = """
import numpy as np
from mebd import cli, dynamics, entanglement
cli.main(["sweep", "--n", "6", "--init", "100110", "--tau-min", "0.5", "--tau-max", "2.0",
          "--tau-step", "0.5", "--quantities", "mebd,e1_fixed"])
psi = next(dynamics.evolve(6, "100110", [1.3]))
rho = np.outer(psi, psi.conj())
print([entanglement.lower_estimate_level(rho, k) for k in range(1, entanglement.max_level(6) + 1)])
cli.main(["negativity", "--n", "6", "--init", "100110", "--tau", "1.3",
          "--partition", "1,2|3,4,5,6"])
"""


def test_output_independent_of_blas_thread_count():
    src = str(Path(mebd.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", THREAD_WORKLOAD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    # Header and four sweep rows, the ladder, the query.
    assert len(outputs[0].splitlines()) == 7
    assert outputs[0] == outputs[1]
