import json
import math

import pytest

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

    def test_init_length_mismatch(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--n", "3", "--init", "0100")
        assert code == 2

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

    def test_bad_n(self, capsys):
        code, _, _ = run_cli(capsys, "table1", "--n-list", "5")
        assert code == 2


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
