import json
import math
from pathlib import Path

import pytest

from varsmile.cli import main

MODEL = Path(__file__).resolve().parent.parent / "models" / "tanh.json"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable1:
    def test_values_and_note(self, capsys):
        code, out, _ = run(["table1", "--model", str(MODEL)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,sigma_v_atm,s_v"
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:4]}
        assert abs(float(rows[-0.7][1]) - 1.1806) < 1e-4
        assert abs(float(rows[0.0][1]) - 1.1553) < 1e-4
        assert abs(float(rows[0.7][1]) - 1.1294) < 1e-4
        assert abs(float(rows[-0.7][2]) - 0.1257) < 1e-4
        assert abs(float(rows[0.7][2]) - 0.1053) < 1e-4
        assert abs(float(rows[0.0][2]) - 0.1159) < 1e-4
        assert "note:" in out

    def test_mc_column(self, capsys, tmp_path):
        out_file = tmp_path / "t1.csv"
        code, _, _ = run(
            ["table1", "--model", str(MODEL), "--mc", "--paths", "2000", "--steps", "50",
             "--seed", "4", "--T", "0.083333", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        text = out_file.read_text()
        assert text.splitlines()[0] == "rho,sigma_v_atm,s_v,fv_mc,fv_mc_se"
        val = float(text.splitlines()[1].split(",")[3])
        assert 0.05 < val < 0.2


class TestRate:
    def test_atm_zero(self, capsys):
        code, out, _ = run(["rate", "--model", str(MODEL), "--k", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0

    def test_x_flag(self, capsys):
        code, out, _ = run(["rate", "--model", str(MODEL), "--x", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["strike"] - 0.1 * math.exp(0.1)) < 1e-12
        assert payload["value"] > 0

    def test_expansion_method(self, capsys):
        code, out, _ = run(
            ["rate", "--model", str(MODEL), "--x", "0.05", "--method", "expansion"], capsys
        )
        assert code == 0
        assert json.loads(out)["method"] == "expansion"

    def test_missing_strike(self, capsys):
        code, _, err = run(["rate", "--model", str(MODEL)], capsys)
        assert code == 2
        assert "error" in err

    def test_bounds_method(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        data = json.loads(MODEL.read_text())
        data["rho"] = 0.7
        m.write_text(json.dumps(data))
        code, out, _ = run(["rate", "--model", str(m), "--x", "0.1", "--method", "bounds"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {"lower", "best_upper", "upper_candidates"} <= set(payload)
        assert set(payload["upper_candidates"]) == {"scaled_zero_corr", "zero_corr_paths", "scaled_asian", "corr_path"}
        assert payload["lower"] <= payload["best_upper"]

    def test_numeric_method_routes_perfect_corr(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        data = json.loads(MODEL.read_text())
        data["rho"] = 1.0
        m.write_text(json.dumps(data))
        code, out, _ = run(["rate", "--model", str(m), "--x", "0.05", "--method", "numeric"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"].startswith("perfect_corr")
        assert payload["value"] > 0


class TestSmileCmd:
    def test_csv_shape_and_atm(self, capsys):
        code, out, _ = run(
            ["smile", "--model", str(MODEL), "--x=-0.1:0.1:5", "--method", "expansion"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "K,x,sigma_v,method,lo,hi"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[1]) == 0.0
        assert abs(float(mid[2]) - 1.1552777443829976) < 1e-9

    def test_bounds_interval_columns(self, capsys, tmp_path):
        model2 = tmp_path / "m.json"
        data = json.loads(MODEL.read_text())
        data["rho"] = 0.5
        model2.write_text(json.dumps(data))
        code, out, _ = run(
            ["smile", "--model", str(model2), "--x", "0.05", "--method", "bounds"], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[2] == ""  # no point estimate, interval only
        assert float(row[4]) <= float(row[5])


class TestAtmCmd:
    def test_payload(self, capsys):
        code, out, _ = run(["atm", "--model", str(MODEL)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["atm_price_over_sqrt_t"] - 0.046088913784117655) < 1e-12
        assert abs(payload["sigma_v_atm"] - 1.1552777443829976) < 1e-12


class TestMcCmd:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["mc", "--model", str(MODEL), "--x=-0.05:0.05:3", "--T", "0.02",
                "--paths", "2000", "--steps", "40", "--seed", "12"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(f1)], capsys)[0] == 0
        assert run(args + ["--out", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 12
        assert meta["config"]["n_paths"] == 2000
        assert "scheme" not in meta["config"]
        assert "model_hash" in meta
        assert set(meta["timing"]) == {"simulate_s", "price_s"}
        assert all(v >= 0 for v in meta["timing"].values())

    def test_csv_header(self, capsys):
        code, out, _ = run(
            ["mc", "--model", str(MODEL), "--k", "0.1", "--T", "0.02",
             "--paths", "1000", "--steps", "20", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "K,x,call,call_se,put,put_se,ivol,ivol_se"


class TestFigures:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            ["figures", "--model", str(MODEL), "--x=-0.08:0.08:3", "--T", "0.004",
             "--paths", "2000", "--steps", "40", "--seed", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,T,K,x,mc_ivol,mc_ivol_se,lin_ivol,reliable"
        assert len(lines) == 1 + 3 * 3


class TestErrorPaths:
    def test_usage_error_exit_1(self, capsys):
        assert run(["bogus"], capsys)[0] == 1
        assert run([], capsys)[0] == 1

    def test_invalid_model_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads(MODEL.read_text())
        data["eta"] = {"type": "tanh", "f0": 1.0, "f1": -1.5, "x0": 0.0}
        bad.write_text(json.dumps(data))
        code, _, err = run(["rate", "--model", str(bad), "--k", "0.12"], capsys)
        assert code == 2
        assert "eta" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_unknown_model_key_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        data = json.loads(MODEL.read_text())
        data["vol_of_vol"] = 2.0
        bad.write_text(json.dumps(data))
        code, _, err = run(["rate", "--model", str(bad), "--k", "0.12"], capsys)
        assert code == 2
        assert "vol_of_vol" in err

    @pytest.mark.parametrize(
        "args",
        [["rate", "--k", "inf"], ["rate", "--k", "nan"], ["smile", "--x", "inf"], ["mc", "--k", "inf"]],
        ids=["rate-k-inf", "rate-k-nan", "smile-x-inf", "mc-k-inf"],
    )
    def test_non_finite_strike_exit_2(self, capsys, args):
        code, _, err = run(args + ["--model", str(MODEL)], capsys)
        assert code == 2
        assert "finite" in json.loads(err.strip().splitlines()[-1])["message"]

    def test_closed_method_needs_rho_zero(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        data = json.loads(MODEL.read_text())
        data["rho"] = 0.3
        m.write_text(json.dumps(data))
        code, _, err = run(["rate", "--model", str(m), "--k", "0.12", "--method", "closed"], capsys)
        assert code == 2
