import json
import threading
from fractions import Fraction

import pytest

from fandist.cli import main
from fandist.galedual import PointConfig
from fandist.genpos import random_config
from fandist.kneser import ColoringCertificate, SetFamily
from fandist.pipeline import equidistribute
from fandist.tverberg import search_tuple


def run(tmp_path, *argv):
    return main(list(argv))


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "x.json"
    cfg = random_config(7, 5, seed=42)
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


class TestGenerateAndTransform:
    def test_gen_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-random", "--n", "6", "--dim", "4", "--seed", "9",
                     "--output", str(a)]) == 0
        assert main(["gen-random", "--n", "6", "--dim", "4", "--seed", "9",
                     "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        cfg = PointConfig.from_json(json.loads(a.read_text()))
        assert cfg.n == 6 and cfg.dim == 4

    def test_gen_random_classes(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["gen-random", "--n", "6", "--dim", "4",
                     "--classes", "4,2", "--output", str(out)]) == 0
        cfg = PointConfig.from_json(json.loads(out.read_text()))
        assert cfg.class_sizes() == [4, 2]

    def test_gale_then_inverse(self, tmp_path, config_file):
        dual = tmp_path / "dual.json"
        assert main(["gale", "--input", config_file,
                     "--output", str(dual)]) == 0
        blob = json.loads(dual.read_text())
        dual_cfg = tmp_path / "dualcfg.json"
        dual_cfg.write_text(json.dumps(blob["dual"]))
        back = tmp_path / "back.json"
        assert main(["inverse-gale", "--input", str(dual_cfg),
                     "--output", str(back)]) == 0

    def test_gale_reduces_long_coefficient_lists(self, tmp_path):
        cfg = random_config(6, 4, field=3, seed=5).to_json()
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(cfg))
        # zeta^3 = 1, so appending 0, 1 and subtracting 1 keeps the value
        c0, c1 = cfg["points"][0][0]["coeffs"]
        cfg["points"][0][0]["coeffs"] = [str(Fraction(c0) - 1), c1, "0", "1"]
        long = tmp_path / "long.json"
        long.write_text(json.dumps(cfg))
        outs = []
        for src in (plain, long):
            out = tmp_path / f"gale-{src.name}"
            assert main(["gale", "--input", str(src),
                         "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_is_precondition(self, tmp_path):
        assert main(["gale", "--input", str(tmp_path / "nope.json")]) == 2


class TestSearchCommands:
    def test_tverberg_found(self, tmp_path, config_file):
        out = tmp_path / "t.json"
        assert main(["tverberg", "--input", config_file, "--r", "2",
                     "--output", str(out)]) == 0

    def test_tverberg_none(self, tmp_path):
        cfg = random_config(3, 2, seed=5)
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["tverberg", "--input", str(path), "--r", "2"]) == 1

    def test_equidistribute_and_verify_fan(self, tmp_path, config_file):
        out = tmp_path / "res.json"
        assert main(["equidistribute", "--input", config_file, "--r", "3",
                     "--output", str(out)]) == 0
        blob = json.loads(out.read_text())
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps(blob["affine_fan"]))
        assert main(["verify-fan", "--input", config_file,
                     "--fan", str(fan), "--mode", "equidistribute"]) == 0

    def test_gate_exit_code(self, tmp_path, config_file):
        assert main(["tverberg", "--input", config_file, "--r", "3",
                     "--gate", "1"]) == 3
        # a tripped two-fan pair gate exits 3 at once, without sampling
        cfg = random_config(10, 8, seed=1000, coloring=[0] * 5 + [1] * 5)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["two-fans", "--input", str(path), "--r", "3",
                     "--gate", "0"]) == 3
        assert main(["two-fans", "--input", str(path), "--r", "3"]) == 0

    def test_verify_fan_two_fan_mode(self, tmp_path):
        from fandist.fans import fan_from_tuple_real
        from fandist.galedual import gale_transform
        from fandist.tverberg import search_tuple
        cfg = PointConfig(1, [[i] for i in range(1, 10)])
        pair = gale_transform(cfg)
        t1 = search_tuple(cfg, 3, allowed=[0, 1, 2, 3, 4])
        t2 = search_tuple(cfg, 3, allowed=[4, 5, 6, 7, 8])
        f1 = fan_from_tuple_real(pair, t1)
        f2 = fan_from_tuple_real(pair, t2)
        dual = tmp_path / "dual.json"
        dual.write_text(json.dumps(
            pair.dual.with_coloring([0] * 9).to_json()))
        p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
        p1.write_text(json.dumps(f1.to_json()))
        p2.write_text(json.dumps(f2.to_json()))
        code = main(["verify-fan", "--input", str(dual), "--fan", str(p1),
                     "--mode", "two-fan", "--other-fan", str(p2)])
        assert code in (0, 1)  # exact verdict either way, no crash
        # missing second fan is a precondition failure
        assert main(["verify-fan", "--input", str(dual), "--fan", str(p1),
                     "--mode", "two-fan"]) == 2

    def test_pierce_requires_valid_certificate(self, tmp_path, config_file):
        fam = SetFamily(7, [[0], [1], [2]])
        bad = ColoringCertificate(fam, 3, (0, 0, 0))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(bad.to_json()))
        assert main(["pierce", "--input", config_file, "--r", "3",
                     "--certificate", str(cert)]) == 2


class TestAnalysisCommands:
    def test_check_sgp_and_typical(self, tmp_path):
        cfg = random_config(6, 2, seed=8)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["check-sgp", "--input", str(path)]) == 0
        dual = random_config(6, 3, seed=8)
        dpath = tmp_path / "d.json"
        dpath.write_text(json.dumps(dual.to_json()))
        assert main(["typical", "--input", str(dpath)]) == 0

    def test_m_eligible_codes(self):
        assert main(["m-eligible", "--r", "3", "--m", "2"]) == 0
        assert main(["m-eligible", "--r", "3", "--m", "1"]) == 1
        assert main(["m-eligible", "--r", "4", "--m", "2"]) == 2

    def test_counterexample_reports_honestly(self, tmp_path):
        out = tmp_path / "ce.json"
        code = main(["counterexample", "--r", "3", "--m", "2", "--d", "1",
                     "--k", "0", "--ell", "3", "--seed", "1",
                     "--output", str(out)])
        blob = json.loads(out.read_text())
        assert code in (0, 1)
        assert blob["no_equidistribution"] == (code == 0)
        if code == 1:
            assert blob["equidistributing_tuple"] is not None


def test_workers_start_no_thread(tmp_path, monkeypatch, config_file):
    """The search and the CLI run sequentially: no thread is started."""
    cfg = PointConfig(1, [[i] for i in range(1, 8)])
    X = random_config(7, 5, seed=1)
    seq_tuple = search_tuple(cfg, 3)
    seq_fan = equidistribute(X, 3).to_json()
    seq_out, par_out = tmp_path / "seq.json", tmp_path / "par.json"
    assert main(["tverberg", "--input", config_file, "--r", "2",
                 "--output", str(seq_out)]) == 0

    def no_thread(self):
        raise AssertionError("the search started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert search_tuple(cfg, 3) == seq_tuple
    assert equidistribute(X, 3).to_json() == seq_fan
    assert main(["tverberg", "--input", config_file, "--r", "2",
                 "--output", str(par_out)]) == 0
    assert par_out.read_text() == seq_out.read_text()


@pytest.mark.parametrize("argv", [
    ["gale", "--seed", "1"],
    ["verify-fan", "--fan", "f.json", "--gate", "1"],
    ["tverberg", "--r", "2", "--seed", "1"],
    ["m-eligible", "--r", "3", "--m", "2", "--gate", "1"],
    ["two-fans", "--r", "3", "--budget", "1"],
    ["two-fans", "--r", "3", "--seed", "1"],
    ["tverberg", "--r", "3", "--workers", "4"],
])
def test_flag_only_where_read(config_file, argv):
    """--seed and --gate exist only on the subcommands that read them;
    --budget and --workers exist on none."""
    if argv[0] != "m-eligible":
        argv = argv[:1] + ["--input", config_file] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
