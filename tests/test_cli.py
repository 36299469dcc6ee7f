import hashlib
import inspect
import json
import os
import tempfile
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fandist import galedual
from fandist.errors import MalformedFan, NotADependence, PreconditionError
from fandist.cli import build_parser, main
from fandist.exactnum import Cyclotomic
from fandist.galedual import PointConfig
from fandist.genpos import (
    SGP_GATE,
    check_sgp,
    found_equidistributing_tuple,
    is_typical,
    random_config,
)
from fandist.kneser import ColoringCertificate, SetFamily
from fandist.pipeline import (
    bounds_experiment,
    equidistribute,
    pierce,
    rainbow,
    two_fans,
)
from fandist.tverberg import DEFAULT_LP_GATE, search_tuple


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

    def test_inverse_gale_failed_self_check_exits_4(self, tmp_path,
                                                    monkeypatch, capsys):
        dual = tmp_path / "dual.json"
        dual.write_text(json.dumps(PointConfig(1, [[1], [-2], [1]]).to_json()))
        dual_kernel = galedual._dual_kernel

        def perturbed(dual):
            # the kernel is integers over lead: move an entry by one
            K, lead, bridge = dual_kernel(dual)
            K = [list(v) for v in K]
            K[-1][0] += lead
            return K, lead, bridge

        monkeypatch.setattr(galedual, "_dual_kernel", perturbed)
        assert main(["inverse-gale", "--input", str(dual)]) == 4
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [[], [[], [], []]],
                             ids=["no-points", "three-points"])
    def test_inverse_gale_dim_zero_is_precondition(self, tmp_path, capsys,
                                                   points):
        dual = tmp_path / "dual.json"
        dual.write_text(json.dumps({"dim": 0, "points": points}))
        assert main(["inverse-gale", "--input", str(dual)]) == 2
        assert "a Gale dual needs dim >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("blob", [{"dim": 2, "points": 5}, []])
    def test_malformed_config_is_precondition(self, tmp_path, capsys, blob):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert main(["equidistribute", "--input", str(path),
                     "--r", "3"]) == 2
        field = "points" if isinstance(blob, dict) else "object"
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("blob,field", [
        ({"dim": [2], "points": [[1, 2]]}, "dim"),
        ({"dim": 1.5, "points": [[1]]}, "dim"),
        ({"dim": 1, "points": [[None]]}, "coordinate"),
        ({"dim": 1, "points": [[1]], "coloring": 5}, "coloring"),
        ({"dim": 1, "points": [[1]], "field": 5}, "field"),
    ])
    def test_malformed_field_is_precondition(self, tmp_path, capsys, blob,
                                             field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert main(["equidistribute", "--input", str(path),
                     "--r", "3"]) == 2
        assert field in capsys.readouterr().err


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
        # a tripped two-fan gate exits 3 at once, without sampling
        cfg = random_config(10, 8, seed=1000, coloring=[0] * 5 + [1] * 5)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["two-fans", "--input", str(path), "--r", "3",
                     "--gate", "0"]) == 3
        assert main(["two-fans", "--input", str(path), "--r", "3"]) == 0
        # the second streams of this input emit nothing (every cell cap is
        # 0), yet their checks count: the gate trips at once
        cfg = random_config(11, 8, seed=1, coloring=[0] * 5 + [1] * 6)
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["two-fans", "--input", str(path), "--r", "3",
                     "--gate", "1000"]) == 3

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

    def test_verify_real_fan_on_complex_points(self, tmp_path):
        # a user error (exit 2), not a crash
        fan, cfg = tmp_path / "fan.json", tmp_path / "x.json"
        fan.write_text(json.dumps({"kind": "real", "r": 3, "dim": 1,
                                   "normals": [["1"], ["-1"], ["0"]],
                                   "offsets": ["1", "0", "-1"]}))
        cfg.write_text(json.dumps(PointConfig(
            1, [[Cyclotomic(4, [1, 1])], [Cyclotomic(4, [2])]], 4).to_json()))
        assert main(["verify-fan", "--input", str(cfg),
                     "--fan", str(fan)]) == 2

    def test_pierce_requires_valid_certificate(self, tmp_path, config_file):
        fam = SetFamily(7, [[0], [1], [2]])
        bad = ColoringCertificate(fam, 3, (0, 0, 0))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(bad.to_json()))
        assert main(["pierce", "--input", config_file, "--r", "3",
                     "--certificate", str(cert)]) == 2

    @pytest.mark.parametrize("blob,field", [
        ({"kind": "real", "r": 3, "dim": 2, "normals": 5,
          "offsets": [0, 0, 0]}, "normals"),
        ({"kind": "real", "r": 3, "dim": 2,
          "normals": [[1, 0], None, [-1, -1]], "offsets": [0, 0, 0]},
         "normals"),
        ({"kind": "real", "r": 3, "dim": 2,
          "normals": [[1, 0], [0, None], [-1, -1]], "offsets": [0, 0, 0]},
         "normals entry"),
        ([[1, 0], [0, 1], [-1, -1]], "object"),
        ({"kind": "complex", "r": 2, "N": 4, "alpha": 5, "beta": "0"},
         "alpha"),
    ], ids=["normals-number", "null-normal", "null-normal-entry",
            "top-level-list", "complex-alpha-number"])
    def test_malformed_fan_is_precondition(self, tmp_path, capsys,
                                           config_file, blob, field):
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps(blob))
        assert main(["verify-fan", "--input", config_file,
                     "--fan", str(fan)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("blob,field", [
        ([[0], [1]], "object"),
        ({"n": 7, "members": 5, "r": 3, "classes": [0]}, "members"),
        ({"n": 7, "members": [[0]], "r": 3, "classes": 5}, "classes"),
        ({"n": 9, "members": [[1, 2]], "r": 3, "classes": [-1]}, "classes"),
    ], ids=["top-level-list", "members-number", "classes-number",
            "classes-negative"])
    def test_malformed_certificate_is_precondition(self, tmp_path, capsys,
                                                   config_file, blob, field):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(blob))
        assert main(["pierce", "--input", config_file, "--r", "3",
                     "--certificate", str(cert)]) == 2
        assert field in capsys.readouterr().err


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

    @pytest.mark.parametrize("r", ["1", "2"])
    def test_bounds_small_r_is_precondition(self, capsys, r):
        assert main(["bounds", "--r", r, "--m", "2",
                     "--d-values", "7"]) == 2
        assert "needs r >= 3" in capsys.readouterr().err

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


def test_gate_defaults_are_the_library_defaults():
    """Each --gate default is the default of the library call it feeds."""
    x, r = ["--input", "x.json"], ["--r", "3"]
    cases = [
        (["tverberg", *x, *r], search_tuple, "lp_gate", DEFAULT_LP_GATE),
        (["equidistribute", *x, *r], equidistribute, "lp_gate",
         DEFAULT_LP_GATE),
        (["rainbow", *x, *r], rainbow, "lp_gate", DEFAULT_LP_GATE),
        (["pierce", *x, *r, "--certificate", "c.json"], pierce, "lp_gate",
         DEFAULT_LP_GATE),
        (["counterexample", *r, "--m", "2", "--d", "1", "--ell", "3"],
         found_equidistributing_tuple, "lp_gate", DEFAULT_LP_GATE),
        (["bounds", *r, "--m", "2", "--d-values", "7"], bounds_experiment,
         "lp_gate", DEFAULT_LP_GATE),
        (["two-fans", *x, *r], two_fans, "lp_gate", DEFAULT_LP_GATE),
        (["check-sgp", *x], check_sgp, "gate", SGP_GATE),
        (["typical", *x], is_typical, "gate", SGP_GATE),
    ]
    parser = build_parser()
    for argv, call, keyword, constant in cases:
        default = inspect.signature(call).parameters[keyword].default
        assert parser.parse_args(argv).gate == default == constant, argv[0]


# sha256 of the stdout each Gale-layer command writes on fixed gen-random
# inputs; any change to these bytes is a change of result
GALE_LAYER_SHA256 = {
    "gale-Q":
        "2d1895f50cec1e6f2cd16b8ee8acd21424483007bf9444fa0a570969476398a5",
    "inverse-gale-Q":
        "6b7948485ec585ed72e4c59a57bdf6bebfd711b6fc721ca8660aa28f45e04587",
    "gale-Qi":
        "2f0978331162e58f30b40b8f8048c7d880f02e5dec7eb47e9a52c0bdaa49a323",
    "inverse-gale-Qi":
        "d7f7d86ea4bf49c313366ccfb84a7d4a08c5753fd0a8dcd0ecb80f6fd19adf3d",
    "gale-Qz8":
        "430c5a70df67ef7589cd4d59ca0326845f9b9d821988af3283ba5416d0cf9d09",
    "inverse-gale-Qz8":
        "923c2c7663b0c52cf71953b6e8e421436c5ab9938674bf6d9545cd23ed8bbccf",
    "verify-fan-Q":
        "35c96c51617c227882b6932878a3bd9183260777f7b9fa8d674bdd54caf75288",
}


def _stdout(capsys, *argv):
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def _gale_layer_outputs(tmp_path, capsys):
    outs = {}
    for field, name, n, dim, seed in (("rational", "Q", 7, 5, 42),
                                      ("cyclotomic:4", "Qi", 6, 4, 7300),
                                      ("cyclotomic:8", "Qz8", 6, 4, 7300)):
        cfg, dual = tmp_path / f"{name}.json", tmp_path / f"{name}-g.json"
        _stdout(capsys, "gen-random", "--n", n, "--dim", dim, "--field",
                field, "--seed", seed, "--output", cfg)
        outs[f"gale-{name}"] = _stdout(capsys, "gale", "--input", cfg)
        dual.write_text(json.dumps(json.loads(outs[f"gale-{name}"])["dual"]))
        outs[f"inverse-gale-{name}"] = _stdout(capsys, "inverse-gale",
                                               "--input", dual)
    cfg, fan = tmp_path / "Q.json", tmp_path / "fan.json"
    res = _stdout(capsys, "equidistribute", "--input", cfg, "--r", 3)
    fan.write_text(json.dumps(json.loads(res)["affine_fan"]))
    outs["verify-fan-Q"] = _stdout(capsys, "verify-fan", "--input", cfg,
                                   "--fan", fan, "--mode", "equidistribute")
    return outs


@pytest.mark.parametrize("command", sorted(GALE_LAYER_SHA256))
def test_gale_layer_bytes_are_pinned(tmp_path, capsys, command):
    out = _gale_layer_outputs(tmp_path, capsys)[command]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GALE_LAYER_SHA256[command]



# gen-random arguments of the valid configs the malformations start from
GEN_RANDOM_BASES = [
    ["--n", "6", "--dim", "3", "--classes", "3,3", "--seed", "1"],
    ["--n", "5", "--dim", "2", "--classes", "3,2", "--seed", "2",
     "--field", "cyclotomic:3"],
    ["--n", "5", "--dim", "2", "--classes", "2,3", "--seed", "3",
     "--field", "cyclotomic:4"],
]

MALFORMATIONS = [
    "config type", "points type", "point type", "coordinate type",
    "ragged point", "coloring type", "coloring length", "coloring entry",
    "negative dim", "dim type", "field", "coordinate conductor",
    "mixed conductors", "non-rational string",
]

BAD_TYPES = st.sampled_from([None, True, "x", 5, 1.5, [], {}])


def _malformed(obj, kind, i, j, draw):
    """The valid config ``obj`` with one malformation of this kind at
    point i, coordinate j; ``draw`` draws the bad value."""
    pts, coloring = obj["points"], obj["coloring"]
    if kind == "config type":
        return draw(st.sampled_from([[obj], "x", 5, None]))
    if kind == "points type":
        obj["points"] = draw(BAD_TYPES)
    elif kind == "point type":
        pts[i] = draw(BAD_TYPES)
    elif kind == "coordinate type":
        pts[i][j] = draw(st.sampled_from([None, True, [], {}, {"N": 3}]))
    elif kind == "ragged point":
        pts[i] = pts[i][:-1] if draw(st.booleans()) else pts[i] + ["1"]
    elif kind == "coloring type":
        obj["coloring"] = draw(BAD_TYPES.filter(lambda v: v is not None))
    elif kind == "coloring length":
        obj["coloring"] = coloring[:-1] if draw(st.booleans()) \
            else coloring + [0]
    elif kind == "coloring entry":
        coloring[i] = draw(st.integers(-9, -1) | BAD_TYPES.filter(
            lambda v: v != 5))
    elif kind == "negative dim":
        obj["dim"] = draw(st.integers(-5, -1))
    elif kind == "dim type":
        obj["dim"] = draw(BAD_TYPES)
    elif kind == "field":
        obj["field"] = draw(st.sampled_from(
            [{"cyclotomic": N} for N in (0, -4, "x", None, 1.5)]
            + ["complex", 5, [], None, True]))
    elif kind == "coordinate conductor":
        pts[i][j] = {"N": draw(st.integers(-3, 0)), "coeffs": ["1"]}
    elif kind == "mixed conductors":
        pts[i][j] = {"N": draw(st.sampled_from([5, 8])),
                     "coeffs": ["1", "1"]}
    elif kind == "non-rational string":
        pts[i][j] = draw(st.sampled_from(
            ["abc", "1/0", "nan", "inf", "", "1/2/3", "0x10"]))
    return obj


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(GEN_RANDOM_BASES),
       kind=st.sampled_from(MALFORMATIONS), data=st.data())
def test_malformed_config_exits_2(base, kind, data):
    """A malformed config is a user error for every command that loads
    it: never exit 0 (accepted), 1 (none found) or 4 (a bug)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.json")
        assert main(["gen-random", *base, "--output", path]) == 0
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        i = data.draw(st.integers(0, len(obj["points"]) - 1))
        j = data.draw(st.integers(0, obj["dim"] - 1))
        bad = _malformed(obj, kind, i, j, data.draw)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        for argv in (["gale"], ["equidistribute", "--r", "3"]):
            assert main([*argv, "--input", path]) == 2, argv


@pytest.mark.parametrize("exc", [ValueError("boom"), KeyError("boom")],
                         ids=["ValueError", "KeyError"])
def test_unexpected_error_exits_4(monkeypatch, capsys, config_file, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("fandist.cli.gale_transform", boom)
    assert main(["gale", "--input", config_file]) == 4
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("target,exc", [
    ("fandist.pipeline.slice_project", MalformedFan("zero normal")),
    ("fandist.pipeline.fan_from_tuple_real", NotADependence("no dependence")),
], ids=["slice", "dependence"])
def test_fan_layer_check_on_own_tuple_exits_4(monkeypatch, capsys,
                                              config_file, target, exc):
    """The fan layer's input checks fail inside a run only on the
    pipeline's own tuple and pair: a bug (exit 4), not a user error."""
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, boom)
    assert main(["equidistribute", "--input", config_file, "--r", "3"]) == 4
    err = capsys.readouterr().err
    assert "internal error: fan construction failed" in err


def test_pipeline_validates_no_tuple_twice(monkeypatch, capsys,
                                           config_file):
    # the search's solve has verified each witness, so the fan layer of a
    # run, real, complex or two-fan, does not call TverbergTuple.validate
    calls = []
    monkeypatch.setattr("fandist.tverberg.TverbergTuple.validate",
                        lambda self, config: calls.append(self))
    assert main(["equidistribute", "--input", config_file, "--r", "3"]) == 0
    capsys.readouterr()
    assert equidistribute(random_config(6, 4, field=4, seed=7300,
                                        coloring=[0, 0, 0, 1, 1, 1]),
                          2) is not None
    assert two_fans(random_config(10, 8, seed=1000,
                                  coloring=[0] * 5 + [1] * 5),
                    3) is not None
    assert calls == []


@pytest.mark.parametrize("argv,message", [
    (["gen-random", "--n", "4", "--dim", "2", "--field", "cyclotomic:x"],
     "--field"),
    (["gen-random", "--n", "4", "--dim", "2", "--field", "cyclotomic:0"],
     "--field"),
    (["gen-random", "--n", "4", "--dim", "2", "--classes", "2,x"],
     "--classes"),
    (["gen-random", "--n", "4", "--dim", "2", "--field", "bogus"],
     "unknown field 'bogus'"),
    (["gen-random", "--n", "4", "--dim", "2", "--classes", "2,1"],
     "class sizes must sum to n"),
    (["gen-random", "--n", "4", "--dim", "2", "--bits", "0"], "--bits"),
    (["gen-random", "--n", "4", "--dim", "-1"], "dim"),
    (["tverberg", "--input", "{cfg}", "--r", "0"], "r must be"),
    (["bounds", "--r", "3", "--m", "0", "--d-values", "9"], "m >= 1"),
    (["counterexample", "--r", "3", "--m", "2", "--d", "0", "--ell", "4"],
     "d must be at least 1"),
    (["counterexample", "--r", "3", "--m", "2", "--d", "-1", "--ell", "4"],
     "d must be at least 1"),
    (["bounds", "--r", "3", "--m", "2", "--d-values", "0"],
     "d must be at least 1"),
], ids=["field-text", "field-zero", "classes-text", "field-unknown",
        "classes-sum", "bits-zero",
        "negative-dim", "tverberg-r0", "bounds-m0", "counterexample-d0",
        "counterexample-d-negative", "bounds-d0"])
def test_bad_argument_is_precondition(capsys, config_file, argv, message):
    argv = [a.format(cfg=config_file) for a in argv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_equidistribute_without_a_fan_prints_none(tmp_path, capsys):
    x, out = tmp_path / "x5.json", tmp_path / "out.json"
    assert main(["gen-random", "--n", "5", "--dim", "3", "--seed", "1",
                 "--output", str(x)]) == 0
    assert main(["equidistribute", "--input", str(x), "--r", "3",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == "none\n"
    assert not out.exists()


@pytest.mark.parametrize("r", ["0", "-1", "1"])
@pytest.mark.parametrize("command", ["equidistribute", "rainbow", "two-fans"])
def test_complex_r_below_two_exits_2(tmp_path, capsys, command, r):
    path = tmp_path / "c4.json"
    assert main(["gen-random", "--n", "6", "--dim", "4", "--field",
                 "cyclotomic:4", "--classes", "3,3", "--seed", "7300",
                 "--output", str(path)]) == 0
    assert main([command, "--input", str(path), "--r", r]) == 2
    assert "r must be at least 2" in capsys.readouterr().err


def test_verify_fan_field_and_family_mismatch(tmp_path, capsys):
    """A Q(zeta_3) config under a Q(i) fan, and a family over another
    ground set, are user errors."""
    cfg, fan = tmp_path / "x.json", tmp_path / "fan.json"
    cfg.write_text(json.dumps(random_config(5, 1, field=3,
                                            seed=3).to_json()))
    fan.write_text(json.dumps({"kind": "complex", "r": 2, "N": 4,
                               "alpha": ["1"], "beta": "0"}))
    assert main(["verify-fan", "--input", str(cfg), "--fan", str(fan)]) == 2
    assert "Q(zeta_3) is not in Q(zeta_4)" in capsys.readouterr().err
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 20, "members": [[15, 16]]}))
    fan.write_text(json.dumps({"kind": "complex", "r": 3, "N": 3,
                               "alpha": ["1"], "beta": "0"}))
    assert main(["verify-fan", "--input", str(cfg), "--fan", str(fan),
                 "--mode", "pierce", "--family", str(fam)]) == 2
    assert "ground set" in capsys.readouterr().err


# sha256 of the `two-fans --mode pierce --certificate` output, when the
# subcommand still took --mode, on the input and certificate below
TWO_FANS_PIERCE_SHA256 = (
    "c47b82dc83254dec8d238f8613aa6d62eff71ff12cf458c9666643d8548ebd34")


def test_two_fans_certificate_selects_pierce(tmp_path):
    """--certificate alone selects pierce mode; --mode is gone."""
    x, cert, out = (tmp_path / name for name in ("y.json", "c.json",
                                                 "out.json"))
    assert main(["gen-random", "--n", "10", "--dim", "8", "--classes",
                 "5,5", "--seed", "1000", "--output", str(x)]) == 0
    fam = SetFamily(10, [range(10), [4]])
    cert.write_text(json.dumps(ColoringCertificate(fam, 9, (0, 1)).to_json()))
    assert main(["two-fans", "--input", str(x), "--r", "3",
                 "--certificate", str(cert), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "two-fan-pierce"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        TWO_FANS_PIERCE_SHA256
    with pytest.raises(SystemExit) as exc:
        main(["two-fans", "--input", str(x), "--r", "3", "--mode", "pierce",
              "--certificate", str(cert)])
    assert exc.value.code == 2


def test_verify_fan_refuses_inputs_its_mode_ignores(tmp_path, capsys):
    """A second fan outside two-fan mode and a family outside pierce and
    two-fan mode exit 2 instead of being dropped."""
    X = random_config(7, 5, seed=1)
    x, fan, fam = (tmp_path / name for name in ("x7.json", "f7.json",
                                                "fam.json"))
    x.write_text(json.dumps(X.to_json()))
    fan.write_text(json.dumps(equidistribute(X, 3).affine_fan.to_json()))
    fam.write_text(json.dumps(SetFamily(7, [[0]]).to_json()))
    base = ["verify-fan", "--input", str(x), "--fan", str(fan)]
    assert main(base) == 0
    assert main(base + ["--other-fan", str(fan)]) == 2
    assert "only two-fan mode reads a second fan" in capsys.readouterr().err
    assert main(base + ["--mode", "equidistribute", "--family",
                        str(fam)]) == 2
    assert "only pierce and two-fan" in capsys.readouterr().err
    # an empty path is a path that cannot be read, not a missing flag
    assert main(base + ["--other-fan", ""]) == 2
    assert main(base + ["--family", ""]) == 2
    assert main(["two-fans", "--input", str(x), "--r", "3",
                 "--certificate", ""]) == 2
