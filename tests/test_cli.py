import contextlib
import io
import json
import math
import os
import runpy
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subheat import (
    Disk,
    Interval,
    Kind,
    LadderReport,
    RandomStream,
    RunawaySamplerError,
    Stable,
    TemperedStable,
    TimeChangeSpec,
    estimate,
    parse_domain,
    parse_exponent,
    predict_spectral,
    subordinate_deficit_series,
)
from subheat import cli
from subheat.cli import (
    _KEYS,
    _SUITE_ALIASES,
    _SUITES,
    RunConfig,
    _build_parser,
    _resolve_config,
    cmd_estimate,
    cmd_predict,
    cmd_verify,
    main,
    run_suite,
)

GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------- output


def test_predict_csv_matches_golden():
    got = cmd_predict(RunConfig(exponent="stable:0.5", domain="interval:0,1", time_change="sub"))
    assert got == (GOLDEN / "predict_critical.csv").read_text()


def test_estimate_csv_matches_golden():
    cfg = RunConfig(
        exponent="stable:0.75",
        domain="interval:0,1",
        time_change="sub",
        t_ladder=(1e-2, 1e-3),
        paths=4096,
        seed=12,
    )
    assert cmd_estimate(cfg) == (GOLDEN / "estimate_highindex.csv").read_text()


def test_estimate_inverse_csv_matches_golden():
    cfg = RunConfig(
        exponent="stable:0.5",
        domain="interval:0,1",
        time_change="inv",
        t_ladder=(1e-4,),
        paths=4096,
        seed=7,
    )
    assert cmd_estimate(cfg) == (GOLDEN / "estimate_inverse.csv").read_text()


# the verify suites of the benchmark's cli-sweep workload; perfbench/configs.py
# imports nothing, so running it costs nothing
_CLI_SUITES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "configs.py"))["CLI_SUITES"]


def _verify_quick_reports(suites) -> str:
    """verify --quick --seed 0 of each suite, its runtime_s masked, as one JSON list."""
    payloads = []
    for suite in suites:
        _, text = cmd_verify(RunConfig(suite=suite, quick=True, seed=0))
        payload = json.loads(text)
        for entry in payload["suites"]:
            entry["runtime_s"] = None
        payloads.append(payload)
    return json.dumps(payloads, indent=2) + "\n"


def test_verify_quick_matches_golden():
    # every target, achieved value, tolerance and verdict, to the last digit
    assert _verify_quick_reports(_CLI_SUITES) == (GOLDEN / "verify_quick.json").read_text()


_PREDICT_GRID = json.loads((GOLDEN / "predict_grid.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", _PREDICT_GRID, ids=lambda c: f"{c['exponent']}-{c['domain']}-{c['time_change']}-{c['format']}"
)
def test_predict_matches_golden_grid(case):
    # every regime, quantity and domain, both formats: the bytes printed, or
    # the exit code and message of a refused configuration
    argv = ["predict", "--exponent", case["exponent"], "--domain", case["domain"]]
    argv += ["--time-change", case["time_change"], "--format", case["format"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "golden,cfg",
    [
        # an importance-sampled spectral row beside a plain low-index regular row
        ("estimate_lowindex.csv", RunConfig(exponent="stable:0.25", t_ladder=(1e-8,), paths=4096, seed=5)),
        # the duality route on a disk
        (
            "estimate_duality_disk.csv",
            RunConfig(
                exponent="tempered:0.5,1", domain="disk:1", time_change="inv", t_ladder=(1e-3,), paths=4096, seed=9
            ),
        ),
    ],
    ids=["lowindex-importance-sampled", "duality-disk"],
)
def test_estimate_routes_match_golden(golden, cfg):
    assert cmd_estimate(cfg) == (GOLDEN / golden).read_text()


def test_estimate_csv_header_is_frozen():
    cfg = RunConfig(t_ladder=(1e-3,), paths=64, seed=0)
    out = cmd_estimate(cfg)
    assert out.splitlines()[0] == "t,quantity,value,stderr,rate_value,ratio,n_paths,seed"


def test_estimate_json_schema():
    cfg = RunConfig(
        exponent="stable:0.75", t_ladder=(1e-2,), paths=1024, seed=3, fmt="json"
    )
    rows = json.loads(cmd_estimate(cfg))
    assert [r["quantity"] for r in rows] == ["spectral", "regular"]
    for row in rows:
        assert set(row) == {
            "t", "quantity", "value", "stderr", "rate_value", "ratio", "n_paths", "seed",
        }
        assert row["seed"] == 3
        assert row["n_paths"] == 1024
    # the CSV run of the same config carries the same numbers
    csv_rows = cmd_estimate(RunConfig(
        exponent="stable:0.75", t_ladder=(1e-2,), paths=1024, seed=3
    )).splitlines()[1:]
    assert float(csv_rows[0].split(",")[2]) == rows[0]["value"]


def test_predict_json_schema():
    cfg = RunConfig(exponent="stable:0.5", time_change="inv", fmt="json")
    rows = json.loads(cmd_predict(cfg))
    assert [r["quantity"] for r in rows] == ["spectral", "regular"]
    assert rows[0]["constant"] == pytest.approx(2.2065253026416745, rel=1e-12)
    assert rows[0]["rate"] == "t^(0.25)"
    assert rows[1]["constant"] == pytest.approx(rows[0]["constant"] / 2.0, rel=1e-14)


def test_seventeen_digit_rendering_roundtrips():
    out = cmd_estimate(RunConfig(exponent="stable:0.75", t_ladder=(1e-3,), paths=2048, seed=5))
    line = out.splitlines()[1].split(",")
    value = float(line[2])
    assert ("%.17g" % value) == line[2]


def test_csv_deterministic_across_runs_and_workers():
    cfg = RunConfig(exponent="stable:0.75", t_ladder=(1e-3,), paths=65_536, seed=1)
    one = cmd_estimate(cfg)
    two = cmd_estimate(cfg)
    many = cmd_estimate(RunConfig(
        exponent="stable:0.75", t_ladder=(1e-3,), paths=65_536, seed=1, workers=2
    ))
    assert one == two == many


# ----------------------------------------------------------- config rules


def _run_main(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def _seed_column(text):
    return {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}


def test_env_seed_is_default(monkeypatch, tmp_path):
    monkeypatch.setenv("SUBHEAT_SEED", "33")
    code, text = _run_main(
        ["estimate", "--exponent", "stable:0.75", "--t", "1e-3", "--paths", "64"],
        tmp_path,
    )
    assert code == 0
    assert _seed_column(text) == {"33"}


def test_config_file_overrides_env(monkeypatch, tmp_path):
    monkeypatch.setenv("SUBHEAT_SEED", "33")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 44\npaths = 64\nt = 1e-3\nexponent = stable:0.75\n")
    code, text = _run_main(["estimate", "--config", str(cfgfile)], tmp_path)
    assert code == 0
    assert _seed_column(text) == {"44"}


def test_flags_override_config_file(monkeypatch, tmp_path):
    monkeypatch.setenv("SUBHEAT_SEED", "33")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = 44\npaths = 64\nt = 1e-3\nexponent = stable:0.75\n")
    code, text = _run_main(
        ["estimate", "--config", str(cfgfile), "--seed", "55"], tmp_path
    )
    assert code == 0
    assert _seed_column(text) == {"55"}


def test_default_seed_zero(tmp_path, monkeypatch):
    monkeypatch.delenv("SUBHEAT_SEED", raising=False)
    code, text = _run_main(
        ["estimate", "--exponent", "stable:0.75", "--t", "1e-3", "--paths", "64"],
        tmp_path,
    )
    assert code == 0
    assert _seed_column(text) == {"0"}


def test_config_file_comments_and_ladder(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# manifest\nexponent = stable:0.75\nt-ladder = 1e-2,1e-3\npaths = 64\n"
    )
    code, text = _run_main(["estimate", "--config", str(cfgfile)], tmp_path)
    assert code == 0
    ts = [line.split(",", 1)[0] for line in text.splitlines()[1:]]
    assert ts == ["0.01", "0.01", "0.001", "0.001"]


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("pathz = 64\n")
    assert main(["estimate", "--config", str(cfgfile), "--t", "1e-3"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_file_repeated_key_exits_2(tmp_path, capsys):
    # the last of two lines must not silently win
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("paths = 64\nt = 1e-3\npaths = 128\n")
    assert main(["estimate", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "configuration error: config key 'paths' given twice\n"


@pytest.mark.parametrize(
    "line,message",
    [
        ("time-change = both", "time-change must be 'sub' or 'inv', got 'both'"),
        ("format = xml", "format must be 'csv' or 'json', got 'xml'"),
    ],
)
def test_config_file_choices_are_checked(tmp_path, capsys, line, message):
    # RunConfig is the one check of these values, from a config file or a
    # flag (test_bad_choice_flags_get_the_config_message)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{line}\nexponent = stable:0.75\n")
    assert main(["estimate", "--config", str(cfgfile), "--t", "1e-3"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("flag,message", [
    (["--time-change", "both"], "time-change must be 'sub' or 'inv', got 'both'"),
    (["--format", "xml"], "format must be 'csv' or 'json', got 'xml'"),
], ids=["time-change", "format"])
def test_bad_choice_flags_get_the_config_message(capsys, flag, message):
    assert main(["estimate", "--exponent", "stable:0.75", "--t", "1e-3", *flag]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


_SAMPLE_VALUES = {
    "exponent": "stable:0.25", "domain": "disk:2", "time-change": "inv", "t": "1e-3",
    "t-ladder": "1e-2,1e-3", "paths": "64", "seed": "5", "workers": "2", "format": "json",
    "out": "x.json", "suite": "all", "quick": "true", "tolerance": "0.1",
}


# the flags each command reads, and so offers
_COMMAND_FLAGS = {
    "predict": {"exponent", "domain", "time-change", "format", "out"},
    "estimate": {"exponent", "domain", "time-change", "format", "out", "t", "t-ladder", "paths", "seed", "workers"},
    "verify": {"suite", "quick", "seed", "workers", "tolerance", "out"},
}


@pytest.mark.parametrize("key", list(_KEYS))
def test_every_option_key_is_a_flag_and_a_config_key(key, tmp_path, monkeypatch):
    # a flag is offered exactly by the commands that read it; a config key is
    # valid for every command, since one file may serve all three
    monkeypatch.delenv("SUBHEAT_SEED", raising=False)
    parser = _build_parser()
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {_SAMPLE_VALUES[key]}\n")
    flag = ["--quick"] if key == "quick" else [f"--{key}", _SAMPLE_VALUES[key]]
    assert any(key in flags for flags in _COMMAND_FLAGS.values())
    for command, flags in _COMMAND_FLAGS.items():
        from_file = _resolve_config(parser.parse_args([command, "--config", str(cfgfile)]))
        assert from_file != RunConfig()
        if key not in flags:
            with pytest.raises(SystemExit):
                parser.parse_args([command, *flag])
            continue
        assert _resolve_config(parser.parse_args([command, *flag])) == from_file


@pytest.mark.parametrize("argv", [
    ["verify", "--paths", "10"],
    ["predict", "--seed", "1"],
    ["verify", "--paths", "10", "--format", "csv", "--exponent", "stable:0.3"],
    ["predict", "--seed", "3", "--paths", "5", "--workers", "9", "--tolerance", "0.5"],
], ids=["verify-paths", "predict-seed", "verify-table-flags", "predict-run-flags"])
def test_a_flag_its_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("text,quick", [("off", False), ("No", False), ("0", False), ("ON", True), ("yes", True)])
def test_config_booleans_read_both_spellings(tmp_path, monkeypatch, text, quick):
    monkeypatch.delenv("SUBHEAT_SEED", raising=False)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"quick = {text}\n")
    args = _build_parser().parse_args(["verify", "--config", str(cfgfile)])
    assert _resolve_config(args).quick is quick


def test_config_boolean_typo_exits_2(tmp_path, capsys):
    # a typo must not silently run the full-size suites
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("quick = ture\n")
    assert main(["verify", "--suite", "expansion-identity", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: expected one of 1/true/yes/on or 0/false/no/off, got 'ture'\n"
    )


def test_t_flag_overrides_a_config_ladder(tmp_path):
    # --t and --t-ladder are one setting, so a flag of either beats the file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("exponent = stable:0.75\nt-ladder = 1e-2,1e-3\npaths = 64\n")
    code, text = _run_main(["estimate", "--config", str(cfgfile), "--t", "1e-4"], tmp_path)
    assert code == 0
    assert [line.split(",", 1)[0] for line in text.splitlines()[1:]] == ["0.0001", "0.0001"]


@pytest.mark.parametrize("where", ["flags", "config"])
def test_t_and_t_ladder_at_one_level_exit_2(tmp_path, capsys, where):
    if where == "flags":
        argv = ["estimate", "--t", "1e-4", "--t-ladder", "1e-2"]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("t = 1e-4\nt-ladder = 1e-2\n")
        argv = ["estimate", "--config", str(cfgfile)]
    assert main([*argv, "--paths", "64"]) == 2
    assert capsys.readouterr().err == "configuration error: give --t or --t-ladder, not both\n"


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    out = tmp_path / "pred.csv"
    assert main(["predict", "--exponent", "stable:0.5", "--out", str(out)]) == 0
    assert out.read_text().startswith("quantity,theorem_tag,rate,constant")
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------- exit codes


def test_exit_2_on_malformed_exponent(capsys):
    assert main(["predict", "--exponent", "stable:1.5"]) == 2
    assert main(["predict", "--exponent", "sideways:0.5"]) == 2
    capsys.readouterr()


def test_exit_2_on_missing_t(capsys):
    assert main(["estimate", "--exponent", "stable:0.5"]) == 2
    capsys.readouterr()


def test_exit_2_on_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["estimate", "--exponent", "tempered:0.75,1", "--t", "inf"], "t must be positive and finite"),
        (["estimate", "--t-ladder", "inf,1e-3"], "t must be positive and finite"),
        (["estimate", "--t", "1e-3", "--paths", "4096", "--workers", "0"], "workers must be at least 1"),
        (
            ["estimate", "--exponent", "tempered:0.75,inf", "--t", "1e-3", "--paths", "64"],
            "tempering rate must be positive and finite",
        ),
        (
            ["estimate", "--exponent", "mixed:0.25*inf+0.5", "--t", "1e-3", "--paths", "64"],
            "mixed weight must be positive and finite",
        ),
        (["predict", "--exponent", "tempered:0.5,inf"], "tempering rate must be positive and finite"),
        (["predict", "--domain", "interval:0,inf"], "interval needs a < b at finite distance"),
        (["predict", "--domain", "interval:-1e308,1e308"], "interval needs a < b at finite distance"),
        (["predict", "--domain", "disk:inf"], "radius must be positive and finite"),
        (
            ["estimate", "--exponent", "mixed:0.25*1e308+0.5", "--t", "1e-3", "--paths", "64"],
            "above the 1e300 cap of plain clock draws",
        ),
        (["verify", "--suite", "expansion-identity", "--workers", "0"], "workers must be at least 1"),
        (["verify", "--suite", "moment-suite", "--quick", "--workers", "-3"], "workers must be at least 1"),
        (["verify", "--suite", "expansion-identity", "--tolerance", "nan"], "tolerance must be"),
        (["verify", "--suite", "expansion-identity", "--tolerance", "0"], "tolerance must be"),
        (["estimate", "--exponent", "stable:0.75", "--t", "1e-320", "--paths", "64"], "and the rate t^(0.666667) finite"),
        (["estimate", "--t", "1e-3", "--domain", "interval:0,1e-300", "--paths", "64"], "interval length must lie in"),
        (["estimate", "--t", "1e-3", "--domain", "disk:1e200", "--paths", "64"], "disk radius must lie in"),
        (["estimate", "--t", "2e4", "--paths", "64"], "and the rate t*log(1/t) finite and positive"),
        # a flag's value is read by the same parser as a config file's
        (["estimate", "--t-ladder", "1e-8,1e-6"], "t-ladder must be strictly decreasing"),
        (["estimate", "--exponent", "stable:1e-300", "--t", "1e-3"], "clock scale t^(1/b) = e^-6.90776e+300 must"),
    ],
    ids=[
        "t-inf", "ladder-inf", "workers-0", "tempering-inf", "weight-inf", "predict-tempering-inf",
        "interval-inf", "interval-overflow", "disk-inf", "weight-overflow", "verify-workers-0", "verify-workers-negative",
        "tolerance-nan", "tolerance-zero", "t-subnormal", "interval-tiny", "disk-huge",
        "rate-negative", "ladder-increasing", "is-clock-scale-overflow",
    ],
)
def test_exit_2_on_infinite_t_or_no_workers(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err
    # one short line, however far out of range the input is
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) <= 300


def test_clock_scale_below_double_range_answers(capsys):
    # t^(1/b) = 1e-400 at stable:0.25, t = 1e-100: the proposal is formed in
    # logs, so the deficit, about C t by the low-index limit, is estimated
    argv = ["estimate", "--exponent", "stable:0.25", "--t", "1e-100", "--paths", "65536", "--format", "json"]
    assert main(argv) == 0
    spectral = json.loads(capsys.readouterr().out)[0]
    limit = predict_spectral(Stable(0.25), Interval(0.0, 1.0), Kind.SUBORDINATOR)
    assert abs(spectral["ratio"] - limit.constant) <= 4.0 * spectral["stderr"] / 1e-100


def test_tiny_index_row_on_plain_draws_answers(capsys):
    # past the tilt bound t theta^b = b/3 this row draws its clock plainly, so
    # the importance proposal's range, which t^(1/b) = e^-743 leaves, does
    # not apply
    argv = ["estimate", "--exponent", "tempered:0.0078125,1", "--t", "3e-3", "--paths", "65536", "--format", "json"]
    assert main(argv) == 0
    spectral = json.loads(capsys.readouterr().out)[0]
    deficit, tail = subordinate_deficit_series(Interval(0.0, 1.0), TemperedStable(0.0078125, 1.0), 3e-3)
    assert abs(spectral["value"] - (1.0 - deficit)) <= 4.0 * spectral["stderr"] + tail


def test_ratio_reads_a_deficit_far_below_the_volume(capsys):
    # the deficit at t = 1e-200 is about 1e-50 of |Omega|, so the content is
    # 1 to the last bit and the ratio must come from the deficit itself
    argv = ["estimate", "--time-change", "inv", "--exponent", "stable:0.5", "--t", "1e-200"]
    assert main([*argv, "--paths", "64", "--format", "json"]) == 0
    spectral = json.loads(capsys.readouterr().out)[0]
    target = 2.0 / math.gamma(1.25)
    assert abs(spectral["ratio"] - target) <= 4.0 * spectral["stderr"] / spectral["rate_value"]


def test_tiny_t_tempered_inverse_answers_in_bounded_time(capsys):
    # a grid walk at the default step t * 1e-3 would need about 1e9 steps to
    # cross t = 1e-12; the duality estimator draws one D_u per path instead
    argv = ["estimate", "--time-change", "inv", "--exponent", "tempered:0.5,1", "--paths", "64"]
    start = time.perf_counter()
    assert main([*argv, "--t", "1e-12", "--format", "json"]) == 0
    assert time.perf_counter() - start < 5.0
    spectral = json.loads(capsys.readouterr().out)[0]
    target = 2.0 / math.gamma(1.25)
    tol = max(4.0 * spectral["stderr"] / spectral["rate_value"], 0.02 * target)
    assert abs(spectral["ratio"] - target) <= tol
    code = main([*argv, "--t", "1e-300", "--format", "json"])
    captured = capsys.readouterr()
    if code == 0:
        assert all(math.isfinite(row["ratio"]) for row in json.loads(captured.out))
    else:
        assert code == 2 and "t = 1e-300" in captured.err


def test_tiny_t_tempered_inverse_on_the_disk_answers_in_bounded_time(capsys):
    # the disk takes the duality estimator too, scored with the disk oracle's
    # rate, instead of a grid walk of about 1e9 steps
    from subheat import Disk, TemperedStable, predict_spectral

    argv = ["estimate", "--domain", "disk:1", "--time-change", "inv", "--exponent", "tempered:0.5,1"]
    start = time.perf_counter()
    assert main([*argv, "--t", "1e-12", "--paths", "64", "--format", "json"]) == 0
    assert time.perf_counter() - start < 5.0
    (spectral,) = json.loads(capsys.readouterr().out)
    target = predict_spectral(TemperedStable(0.5, 1.0), Disk(1.0), Kind.INVERSE).constant
    assert abs(spectral["ratio"] - target) <= max(4.0 * spectral["stderr"] / spectral["rate_value"], 0.02 * target)


def test_rate_value_inverts_phi_on_stiff_mixed_ladder(capsys):
    # rate_value is [phi_inverse(1/t)]^(-1/2); the 0.05 component stretches
    # phi_inverse's bracket about 130 decades past the root at t = 1e-8
    from subheat import parse_exponent, phi

    argv = ["estimate", "--exponent", "mixed:0.05*10+0.9", "--t-ladder", "1e-4,1e-8"]
    assert main([*argv, "--paths", "256", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    exp = parse_exponent("mixed:0.05*10+0.9")
    for row in rows:
        assert abs(phi(exp, row["rate_value"] ** -2.0) * row["t"] - 1.0) <= 1e-10


def test_estimate_reads_the_rate_without_a_constant(capsys, monkeypatch):
    # the rate is the clock's alone; predict still exits 3 on these inputs
    # (test_exit_3_on_unsupported_configuration), since no constant exists
    monkeypatch.delenv("SUBHEAT_SEED", raising=False)
    argv = ["estimate", "--exponent", "stable:0.25", "--domain", "disk:1", "--t", "1e-4", "--paths", "4096"]
    assert main([*argv, "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["quantity"] == "spectral" and row["rate_value"] == 1e-4
    spec = TimeChangeSpec(Stable(0.25), Kind.SUBORDINATOR)
    assert row["value"] == estimate(spec, Disk(1.0), 1e-4, 4096, RandomStream(0)).value
    assert main(["estimate", "--exponent", "tempered:0.5,1", "--t", "1e-4", "--paths", "4096"]) == 0
    capsys.readouterr()
    assert main(["predict", "--exponent", "tempered:0.5,1"]) == 3
    assert "critical-regime limit requires" in capsys.readouterr().err


def test_lowindex_estimate_skips_the_constant_quadrature():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys\n"
        "from subheat.cli import main\n"
        "code = main(['estimate', '--exponent', 'stable:0.25', '--t', '1e-4', '--paths', '64'])\n"
        "print(code, 'scipy.integrate' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60.0)
    assert done.stdout.decode().splitlines()[-1] == "0 False", done.stderr.decode()


def test_importance_sampled_estimate_skips_scipy_stats():
    # the scrambled nets come from checked-in direction numbers: importing
    # scipy.stats for its Sobol generator alone adds about 0.5 s to start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys\n"
        "from subheat.cli import main\n"
        "code = main(['estimate', '--exponent', 'mixed:0.25*1+0.5*1', '--t', '1e-6', '--paths', '64'])\n"
        "print(code, 'scipy.stats' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60.0)
    assert done.stdout.decode().splitlines()[-1] == "0 False", done.stderr.decode()


@pytest.mark.parametrize("seed", range(10))
def test_critical_ladder_falls_at_quick_path_counts(seed, capsys):
    # the exact ratios fall by about 1% a rung (1.3238, 1.3111 and 1.3036
    # at 1e-6, 1e-8 and 1e-10), and critical-monotone asks that the
    # estimates fall too, with no allowance for their stderr
    assert main(["verify", "--suite", "critical-limit", "--quick", "--seed", str(seed)]) == 0
    checks = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    assert {c["name"]: c["passed"] for c in checks} == {"critical-monotone": True, "critical-final": True}


def test_exit_3_on_unsupported_configuration(capsys):
    code = main(["predict", "--exponent", "stable:0.25", "--domain", "disk:1"])
    assert code == 3
    assert "unsupported configuration" in capsys.readouterr().err


def test_exit_4_on_runaway_sampler(monkeypatch, capsys):
    def boom(cfg):
        raise RunawaySamplerError("stub crossing took too long")

    monkeypatch.setitem(_SUITES, "boom", boom)
    assert main(["verify", "--suite", "boom"]) == 4
    assert "runaway sampler" in capsys.readouterr().err


def test_exit_1_on_failing_suite(monkeypatch, tmp_path):
    def failing(cfg):
        return [("stub", LadderReport((), 1.0, 2.0, 0.1, False))]

    monkeypatch.setitem(_SUITES, "stub-fail", failing)
    code, text = _run_main(["verify", "--suite", "stub-fail"], tmp_path, "v.json")
    assert code == 1
    payload = json.loads(text)
    assert payload["passed"] is False
    assert payload["suites"][0]["checks"][0]["passed"] is False


# ----------------------------------------------------------------- suites


def test_suite_alias_table():
    assert _SUITE_ALIASES == {
        "thm-3.6": "highindex-limit",
        "prop-3.8": "critical-limit",
        "thm-3.13": "lowindex-limit",
        "thm-3.10": "mixed-critical-limit",
        "thm-4.3": "inverse-limit",
        "thm-4.4": "expansion-identity",
        "eq-3.6": "moment-suite",
        "prop-4.2": "moment-suite",
        "prop-3.12": "levy-convergence",
    }
    assert set(_SUITE_ALIASES.values()) <= set(_SUITES)


def test_run_suite_accepts_alias():
    checks = run_suite("thm-4.4", RunConfig(quick=True))
    assert len(checks) == 1
    name, report = checks[0]
    assert name == "expansion-identity"
    assert report.passed


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("thm-9.9", RunConfig())


def test_verify_alias_runs_inverse_suite(tmp_path):
    code, text = _run_main(
        ["verify", "--suite", "thm-4.3", "--quick", "--seed", "7"], tmp_path, "v.json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["quick"] is True
    assert payload["seed"] == 7
    assert payload["suites"][0]["suite"] == "inverse-limit"
    names = [c["name"] for c in payload["suites"][0]["checks"]]
    assert names == [
        "inverse-spectral-b0.25",
        "inverse-regular-b0.25",
        "inverse-spectral-b0.5",
        "inverse-regular-b0.5",
        "inverse-spectral-b0.75",
        "inverse-regular-b0.75",
    ]


def test_verify_json_shape_on_pure_identity_suite(tmp_path):
    code, text = _run_main(["verify", "--suite", "expansion-identity"], tmp_path, "v.json")
    assert code == 0
    payload = json.loads(text)
    assert set(payload) == {"passed", "seed", "quick", "suites"}
    entry = payload["suites"][0]
    assert set(entry) == {
        "suite", "passed", "runtime_s", "target", "achieved", "tolerance", "checks",
    }
    assert entry["achieved"] <= 1e-12


def test_suite_registry_is_complete():
    assert list(_SUITES) == [
        "highindex-limit",
        "critical-limit",
        "lowindex-limit",
        "mixed-critical-limit",
        "inverse-limit",
        "inverse-universality",
        "expansion-identity",
        "moment-suite",
        "levy-convergence",
        "small-ball",
        "oracle-integrity",
        "determinism",
    ]


# ------------------------------------------------------------ limit checks


def test_lowindex_suite_is_precise_in_one_estimate(monkeypatch):
    # the suite's one estimate at 200,000 paths is already within a stderr of
    # 0.005 of its deficit on these seeds (worst 2.2e-3), so more paths would
    # change no verdict
    seen = []

    def recording(*args, **kwargs):
        seen.append(estimate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "estimate", recording)
    for seed in range(20):
        run_suite("lowindex-limit", RunConfig(seed=seed, quick=True))
    assert len(seen) == 20
    assert all(e.n_paths == 200_000 and e.stderr <= 0.005 * e.deficit for e in seen)


# inverse-universality reads --tolerance through the same check, but its grid
# walk takes about 19 s at --quick, so it is left out here
@pytest.mark.parametrize(
    "suite", ["highindex-limit", "critical-limit", "lowindex-limit", "mixed-critical-limit", "inverse-limit"]
)
def test_tolerance_reaches_every_limit_check(suite, capsys):
    main(["verify", "--suite", suite, "--quick", "--tolerance", "0.5"])
    checks = json.loads(capsys.readouterr().out)["suites"][0]["checks"]
    banded = [c for c in checks if not c["name"].endswith("-monotone")]
    assert banded
    assert all(c["tolerance"] >= 0.5 * abs(c["target"]) for c in banded)


# --------------------------------------------------------- grammar property

_CASE_BUDGET_S = 10.0


class _OverBudget(Exception):
    pass


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


_BETAS = st.floats(1e-3, 0.999)
_EXPONENTS = st.one_of(
    _BETAS.map(lambda b: f"stable:{b!r}"),
    st.tuples(_BETAS, _log_uniform(1e-300, 1e3)).map(lambda p: f"tempered:{p[0]!r},{p[1]!r}"),
    st.lists(st.tuples(_BETAS, _log_uniform(1e-2, 1e2)), min_size=1, max_size=3, unique_by=lambda c: c[0]).map(
        lambda cs: "mixed:" + "+".join(f"{b!r}*{w!r}" for b, w in sorted(cs))
    ),
)
_DOMAINS = st.one_of(
    _log_uniform(1e-2, 1e2).map(lambda L: f"interval:0,{L!r}"),
    _log_uniform(1e-2, 1e2).map(lambda R: f"disk:{R!r}"),
)


def _numbers(text, fmt):
    if fmt == "json":
        return [v for row in json.loads(text) for v in row.values() if isinstance(v, float)]
    out = []
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                out.append(float(field))
            except ValueError:
                pass
    return out


def _alarm(signum, frame):
    raise _OverBudget


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    exponent=_EXPONENTS,
    domain=_DOMAINS,
    kind=st.sampled_from(["sub", "inv"]),
    t=_log_uniform(1e-12, 10.0),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_every_grammar_input_answers_or_exits_with_its_code(exponent, domain, kind, t, fmt):
    # t stops at 10: plain tempered draws cost grows like t theta^b, which
    # the strict xfail below keeps in view
    common = ["--exponent", exponent, "--domain", domain, "--time-change", kind, "--format", fmt]
    for argv in (["predict", *common], ["estimate", *common, "--t", repr(t), "--paths", "64"]):
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, _CASE_BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except _OverBudget:
            pytest.fail(f"{' '.join(argv)} ran past {_CASE_BUDGET_S} s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if code == 0:
            values = _numbers(out.getvalue(), fmt)
            assert values and all(math.isfinite(v) for v in values), (argv, out.getvalue())
        else:
            assert err.getvalue(), argv


@pytest.mark.xfail(strict=True, reason="a known hang and a slow case, kept visible until the samplers are mended")
@pytest.mark.parametrize(
    "argv",
    [
        # plain tempered draws loop ceil(t theta^b) chunks in Python
        ["--exponent", "tempered:0.75,1", "--t", "1e6"],
        # past the duality regime the grid walk at b = 2^-7 has finite
        # increments and crosses t, but it takes 6.6 to 7.8 s, over the
        # budget: a slow case now, not a hang
        ["--exponent", "tempered:0.0078125,1", "--time-change", "inv", "--t", "1"],
    ],
    ids=["tempered-large-t", "tempered-small-index-walk"],
)
def test_estimate_answers_in_bounded_time(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-m", "subheat.cli", "estimate", *argv, "--paths", "64"]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=5.0)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{' '.join(argv)} ran past 5 s")
    assert done.returncode == 0


def test_tempered_draw_with_absurd_chunk_count_exits_4_quickly():
    # t theta^b = 1e147 chunks of tilt rejection would never finish; past
    # the step guard the draw is refused instead, as the grid walk is
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["--exponent", "tempered:0.5,1e300", "--t", "1e-3", "--paths", "64"]
    cmd = [sys.executable, "-m", "subheat.cli", "estimate", *argv]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, timeout=5.0)
    except subprocess.TimeoutExpired:
        pytest.fail("tempered:0.5,1e300 ran past 5 s")
    assert done.returncode == 4, done.stderr.decode()
    assert b"runaway sampler" in done.stderr


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the pool needs two CPUs")
def test_estimate_with_workers_exits_and_leaves_no_process():
    # the command and its pool's workers run in a session of their own; the
    # output pipes close only when every one of them has exited, and after
    # that no process may be left in the group
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-m", "subheat.cli", "estimate", "--t", "1e-3", "--paths", "65536", "--workers", "2"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60.0)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("estimate --workers 2 ran past 60 s")
    assert proc.returncode == 0, err.decode()
    assert out.decode().splitlines()[1].startswith("0.001,spectral,"), out.decode()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a process of the command outlived it")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(exponent=_EXPONENTS, domain=_DOMAINS, t=_log_uniform(1e-12, 10.0))
def test_every_subordinator_row_under_the_scale_rule_is_weighted(exponent, domain, t):
    # one route below the scale rule, for both quantities at every index;
    # and every row whose clock scales lie within double range answers
    from subheat.estimators import _IS_SCALE, _IS_TILT, _clock_kernel, _tilt_rate

    exp, dom = parse_exponent(exponent), parse_domain(domain)
    spec, u_cap = TimeChangeSpec(exp, Kind.SUBORDINATOR), dom.saturation_clock
    under = t * sum(w * u_cap**-b for b, w in exp.components) <= _IS_SCALE
    under = under and t * _tilt_rate(exp) <= exp.components[0][0] / _IS_TILT
    in_range = all(abs(math.log(w * t) / b) <= math.log(1e300) for b, w in exp.components)
    for quantity in dom.ORACLES:
        if in_range:
            kernel = _clock_kernel(spec, dom, t, quantity)[0]
            assert (kernel.__name__ == "_deficit_is_draws") is under, (exponent, domain, t, quantity)
            est = estimate(spec, dom, t, 64, RandomStream(0), quantity)
            assert math.isfinite(est.value) and math.isfinite(est.stderr)
