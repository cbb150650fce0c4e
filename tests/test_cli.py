import json
import os
import subprocess
import sys
from functools import cached_property

import pytest

from contactmono import cli, pseudohermitian
from contactmono.cli import INPUT_ERRORS, main, parse_config, run
from contactmono.errors import ConfigError


def test_parse_config_minimal():
    cfg = parse_config({"command": "derive", "model": "round-s3"})
    assert cfg.command == "derive"
    assert cfg.backend == "invariant"
    assert cfg.seed == 0


def test_parse_config_sweep_valid():
    cfg = parse_config(
        {"command": "sweep", "model": "heisenberg", "eps_list": ["1/2", "1/4"]}
    )
    assert [str(e) for e in cfg.eps_list] == ["1/2", "1/4"]


def test_parse_config_rejects_increasing_eps():
    with pytest.raises(ConfigError):
        parse_config({"command": "sweep", "eps_list": ["1/4", "1/2"]})


def test_parse_config_rejects_odd_grid_and_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"command": "solve", "backend": "heis-grid", "N": 7})
    # at N = 2 every frame stencil vanishes (HeisGridBackend)
    for n in (-2, 0, 2):
        with pytest.raises(ConfigError, match="even and at least 4"):
            parse_config({"command": "solve", "backend": "heis-grid", "N": n})
    assert parse_config({"command": "solve", "backend": "heis-grid", "N": 4}).N == 4
    with pytest.raises(ConfigError):
        parse_config({"command": "derive", "frobnicate": 1})
    with pytest.raises(ConfigError):
        parse_config({"command": "fly"})


def test_run_derive_torsion(tmp_path):
    out = tmp_path / "report.json"
    cfg = parse_config(
        {"command": "derive", "model": "torsion", "output": str(out)}
    )
    code, report = run(cfg)
    assert code == 0
    body = report["result"]
    assert body["A"] == ["0", "-2"]
    assert body["W"] == "0"
    assert json.loads(out.read_text())["result"]["A"] == ["0", "-2"]


def test_run_derive_inline_model():
    cfg = parse_config(
        {"command": "derive", "model": {"name": "custom", "p": "1/2", "q": "1/2"}}
    )
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["W"] == "1"
    assert report["result"]["omega"]["e0"] == "-1"


def test_run_check_catalog():
    for name in ("heisenberg", "round-s3", "torsion"):
        code, report = run(parse_config({"command": "check", "model": name}))
        assert code == 0, report
        assert report["result"]["all_asserted_pass"]
        # the metric-connection comparison is a diagnostic and fails by design
        hm = report["result"]["suites"]["compat_levicivita_hmetric"]
        assert not hm["asserted"]
        assert not hm["pass"]


def test_each_command_derives_the_invariants_once(monkeypatch):
    # the command derives and passes the invariants down; the check command's
    # metric connection never evaluates its scalar curvature
    calls = {"derive": 0, "scalar": 0}
    derive, scalar = cli.derive_ph_invariants, pseudohermitian.RiemannData.scalar.func

    def counting_derive(m):
        calls["derive"] += 1
        return derive(m)

    def counting_scalar(rd):
        calls["scalar"] += 1
        return scalar(rd)

    counted = cached_property(counting_scalar)
    counted.__set_name__(pseudohermitian.RiemannData, "scalar")
    monkeypatch.setattr(cli, "derive_ph_invariants", counting_derive)
    monkeypatch.setattr(pseudohermitian.RiemannData, "scalar", counted)
    for command, scalars in (("derive", 1), ("curvature", 1), ("check", 0)):
        calls.update(derive=0, scalar=0)
        code, _ = run(parse_config({"command": command, "model": "round-s3"}))
        assert code == 0
        assert calls == {"derive": 1, "scalar": scalars}, command


def test_run_solve_certificate_exit_codes():
    cfg = parse_config(
        {
            "command": "solve",
            "model": "round-s3",
            "constraint": True,
            "seeds": 2,
        }
    )
    code, report = run(cfg)
    assert code == 0
    runs = report["result"]["runs"]
    assert all(r["certificate"]["verdict"] == "consistent-with-vanishing" for r in runs)


def test_run_curvature():
    code, report = run(
        parse_config({"command": "curvature", "model": "round-s3", "eps": "1"})
    )
    assert code == 0
    body = report["result"]
    assert body["R_scalar"] == "6"
    assert body["connection_forms"]["omega_12"]["e0"] == "-1"


def test_sweep_report_and_csv(tmp_path):
    out = tmp_path / "sweep.json"
    cfg = parse_config(
        {
            "command": "sweep",
            "model": "heisenberg",
            "eps_list": ["1/2", "1/4", "1/8"],
            "output": str(out),
        }
    )
    code, report = run(cfg)
    recs = report["result"]["records"]
    assert len(recs) == 3
    assert recs[-1]["residual_limit"] is not None
    csv_text = (tmp_path / "sweep.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "eps,sup_phi_sq,norm_T_deriv_sq,norm_Xi_deriv_sq,cross_term,residual_limit"
    )
    assert len(csv_text.splitlines()) == 4


def test_reports_are_byte_identical():
    cfg1 = parse_config({"command": "solve", "model": "heisenberg", "seeds": 3, "seed": 7})
    cfg2 = parse_config({"command": "solve", "model": "heisenberg", "seeds": 3, "seed": 7})
    _, rep1 = run(cfg1)
    _, rep2 = run(cfg2)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_main_cli_roundtrip(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["derive", "--model", "round-s3", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["result"]["W"] == "2"
    code = main(["check", "--model", "torsion", "--output", str(tmp_path / "c.json")])
    assert code == 0
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"name": "custom", "p": "1/2", "q": "1/2"}))
    assert main(["derive", "--model", str(model), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["W"] == "1"


def test_run_solve_grid():
    cfg = parse_config(
        {
            "command": "solve",
            "model": "heisenberg",
            "backend": "heis-grid",
            "N": 8,
            "seed": 1,
        }
    )
    code, report = run(cfg)
    assert code == 0
    r = report["result"]["runs"][0]
    assert r["converged"]
    assert r["residuals"]["total"] <= 1e-6


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"model": "heisenberg", "seed": 5, "eps": "1/2"})
    )
    out = tmp_path / "out.json"
    code = main(
        [
            "derive",
            "--config",
            str(cfg_file),
            "--model",
            "round-s3",  # overrides the file
            "--output",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["model"] == "round-s3"
    assert data["config"]["seed"] == 5
    assert data["result"]["eps"] == "1/2"


def test_parse_config_accepts_threads_one_only():
    cfg = parse_config({"command": "derive", "threads": 1})
    assert "threads" not in cfg.effective()
    with pytest.raises(ConfigError):
        parse_config({"command": "derive", "threads": 2})


def _one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("contactmono: error: ") and err.count("\n") == 1, err
    assert fragment in err


def _unreachable(*args, **kwargs):
    raise AssertionError("the computation ran before the output was checked")


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_output_fails_before_the_computation(command, monkeypatch, tmp_path, capsys):
    # a bad path costs no solve: a grid batch or sweep would lose it all
    monkeypatch.setattr(cli, "solve", _unreachable)
    monkeypatch.setattr(cli, "sweep", _unreachable)
    argv = [command, "--backend", "heis-grid", "--N", "8"]
    argv += ["--seeds", "3"] if command == "solve" else ["--eps-list", "1/2,1/4"]
    assert main(argv + ["--output", "/no/such/dir/r.json"]) == 3
    _one_line_error(capsys, "cannot write report")
    if command == "sweep":
        # the CSV table beside the report cannot be written: no report either
        (tmp_path / "r.csv").mkdir()
        assert main(argv + ["--output", str(tmp_path / "r.json")]) == 3
        _one_line_error(capsys, "cannot write report")
        assert not (tmp_path / "r.json").exists()


def test_solve_says_why_a_run_did_not_converge(tmp_path, capsys):
    # the eps = 1/4 Heisenberg solves with the Reeb rows from seeds 1 and 2
    # stall; seed 0 converges.  One stderr line per failed run, and the
    # report is the one written without them
    out = tmp_path / "r.json"
    argv = ["solve", "--eps", "1/4", "--reeb-constraint", "--seeds", "3"]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "contactmono: seed 1 did not converge: line-search-stalled",
        "contactmono: seed 2 did not converge: line-search-stalled",
    ]
    report = json.loads(out.read_text())
    assert [r["converged"] for r in report["result"]["runs"]] == [True, False, False]
    assert "stop_reason" not in out.read_text()


@pytest.mark.parametrize(
    "seed, lines",
    [
        (25, ["eps 1/2 did not converge: line-search-stalled",
              "eps 1/4 did not converge: line-search-stalled"]),
        (45, ["eps 1/2 did not converge: max-iter"]),
    ],
)
def test_sweep_says_which_rung_did_not_converge(tmp_path, capsys, seed, lines):
    # the invariant Heisenberg sweeps from seeds 25 and 45 exit 2: one
    # stderr line per unconverged rung, and the report keeps its bytes
    out = tmp_path / "r.json"
    argv = ["sweep", "--eps-list", "1/2,1/4,1/8,1/16,1/32,1/64", "--seed", str(seed)]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"contactmono: seed {seed} {line}" for line in lines
    ]
    records = json.loads(out.read_text())["result"]["records"]
    assert sum(not r["converged"] for r in records) == len(lines)
    assert "stop_reason" not in out.read_text()


# gen(p, 1) with p = 10^400: the exact model is fine, its float lowering is not
HUGE_P = '{"name": "g", "p": "1e400", "q": "1"}'


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["solve", "--model", "torsion", "--eps", "1/2"], "zero torsion"),
        (["solve", "--model", "round-s3", "--backend", "heis-grid", "--N", "8"], "Heisenberg"),
        (["derive", "--model", '{"c_0_12": "1"}'], "de^0 must equal"),
        (["derive", "--model", '{"c_0_12": "2", "c_1_01": "1"}'], "d(de^0) != 0"),
        (["derive", "--model", "{bad"], "cannot read model"),
        (["derive", "--eps", "abc"], "cannot read eps"),
        (["solve", "--seeds", "0"], "seeds must be at least 1"),
        (["solve", "--seeds", "-2"], "seeds must be at least 1"),
        (["solve", "--seed", "-1"], "seed must be non-negative"),
        (["sweep", "--seed", "-1"], "seed must be non-negative"),
        (["derive", "--model", HUGE_P], "c^1_02 does not fit a float"),
        (["solve", "--model", HUGE_P], "c^1_02 does not fit a float"),
        (["solve", "--eps", "1e-400"], "eps does not lower to a positive finite float"),
        (["solve", "--eps", "1e400"], "eps does not lower to a positive finite float"),
        (["sweep", "--eps-list", "1/2,1e-400"], "eps_list entry 1 does not lower"),
        (["sweep"], "sweep requires eps_list"),
        (["derive", "--model", "no/such.json"], "unknown model"),
        (["derive", "--eps=-1/2"], "eps must be positive"),
        (["sweep", "--eps-list", "1/2,-1/4"], "entries must be positive"),
        (["derive", "--model", os.path.dirname(__file__)], "cannot read model"),
        (["derive", "--output", "/no/such/dir/r.json"], "cannot write report"),
        (["solve", "--backend", "heis-grid", "--N", "2"], "N must be even and at least 4"),
    ],
)
def test_main_bad_input_exits_3(argv, fragment, capsys):
    assert main(argv) == 3
    _one_line_error(capsys, fragment)


def test_sweep_output_ending_in_csv_exits_3(tmp_path, capsys):
    # the table is written to the output path with the suffix .csv, so it
    # would overwrite a report whose path already ends in .csv
    out = tmp_path / "r.csv"
    assert main(["sweep", "--eps-list", "1/2", "--output", str(out)]) == 3
    _one_line_error(capsys, "overwritten by its CSV table")
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"command": "solve", "constraint": "false"}, "constraint"),
        ({"command": "solve", "constraint": 1}, "constraint"),
        ({"command": "solve", "backend": "heis-grid", "N": 8.5}, "N"),
        ({"command": "solve", "backend": "heis-grid", "N": True}, "N"),
        ({"command": "solve", "seed": 1.9}, "seed"),
        ({"command": "solve", "seed": True}, "seed"),
        ({"command": "solve", "seeds": "3"}, "seeds"),
        ({"command": "derive", "output": 7}, "output"),
        ({"command": "derive", "output": True}, "output"),
        ({"command": "solve", "backend": ["heis-grid"]}, "backend"),
        ({"command": "solve", "eps": True}, "eps"),
        ({"command": "sweep", "eps_list": [True, "1/2"]}, "eps_list"),
        ({"command": "sweep", "eps_list": "21"}, "eps_list"),
        ({"command": "derive", "threads": True}, "threads"),
        ({"command": "derive", "model": {"c_0_12": True}}, "model"),
        ({"command": "solve", "backend": "bogus"}, "backend"),
    ],
)
def test_main_config_value_of_wrong_type_exits_3(doc, key, tmp_path, capsys):
    # a key takes its JSON type only: nothing is cast, and a bool is no number
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert main([doc["command"], "--config", str(cfg_file)]) == 3
    _one_line_error(capsys, key)


@pytest.mark.parametrize("command", ["derive", "curvature"])
def test_exact_commands_take_eps_below_float_range(command, tmp_path):
    # only solve and sweep lower eps to a float
    out = tmp_path / "r.json"
    assert main([command, "--eps", "1e-400", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["eps"] == "1/1" + "0" * 400


def test_main_bad_config_file_exits_3(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"threads": 2}))
    assert main(["solve", "--config", str(cfg_file)]) == 3
    _one_line_error(capsys, "threads")
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 3
    _one_line_error(capsys, "missing.json")


@pytest.mark.parametrize("key", ["tolerances", "checkpoint"])
def test_main_tolerances_key_exits_3(key, tmp_path, capsys):
    # the certificate bounds are fixed and no command writes grid states; a
    # config may set neither
    value = {"tolerances": {"phi_sup": 1e-6}, "checkpoint": "state"}[key]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    assert main(["solve", "--config", str(cfg_file)]) == 3
    _one_line_error(capsys, f"'{key}'")


@pytest.mark.parametrize("error", INPUT_ERRORS)
def test_main_maps_each_input_error_to_exit_3(error, monkeypatch, capsys):
    def fail(cfg):
        raise error("bad input")

    monkeypatch.setattr(cli, "run", fail)
    assert main(["derive"]) == 3
    _one_line_error(capsys, "bad input")


def test_main_reports_running_out_of_memory(monkeypatch, capsys):
    # a grid too large to allocate gets one line and the input-error exit;
    # the backend raises at once, as numpy does for an array of petabytes
    def too_large(cfg, m):
        raise MemoryError("Unable to allocate 7.28 PiB for an array")

    monkeypatch.setattr(cli, "_backend", too_large)
    assert main(["solve", "--backend", "heis-grid", "--N", "100000"]) == 3
    _one_line_error(capsys, "contactmono: error: out of memory: Unable to allocate")


@pytest.mark.parametrize(
    "argv", [["solve", "--threads", "2"], ["fly"], ["solve", "--N", "eight"]]
)
def test_main_usage_errors_exit_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "contactmono" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, key, value",
    [
        (["derive", "--model", "round-s3"], "model", "round-s3"),
        (["derive", "--output", "r.json"], "output", "r.json"),
        (["derive", "--seed", "4"], "seed", 4),
        (["solve", "--eps", "1/2"], "eps", "1/2"),
        (["sweep", "--eps-list", "1/2, 1/4"], "eps_list", ["1/2", "1/4"]),
        (["solve", "--backend", "heis-grid"], "backend", "heis-grid"),
        (["solve", "--N", "8"], "N", 8),
        (["solve", "--seeds", "3"], "seeds", 3),
        (["solve", "--reeb-constraint"], "constraint", True),
    ],
)
def test_each_flag_sets_its_config_key(flags, key, value):
    args = cli.build_parser().parse_args(flags)
    by_flag = parse_config(cli._flags_over_config(args)).effective()
    assert by_flag == parse_config({"command": flags[0], key: value}).effective()
    assert by_flag != parse_config({"command": flags[0]}).effective()


def test_main_identifies_heisenberg_by_structure(tmp_path):
    # a round-s3 structure under the name "heisenberg" gets no family check
    out = tmp_path / "r.json"
    model = '{"name": "heisenberg", "p": "1", "q": "1"}'
    assert main(["solve", "--model", model, "--output", str(out)]) == 0
    run_report = json.loads(out.read_text())["result"]["runs"][0]
    assert "family_membership" not in run_report
    assert run_report["certificate"]["verdict"] == "consistent-with-vanishing"


@pytest.mark.parametrize(
    "flags, doc",
    [
        (
            ["solve", "--model", "round-s3", "--seed", "3", "--seeds", "2", "--reeb-constraint"],
            {"model": "round-s3", "seed": 3, "seeds": 2, "constraint": True},
        ),
        (
            ["solve", "--model", "heisenberg", "--backend", "heis-grid", "--N", "8", "--eps", "1/2"],
            {"model": "heisenberg", "backend": "heis-grid", "N": 8, "eps": "1/2"},
        ),
        (
            ["sweep", "--model", "heisenberg", "--eps-list", "1/2,1/4,1/8", "--seed", "1"],
            {"model": "heisenberg", "eps_list": ["1/2", "1/4", "1/8"], "seed": 1},
        ),
    ],
)
def test_report_independent_of_invocation_path(flags, doc, tmp_path):
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert main([*flags, "--output", str(by_flags)]) == 0
    assert main([flags[0], "--config", str(cfg_file), "--output", str(by_config)]) == 0
    reports = [json.loads(p.read_text()) for p in (by_flags, by_config)]
    results = [json.dumps(r["result"], sort_keys=True, indent=2) for r in reports]
    assert results[0] == results[1]
    configs = [dict(r["config"], output=None) for r in reports]
    assert configs[0] == configs[1]


LOADED_AFTER = """
import sys
from contactmono.cli import main
for argv in sys.argv[1:]:
    main(argv.split())
print(sorted(m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argvs, loaded",
    [
        (["check --model round-s3"], []),
        (
            [
                "solve --model round-s3 --seeds 2 --reeb-constraint",
                "sweep --model heisenberg --eps-list 1/2,1/4",
            ],
            [],
        ),
        (
            ["solve --model heisenberg --backend heis-grid --N 8"],
            ["scipy.sparse", "scipy.sparse.linalg"],
        ),
    ],
    ids=["exact", "invariant", "grid"],
)
def test_scipy_sparse_loads_for_grid_solves_only(argvs, loaded, tmp_path):
    # scipy.sparse is about half the memory of a process that imports
    # contactmono; the exact commands and the invariant sector never need it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argvs = [f"{argv} --output {tmp_path / 'r.json'}" for argv in argvs]
    out = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *argvs],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == repr(loaded)
