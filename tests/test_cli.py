import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from detcouple import cli
from detcouple.errors import ValidationError


def run_main(argv):
    return cli.main(argv)


def test_parse_simulate_flags():
    cmd, cfg = cli.parse_config(
        "simulate --space sphere --dim 2 --profile constant --rho0 1.5707963 "
        "--dt 1e-4 --T 1 --paths 100 --seed 42".split())
    assert cmd == "simulate"
    assert cfg.space == "sphere" and cfg.dim == 2 and cfg.K == 1.0
    assert cfg.rho0 == pytest.approx(1.5707963)
    assert cfg.dt == 1e-4 and cfg.T == 1.0 and cfg.paths == 100 and cfg.seed == 42
    assert not cfg.enforce_distance


def test_parse_rejects_bad_dim():
    with pytest.raises(ValidationError, match="dim"):
        cli.parse_config("simulate --space sphere --dim 0 --profile constant --rho0 1".split())
    assert run_main("simulate --space sphere --dim 0 --profile constant --rho0 1".split()) == 2


def test_parse_rejects_unknown_profile():
    with pytest.raises(ValidationError, match="profile"):
        cli.parse_config("simulate --profile warp --rho0 1".split())


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# demo configuration\n"
        "space = sphere\n"
        "dim = 2\n"
        "profile = constant\n"
        "rho0 = 1.0\n"
        "dt = 1e-2\n"
        "T = 0.5\n")
    cmd, cfg = cli.parse_config(["simulate", "--config", str(cfgfile), "--dt", "1e-3"])
    assert cfg.dt == 1e-3        # flag wins
    assert cfg.T == 0.5          # file value kept
    assert cfg.rho0 == 1.0


def test_config_file_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("spaces = sphere\n")
    with pytest.raises(ValidationError, match="unknown key"):
        cli.parse_config(["check", "--config", str(cfgfile)])


def test_rho0_deg_conversion():
    _, cfg = cli.parse_config(
        "simulate --space sphere --dim 2 --profile constant --rho0-deg 90".split())
    assert cfg.rho0 == pytest.approx(np.pi / 2)
    with pytest.raises(ValidationError, match="rho0-deg"):
        cli.parse_config("simulate --space euclidean --profile constant --rho0-deg 90".split())
    with pytest.raises(ValidationError, match="mutually exclusive"):
        cli.parse_config(
            "simulate --space sphere --profile constant --rho0 1 --rho0-deg 90".split())
    with pytest.raises(ValidationError, match="K > 0"):
        cli.parse_config("simulate --space sphere --K -1 --profile constant --rho0-deg 90".split())


def test_simulate_t0_single_row(tmp_path, capsys):
    rc = run_main(["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "1.0", "--dt", "1e-3", "--T", "0", "--paths", "3",
                   "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "t,path,dist,target,abs_err"
    assert len(lines) == 4          # header + one row per path
    for row in lines[1:]:
        t, p, dist, target, err = row.split(",")
        assert float(t) == 0.0
        assert float(err) <= 1e-12


def test_simulate_csv_round_trip_and_summary(tmp_path, capsys):
    rc = run_main(["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "1.5707963267948966", "--dt", "1e-3", "--T", "0.1",
                   "--paths", "4", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    from detcouple import model_space as ms
    from detcouple import profiles as pf
    from detcouple.sde import simulate_ensemble
    spec = ms.sphere(2)
    x0, y0 = ms.canonical_start(spec, 1.5707963267948966)
    res = simulate_ensemble(spec, pf.constant(1.5707963267948966), x0, y0, 1e-3, 0.1, 7, 4,
                            record_distances=True)
    lines = (tmp_path / "paths.csv").read_text().splitlines()[1:]
    for row in lines:
        t, p, dist, target, err = row.split(",")
        i = int(round(float(t) / 1e-3))
        assert float(dist) == res.d_emp[int(p), i]       # 17 digits round-trip bit-exactly
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"space", "n", "K", "profile", "dt", "T", "paths", "seed",
                            "mean_sup_err", "max_sup_err", "rms_err", "pass"}
    assert summary["pass"] is True and summary["mean_sup_err"] == res.mean_sup_err


def test_simulate_pass_flag_reflects_tolerance(tmp_path, capsys):
    rc = run_main(["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "1.0", "--dt", "1e-2", "--T", "0.5", "--paths", "4",
                   "--seed", "3", "--tolerance", "1e-9", "--out", str(tmp_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is False


def test_hyperbolic_constant_rejected(tmp_path, capsys):
    rc = run_main(["simulate", "--space", "hyperbolic", "--dim", "2", "--profile",
                   "constant", "--rho0", "1.0", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "not admissible" in err or "outside" in err
    rc = run_main(["check", "--space", "hyperbolic", "--dim", "2", "--profile",
                   "constant", "--rho0", "1.0", "--T", "1", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "admissibility.json").read_text())
    assert report["admissible"] is False and report["reasons"]


def test_check_contracting_lower_bound_active(tmp_path, capsys):
    rc = run_main(["check", "--space", "sphere", "--dim", "2", "--profile",
                   "sphere-contracting", "--rho0", "1.5707963267948966", "--T", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "admissibility.json").read_text())
    assert report["admissible"] is True
    assert report["lo_active"] is True and report["hi_active"] is False


@pytest.mark.parametrize("extra,table_end,printed", [
    (["--T", "0"], None, "[0, 1]"),             # T = 0: the default range [0, 1]
    (["--T", "0.5"], None, "[0, 0.5]"),
    (["--T", "0", "--profile", "tabulated"], 2.5, "[0, 2.5]"),   # the table's range
], ids=["T0", "T0.5", "T0-table"])
def test_check_prints_checked_range(extra, table_end, printed, tmp_path, capsys):
    argv = ["check", "--space", "sphere", "--dim", "2", "--profile", "constant",
            "--rho0", "1.0", "--out", str(tmp_path)]
    if table_end is not None:
        table = tmp_path / "rho.csv"
        table.write_text(f"t,rho\n0,1.0\n{table_end},1.0\n")
        argv += ["--table", str(table)]
    assert run_main(argv + extra) == 0
    assert f"admissible on {printed}" in capsys.readouterr().out


def test_determinism_across_runs(tmp_path, capsys):
    argv = ["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
            "--rho0", "1.0", "--dt", "1e-3", "--T", "0.2", "--paths", "300",
            "--seed", "5"]
    outs = []
    for sub in ("a", "b", "c"):
        out = tmp_path / sub
        assert run_main(argv + ["--out", str(out)]) == 0
        outs.append(((out / "paths.csv").read_bytes(), (out / "summary.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_converge_subcommand(tmp_path, capsys):
    rc = run_main(["converge", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "1.5707963", "--T", "0.5", "--paths", "16", "--seed", "2",
                   "--dts", "1e-2,3e-3,1e-3", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "converge.csv").read_text().splitlines()
    assert rows[0] == "dt,mean_sup_err"
    assert len(rows) == 4
    data = json.loads((tmp_path / "converge.json").read_text())
    assert data["pass"] is True and data["details"]["strictly_decreasing"] is True


def test_verify_subcommand_euclidean(tmp_path, capsys):
    rc = run_main(["verify", "--space", "euclidean", "--dim", "3", "--profile",
                   "euclidean-max-growth", "--rho0", "1.0", "--dt", "1e-3", "--T", "0.5",
                   "--paths", "64", "--samples", "2000", "--seed", "11",
                   "--tolerance", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["pass"] is True
    names = {r["name"] for r in payload["reports"]}
    assert "identity-scan-euclidean-n3" in names
    assert "envelope-bracket" in names


def test_tabulated_profile_end_to_end(tmp_path, capsys):
    ts = np.linspace(0.0, 0.5, 201)
    rho = np.sqrt(1.0 + 8.0 * ts)    # max growth for n = 3
    table = tmp_path / "profile.csv"
    table.write_text("t,rho\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(ts, rho)))
    rc = run_main(["simulate", "--space", "euclidean", "--dim", "3", "--profile",
                   "tabulated", "--table", str(table), "--dt", "1e-3", "--T", "0.5",
                   "--paths", "8", "--seed", "13", "--clamp-derivative",
                   "--tolerance", "0.2", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["profile"] == "tabulated"


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "detcouple.cli", "check", "--space", "sphere", "--dim", "2",
         "--profile", "constant", "--rho0", "1.0", "--T", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "admissible" in proc.stdout


# SHA-256 of paths.csv and summary.json for P=3, dt=1e-2, seed 7, recorded
# with the per-row writer that formatted all five fields of every row.
_GOLDEN_ARGS = {
    "e3": ["--space", "euclidean", "--dim", "3", "--profile", "euclidean-max-growth",
           "--rho0", "1.0"],
    "s2": ["--space", "sphere", "--dim", "2", "--profile", "sphere-contracting",
           "--rho0", "1.5707963267948966"],
    "h2": ["--space", "hyperbolic", "--dim", "2", "--profile", "hyperbolic-lower",
           "--rho0", "1.0"],
}
_GOLDEN = [  # (case, T, stride, exit status, paths.csv, summary.json)
    ("e3", "0.05", "1", 1,
     "682e338ca2eaea68acd1fbf5998f1fc1bb9636eaaf3839eb1a700c27c74ff3bf",
     "6125375501da67b9647a82be445da684a6d3b6b798ec0e757e60372a80181c52"),
    ("e3", "0.05", "4", 1,
     "75621101a4d1510356927d8ccef4c590fec789e20373433f1364d1f50510483d",
     "6125375501da67b9647a82be445da684a6d3b6b798ec0e757e60372a80181c52"),
    ("e3", "0", "1", 0,
     "83664e038356857be9c8f3906d820d8250baf34c6532aace47f8c3fce82ed94d",
     "e24d28a372fef3c72494a69a0f0cec2a246a7229c0914075e8ea2a7869fb2731"),
    ("s2", "0.05", "1", 0,
     "8085d70d069bd466295aa8780d8788ff5218f7876de91ddeb0cdc27f9c468bea",
     "1f877031d2a1ec7defd04116f42b9a604443149ea8998887d6a1c164239dd0b5"),
    ("s2", "0.05", "4", 0,
     "905ff21647d984ea46c5490e020e79caabf9df2e0fd9d5c8fa1724439763e4a7",
     "1f877031d2a1ec7defd04116f42b9a604443149ea8998887d6a1c164239dd0b5"),
    ("s2", "0", "1", 0,
     "a09137e055b0ea30159d3ed9640b7e7583797e7d67c50d46a2a1912d306967a4",
     "9eac48d3ffa38dda491f0c79e86baeb90ea033cf323556b37f27508e591cbde2"),
    ("h2", "0.05", "1", 0,
     "947cfeec655fad2fcbec40df75fbcbc503393f2a7a62266c5e3ab45979bb46b7",
     "689943e5015f9fe6ab62e387744086ff2959e348f4954c094ee4a2fd07c9b048"),
    ("h2", "0.05", "4", 0,
     "fe2d366e14251ff9f32703566c32e6ea3ef91176ebd20252d525a49774338091",
     "689943e5015f9fe6ab62e387744086ff2959e348f4954c094ee4a2fd07c9b048"),
    ("h2", "0", "1", 0,
     "83664e038356857be9c8f3906d820d8250baf34c6532aace47f8c3fce82ed94d",
     "afd7ec412d1e505e7c1dfbdee9be667688e6aea72e3d79ac76db90dd98bff2aa"),
]


@pytest.mark.parametrize("case,T,stride,code,csv_sha,json_sha", _GOLDEN,
                         ids=[f"{c}-T{T}-stride{s}" for c, T, s, *_ in _GOLDEN])
def test_simulate_golden_bytes(tmp_path, capsys, case, T, stride, code, csv_sha, json_sha):
    rc = run_main(["simulate", *_GOLDEN_ARGS[case], "--dt", "1e-2", "--T", T, "--paths", "3",
                   "--seed", "7", "--csv-stride", stride, "--out", str(tmp_path)])
    assert rc == code
    # samples 0..5 at T=0.05; stride 4 keeps 0, 4 and the final sample 5
    per_path = 1 if T == "0" else {"1": 6, "4": 3}[stride]
    text = (tmp_path / "paths.csv").read_bytes()
    assert text.count(b"\n") == 1 + 3 * per_path
    assert hashlib.sha256(text).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == json_sha


def _reference_paths_csv(result, stride):
    """The per-row writer: five formatted fields and one write per row."""
    idx = list(range(0, result.times.size, stride))
    if idx[-1] != result.times.size - 1:
        idx.append(result.times.size - 1)
    out = ["t,path,dist,target,abs_err\n"]
    for p in range(result.n_paths):
        for i in idx:
            t, d, g = result.times[i], result.d_emp[p, i], result.target[i]
            out.append(f"{t:.17g},{p},{d:.17g},{g:.17g},{abs(d - g):.17g}\n")
    return "".join(out).encode()


def test_write_paths_csv_matches_per_row_reference(tmp_path):
    from detcouple import model_space as ms
    from detcouple import profiles as pf
    from detcouple.sde import simulate_ensemble
    spec = ms.sphere(2)
    x0, y0 = ms.canonical_start(spec, 1.0)
    res = simulate_ensemble(spec, pf.sphere_contracting(spec, 1.0), x0, y0, 1e-2, 0.13, 2, 5,
                            record_distances=True)
    d = res.d_emp.copy()
    # values whose text is easy to get wrong: signed zero, non-finite, subnormal, huge
    d[1, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
    d[2, 3] = res.target[3]          # abs_err exactly 0
    res = dataclasses.replace(res, d_emp=d)
    for stride in (1, 2, 3, 4, 5, 13, 14, 100):
        out = tmp_path / f"paths-{stride}.csv"
        cli.write_paths_csv(out, res, stride)
        assert out.read_bytes() == _reference_paths_csv(res, stride), stride


def test_write_paths_csv_rejects_bad_stride(tmp_path):
    from detcouple import model_space as ms
    from detcouple import profiles as pf
    from detcouple.sde import simulate_ensemble
    spec = ms.euclidean(2)
    x0, y0 = ms.canonical_start(spec, 1.0)
    res = simulate_ensemble(spec, pf.constant(1.0), x0, y0, 1e-2, 0.05, 0, 2,
                            record_distances=True)
    for stride in (0, -1):
        with pytest.raises(ValidationError, match="stride"):
            cli.write_paths_csv(tmp_path / "paths.csv", res, stride)


@pytest.mark.parametrize("case", ["config-value", "config-space", "flag-space", "flag-dim",
                                  "config-missing", "table-missing", "table-non-numeric",
                                  "table-short-row", "flag-dt-inf", "flag-T-inf",
                                  "flag-dts-negative", "flag-rho0-inf"])
def test_bad_input_files_exit_2(case, tmp_path, capsys):
    cfgfile, table = tmp_path / "run.cfg", tmp_path / "rho.csv"
    argv = ["simulate", "--space", "euclidean", "--profile", "tabulated", "--table", str(table),
            "--T", "0.5", "--paths", "2", "--out", str(tmp_path / "run")]
    table.write_text("t,rho\n0,1.0\n0.5,1.2\n1,1.3\n")
    if case == "config-value":
        cfgfile.write_text("dim = abc\n")
        argv += ["--config", str(cfgfile)]
        expect = "field dim"
    elif case == "config-space":
        cfgfile.write_text("space = warp\n")
        argv = argv[:1] + argv[3:] + ["--config", str(cfgfile)]    # no --space flag
        expect = "field space"
    elif case == "flag-space":
        argv[argv.index("--space") + 1] = "warp"
        expect = "field space"
    elif case == "flag-dim":
        argv += ["--dim", "abc"]
        expect = "field dim"
    elif case == "config-missing":
        argv += ["--config", str(cfgfile)]
        expect = str(cfgfile)
    elif case == "table-missing":
        table.unlink()
        expect = str(table)
    elif case == "flag-dt-inf":
        argv += ["--dt", "inf"]
        expect = "field dt"
    elif case == "flag-T-inf":
        argv[argv.index("--T") + 1] = "inf"
        expect = "field T"
    elif case == "flag-dts-negative":
        argv += ["--dts=-1e-2,-2e-2,-3e-2"]
        expect = "field dts"
    elif case == "flag-rho0-inf":
        argv = ["check", "--space", "euclidean", "--profile", "constant", "--rho0", "inf",
                "--out", str(tmp_path / "run")]
        expect = "rho0"
    elif case == "table-non-numeric":
        table.write_text("t,rho\n0,1.0\n0.5,wide\n1,1.3\n")
        expect = f"{table}:3"
    else:
        table.write_text("t,rho\n0,1.0\n0.5,1.2\n1\n")
        expect = f"{table}:4"
    assert run_main(argv) == 2
    assert expect in capsys.readouterr().err
