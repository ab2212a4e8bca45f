import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detcouple.sde as sde_mod
import detcouple.verify as verify_mod
from detcouple import cli
from detcouple import shards as shards_mod
from detcouple.errors import ValidationError


def run_main(argv):
    return cli.main(argv)


def load_json(path):
    """The JSON file at ``path``, read strictly: NaN and Infinity fail the test."""
    def no_constant(name):
        raise AssertionError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=no_constant)


def test_parse_simulate_flags():
    cmd, cfg = cli.parse_config(
        "simulate --space sphere --dim 2 --profile constant --rho0 1.5707963 "
        "--dt 1e-4 --T 1 --paths 100 --seed 42".split())
    assert cmd == "simulate"
    assert cfg.space == "sphere" and cfg.dim == 2 and cfg.K == 1.0
    assert cfg.rho0 == pytest.approx(1.5707963)
    assert cfg.dt == 1e-4 and cfg.T == 1.0 and cfg.paths == 100 and cfg.seed == 42
    assert not cfg.enforce_distance


def test_parse_seed_range_per_command():
    base = "--space euclidean --dim 2 --profile constant --rho0 1 --seed".split()
    assert cli.parse_config(["simulate", *base, str(2**64 - 1)])[1].seed == 2**64 - 1
    # verify draws from seed, seed + 1 and seed + 2
    assert cli.parse_config(["verify", *base, str(2**64 - 3)])[1].seed == 2**64 - 3
    with pytest.raises(ValidationError, match=r"^field seed: verify"):
        cli.parse_config(["verify", *base, str(2**64 - 2)])


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
    res = simulate_ensemble(spec, pf.constant(1.5707963267948966), 1e-3, 0.1, 7, 4,
                            record_distances=True)
    lines = (tmp_path / "paths.csv").read_text().splitlines()[1:]
    for row in lines:
        t, p, dist, target, err = row.split(",")
        i = int(round(float(t) / 1e-3))
        assert float(dist) == res.d_emp[int(p), i]       # 17 digits round-trip bit-exactly
    summary = load_json(tmp_path / "summary.json")
    assert set(summary) == {"space", "n", "K", "profile", "dt", "T", "paths", "seed",
                            "mean_sup_err", "max_sup_err", "rms_err", "pass"}
    assert summary["pass"] is True and summary["mean_sup_err"] == res.mean_sup_err


def test_simulate_pass_flag_reflects_tolerance(tmp_path, capsys):
    rc = run_main(["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "1.0", "--dt", "1e-2", "--T", "0.5", "--paths", "4",
                   "--seed", "3", "--tolerance", "1e-9", "--out", str(tmp_path)])
    assert rc == 1
    summary = load_json(tmp_path / "summary.json")
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
    report = load_json(tmp_path / "admissibility.json")
    assert report["admissible"] is False and report["reasons"]


@pytest.mark.parametrize("dt,T,steps", [("1e-9", "1e12", "1e+21"), ("1e-300", "1e10", "inf")])
def test_oversized_grid_exits_2(dt, T, steps, tmp_path, capsys):
    # step counts past numpy's index limit, so the check allocates nothing
    out = tmp_path / "run"
    assert run_main(["simulate", "--space", "euclidean", "--profile", "constant", "--rho0", "1",
                     "--dt", dt, "--T", T, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: T = {float(T):g} in steps of dt = {float(dt):g} "
                                       f"is {steps} steps, more than an array can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("simulate", "--paths"), ("verify", "--samples")])
def test_count_memory_error_exits_2(command, flag, tmp_path, capsys, monkeypatch):
    # counts within numpy's index limit whose arrays meet a MemoryError when allocated
    empty = np.empty

    def no_room(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) >= 10**12:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    def sample(n, size, rng):
        raise MemoryError

    monkeypatch.setattr(np, "empty", no_room)
    monkeypatch.setattr(verify_mod, "_sample_euclidean", sample)
    noun, width = ("paths", 11) if flag == "--paths" else ("samples", 2)
    for out in (tmp_path / "run", tmp_path / "a" / "b" / "run"):
        assert run_main([command, "--space", "euclidean", "--profile", "constant", "--rho0",
                         "1", "--T", "0.1", "--dt", "1e-2", flag, str(10**12),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {10**12} {noun} of {width} doubles each "
                                           "are more than an array can hold\n")
        # the output directory and its missing ancestors were made before the command
        # ran, and are removed again, deepest first, as they hold nothing
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("space,rho0,least", [("sphere", "4", None), ("hyperbolic", "1", -0.46)],
                         ids=["no-point-in-range", "every-point-in-range"])
def test_check_writes_strict_json(space, rho0, least, tmp_path, capsys):
    rc = run_main(["check", "--space", space, "--profile", "constant", "--rho0", rho0,
                   "--out", str(tmp_path)])
    assert rc == 1
    report = load_json(tmp_path / "admissibility.json")
    # with no point in range there is no least margin
    if least is None:
        assert report["min_lo_margin"] is None and report["min_hi_margin"] is None
    else:
        assert report["min_lo_margin"] == pytest.approx(least, abs=0.01)
        assert report["min_hi_margin"] > 0


def test_check_contracting_lower_bound_active(tmp_path, capsys):
    rc = run_main(["check", "--space", "sphere", "--dim", "2", "--profile",
                   "sphere-contracting", "--rho0", "1.5707963267948966", "--T", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = load_json(tmp_path / "admissibility.json")
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
        # a table gives its own start distance
        argv.remove("--rho0")
        argv.remove("1.0")
        table = tmp_path / "rho.csv"
        table.write_text(f"t,rho\n0,1.0\n{table_end},1.0\n")
        argv += ["--table", str(table)]
    assert run_main(argv + extra) == 0
    assert f"admissible on {printed}" in capsys.readouterr().out


def test_determinism_across_runs(tmp_path, capsys, shards):
    # repeat runs simulated and written in 1, 2 and 3 shards
    argv = ["simulate", "--space", "sphere", "--dim", "2", "--profile", "constant",
            "--rho0", "1.0", "--dt", "1e-3", "--T", "0.2", "--paths", "300",
            "--seed", "5"]
    outs = []
    for sub, cores in (("a", 1), ("b", 2), ("c", 3)):
        shards(cores)
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
    data = load_json(tmp_path / "converge.json")
    assert data["pass"] is True and data["details"]["strictly_decreasing"] is True


def test_converge_zero_error_has_no_slope(tmp_path, capsys):
    # E^1 moves by translation: the first level's error is exactly 0, which has no logarithm
    rc = run_main(["converge", "--space", "euclidean", "--dim", "1", "--profile", "constant",
                   "--rho0", "1", "--paths", "2", "--T", "0.01", "--dts", "1e-2,5e-3,1e-3",
                   "--out", str(tmp_path)])
    assert rc == 1
    data = load_json(tmp_path / "converge.json")
    assert 0.0 in data["details"]["mean_sup_err"]
    assert data["details"]["slope"] is None and data["pass"] is False
    assert capsys.readouterr().out.startswith("slope none;")


def test_verify_sphere_oracle_at_a_small_distance(tmp_path):
    # the oracle's distance keeps its digits near 0, where an arccos of the cosine
    # read 1.3e-11 and failed its 1e-12 constancy bound
    rc = run_main(["verify", "--space", "sphere", "--dim", "2", "--profile", "constant",
                   "--rho0", "0.001", "--paths", "200", "--out", str(tmp_path)])
    assert rc == 0
    reports = {r["name"]: r for r in load_json(tmp_path / "verify.json")["reports"]}
    assert reports["rotation-oracle-constancy"]["statistic"] <= 1e-12


def test_verify_subcommand_euclidean(tmp_path, capsys, monkeypatch):
    real, runs = cli.simulate_ensemble, []       # the dt of every ensemble verify runs
    monkeypatch.setattr(cli, "simulate_ensemble",
                        lambda *args, **kwargs: runs.append(args[2]) or real(*args, **kwargs))
    rc = run_main(["verify", "--space", "euclidean", "--dim", "3", "--profile",
                   "euclidean-max-growth", "--rho0", "1.0", "--dt", "1e-3", "--T", "0.5",
                   "--paths", "64", "--samples", "2000", "--seed", "11",
                   "--tolerance", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "verify.json")
    assert payload["pass"] is True
    reports = {r["name"]: r for r in payload["reports"]}
    assert "identity-scan-euclidean-n3" in reports
    assert "envelope-bracket" in reports
    # one tracking ensemble and one marginal ensemble, both at --dt
    assert runs == [1e-3, 1e-3]
    for label in "XY":
        details = reports[f"mean-decay-euclidean-{label}"]["details"]
        # the Euler step is exact on E^n: its mean is the start, its tolerance 3 SE
        assert sorted(details) == ["exact_mean", "standard_error"]
        assert reports[f"mean-decay-euclidean-{label}"]["tolerance"] == \
            3 * details["standard_error"]


def test_tabulated_profile_end_to_end(tmp_path, capsys):
    ts = np.linspace(0.0, 0.5, 201)
    table = tmp_path / "profile.csv"
    argv = ["simulate", "--space", "euclidean", "--dim", "3", "--profile", "tabulated",
            "--table", str(table), "--dt", "1e-3", "--T", "0.5", "--paths", "8", "--seed", "13",
            "--tolerance", "0.2", "--out", str(tmp_path)]
    # nodes of the max growth sqrt(1 + 8t) for n = 3: each chord is steeper
    # than the band allows at its segment's end; half that growth is inside
    for growth, code in ((8.0, 2), (4.0, 0)):
        rho = np.sqrt(1.0 + growth * ts)
        table.write_text("t,rho\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(ts, rho)))
        assert run_main(argv) == code
    assert "of segment [0, 0.0025] leaves the band" in capsys.readouterr().err
    summary = load_json(tmp_path / "summary.json")
    assert summary["profile"] == "tabulated"


def test_console_entry_point(tmp_path):
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "detcouple.cli", "check", "--space", "sphere", "--dim", "2",
         "--profile", "constant", "--rho0", "1.0", "--T", "1", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "admissible" in proc.stdout


# SHA-256 of paths.csv and summary.json for P=3, dt=1e-2, seed 7, recorded
# with the per-row writer that formatted all five fields of every row; the
# enforced S2 case, where 9 of the 18 abs_err values are exact zeros, was
# recorded before the bulk formatter wrote zeros itself.
_GOLDEN_ARGS = {
    "e3": ["--space", "euclidean", "--dim", "3", "--profile", "euclidean-max-growth",
           "--rho0", "1.0"],
    "s2": ["--space", "sphere", "--dim", "2", "--profile", "sphere-contracting",
           "--rho0", "1.5707963267948966"],
    "h2": ["--space", "hyperbolic", "--dim", "2", "--profile", "hyperbolic-lower",
           "--rho0", "1.0"],
    "s2-enforced": ["--space", "sphere", "--dim", "2", "--profile", "sphere-contracting",
                    "--rho0", "1.5707963267948966", "--enforce-distance"],
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
    ("s2-enforced", "0.05", "1", 0,
     "76af345e2bd72ec32ad9fb7cfabe9e8cd6b34dcd2ad76b11aefb33fa10473a16",
     "93fc2289294a232bc0afd290e77b4b5a58059fa97c0d886a66a34a070eb87c67"),
]


@pytest.mark.parametrize("case,T,stride,code,csv_sha,json_sha", _GOLDEN,
                         ids=[f"{c}-T{T}-stride{s}" for c, T, s, *_ in _GOLDEN])
def test_simulate_golden_bytes(tmp_path, capsys, case, T, stride, code, csv_sha, json_sha,
                               shards):
    # the simulator and the writer both shard the 3 paths
    for cores in (1, 2, 3):
        forks = shards(cores)
        n_forks = len(forks)
        out = tmp_path / f"cores{cores}"
        rc = run_main(["simulate", *_GOLDEN_ARGS[case], "--dt", "1e-2", "--T", T,
                       "--paths", "3", "--seed", "7", "--csv-stride", stride, "--out", str(out)])
        assert rc == code
        # samples 0..5 at T=0.05; stride 4 keeps 0, 4 and the final sample 5
        per_path = 1 if T == "0" else {"1": 6, "4": 3}[stride]
        # the simulator forks only when there is a step to take
        steps = 0 if T == "0" else 5
        assert len(forks) - n_forks == shards_mod.shard_count(3 * steps, 3) - 1 + \
            shards_mod.shard_count(3 * per_path, 3) - 1
        text = (out / "paths.csv").read_bytes()
        assert text.count(b"\n") == 1 + 3 * per_path
        assert hashlib.sha256(text).hexdigest() == csv_sha
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == json_sha


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
    res = simulate_ensemble(spec, pf.sphere_contracting(spec, 1.0), 1e-2, 0.13, 2, 5,
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


def _special_values_ensemble():
    """5 paths of 14 samples holding the values of the per-row reference test."""
    from detcouple import model_space as ms
    from detcouple import profiles as pf
    from detcouple.sde import simulate_ensemble
    spec = ms.sphere(2)
    res = simulate_ensemble(spec, pf.sphere_contracting(spec, 1.0), 1e-2, 0.13, 2, 5,
                            record_distances=True)
    d = res.d_emp.copy()
    d[1, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
    d[2, 3] = res.target[3]
    return dataclasses.replace(res, d_emp=d)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_write_paths_csv_bytes_do_not_depend_on_shards(cores, tmp_path, shards):
    # 3 shards of 5 paths are paths [0], [1, 2] and [3, 4]; the ensemble is
    # simulated in one process, so every fork counted is the writer's
    res = _special_values_ensemble()
    forks = shards(cores)
    for stride in (1, 3, 13, 100):
        out = tmp_path / f"paths-{stride}.csv"
        cli.write_paths_csv(out, res, stride)
        assert out.read_bytes() == _reference_paths_csv(res, stride), stride
    assert len(forks) == 4 * (cores - 1)
    assert sorted(f.name for f in tmp_path.iterdir()) == \
        sorted(f"paths-{stride}.csv" for stride in (1, 3, 13, 100))


def _format_budget_kept(monkeypatch):
    """Fail any ``_fmt_bulk`` call of more than ``cli.FORMAT_VALUES`` values."""
    real_fmt_bulk = cli._fmt_bulk

    def fmt_bulk(x):
        assert x.size <= cli.FORMAT_VALUES, (x.size, cli.FORMAT_VALUES)
        return real_fmt_bulk(x)
    monkeypatch.setattr(cli, "_fmt_bulk", fmt_bulk)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("block", [2, 3])
def test_write_paths_csv_bytes_do_not_depend_on_format_blocks(block, cores, tmp_path, shards,
                                                             monkeypatch):
    # 5 paths in blocks of 2 or 3 whole paths: blocks end inside a shard and at its end
    shards(cores)
    _format_budget_kept(monkeypatch)
    res = _special_values_ensemble()
    for stride in (1, 3, 13, 100):
        kept = len(range(0, res.times.size - 1, stride)) + 1        # and the final sample
        monkeypatch.setattr(cli, "FORMAT_VALUES", block * 2 * kept)
        out = tmp_path / f"paths-{stride}.csv"
        cli.write_paths_csv(out, res, stride)
        assert out.read_bytes() == _reference_paths_csv(res, stride), stride


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("values", [2, 10])
def test_write_paths_csv_bytes_do_not_depend_on_sample_chunks(values, cores, tmp_path, shards,
                                                             monkeypatch):
    # a path whose kept samples do not fit is written in chunks of values / 2 samples:
    # 10 values cut 14 kept samples into 5 + 5 + 4 and 6 into 5 + 1, and hold two
    # paths of 2; 2 values write every sample on its own
    shards(cores)
    _format_budget_kept(monkeypatch)
    monkeypatch.setattr(cli, "FORMAT_VALUES", values)
    res = _special_values_ensemble()
    for stride in (1, 3, 13, 100):
        out = tmp_path / f"paths-{stride}.csv"
        cli.write_paths_csv(out, res, stride)
        assert out.read_bytes() == _reference_paths_csv(res, stride), stride


def _traced_peak(run):
    """The most bytes traced by tracemalloc while ``run()`` runs, and its value."""
    tracemalloc.start()
    try:
        value = run()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("paths,samples", [(2, 100_001), (100, 1001)])
def test_write_paths_csv_working_set_is_one_block_and_the_template(paths, samples, tmp_path,
                                                                  shards):
    # one process writes; d_emp exists before the trace starts.  A block of FORMAT_VALUES
    # values takes at most 400 bytes each while formatted, and one path's templates about
    # 45 bytes per kept sample, each chunk's built from one _fmt_bulk call: 80 bytes each
    # in all.  Blocks of 16 whole paths peaked at 109 and 10.8 MiB, and a template
    # formatted by _fmt in one join over the path at 15.3 MiB for 2 x 100,001 samples.
    shards(1)
    rng = np.random.default_rng(3)
    times = 1e-3 * np.arange(samples)
    target = 1.0 + np.sqrt(times)
    res = dataclasses.replace(_special_values_ensemble(), n_paths=paths, times=times,
                              target=target,
                              d_emp=target + 0.01 * rng.standard_normal((paths, samples)))
    out = tmp_path / "paths.csv"
    peak, _ = _traced_peak(lambda: cli.write_paths_csv(out, res))
    bound = 400 * cli.FORMAT_VALUES + 80 * samples
    assert peak <= bound, (peak, bound)
    assert out.read_bytes().count(b"\n") == 1 + paths * samples


def test_write_paths_csv_formats_every_value_in_bulk(tmp_path, monkeypatch):
    # t, target, dist and abs_err all in [1e-4, 1e16) or exact zeros: no value goes
    # through _fmt, in the template or in the rows
    monkeypatch.setattr(cli, "_fmt", lambda v: pytest.fail(f"_fmt({v!r}) called"))
    times = 1e-3 * np.arange(50)
    target = 1.0 + np.sqrt(times)
    d_emp = np.stack([target, target + 0.25, np.full(50, 2.0)])
    res = dataclasses.replace(_special_values_ensemble(), n_paths=3, times=times,
                              target=target, d_emp=d_emp)
    for stride in (1, 7):
        out = tmp_path / f"paths-{stride}.csv"
        cli.write_paths_csv(out, res, stride)
        assert out.read_bytes() == _reference_paths_csv(res, stride), stride


def test_simulate_holds_its_distances_once(tmp_path, capsys, shards):
    # one process simulates and writes: past d_emp, the noise block (NOISE_BLOCK_BYTES),
    # 1 KiB per open stream and 1 MiB for a step's arrays.  Formatting 16 whole paths
    # at a time and squaring the errors into a second (P, M+1) array took d_emp +
    # 10.9 MiB here
    shards(1)
    paths = 200
    argv = ["simulate", "--space", "euclidean", "--dim", "3", "--profile",
            "euclidean-max-growth", "--rho0", "1", "--dt", "1e-3", "--T", "1",
            "--paths", str(paths), "--tolerance", "10", "--out", str(tmp_path)]
    peak, rc = _traced_peak(lambda: run_main(argv))
    assert rc == 0
    d_emp = 8 * paths * 1001
    bound = d_emp + sde_mod.NOISE_BLOCK_BYTES + 1024 * paths + 2**20
    assert peak <= bound, (peak - d_emp, bound - d_emp)
    assert (tmp_path / "paths.csv").read_bytes().count(b"\n") == 1 + paths * 1001


def _assert_python_text(x):
    """``cli._fmt_bulk(x)`` is ``'%.17g' % v`` for every value ``v`` of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    got = cli._fmt_bulk(x)
    values = x.ravel().tolist()
    want = [b"%.17g" % v for v in values]
    bad = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert len(got) == x.size and not bad, bad[:5]


def _neighbours(x, steps=2):
    """``x`` and the ``steps`` doubles on each side of every value."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def test_fmt_bulk_random_bit_patterns():
    # uniform in the bit pattern, so every exponent of the fixed-point range is covered
    rng = np.random.default_rng(16)
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    _assert_python_text(rng.integers(lo, hi, 1_000_000).view(np.float64))


def test_fmt_bulk_edge_values():
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    # the nearest doubles to 18-digit decimal ties ...5, which round either way
    near_ties = np.array([float(f"{d}5e{k}") for d, k in
                          zip(rng.integers(10**16, 10**17, 3000), rng.integers(-21, -1, 3000))])
    # exact ties: m * 2**-j with m odd has the digits of m * 5**j, which end in 5;
    # with 18 of them, '%.17g' rounds half to even
    exact_ties = np.concatenate([
        np.ldexp((rng.integers(-(-10**17 // 5**j), min(10**18 // 5**j, 2**53), 300) | 1)
                 .astype(np.float64), -j) for j in range(2, 21)])
    dyadic = np.concatenate([np.ldexp(rng.integers(1, 2**53, 200).astype(np.float64), -j)
                             for j in range(0, 110, 3)])
    integers = np.concatenate([np.arange(1.0, 10_001.0),
                               rng.integers(1, 10**16, 10_000).astype(np.float64)])
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([0.0, -0.0, -1.0, -0.5, -1e-4, -123.456, -1e300, np.nan, -np.nan,
                         np.inf, -np.inf, tiny, 3 * tiny, np.finfo(np.float64).tiny / 2,
                         -tiny, np.finfo(np.float64).max, -np.finfo(np.float64).max])
    for x in (_neighbours(powers), _neighbours(near_ties, 1), _neighbours(exact_ties, 1),
              dyadic, integers, specials, _neighbours(np.array([1e-4, 1e16]), 64)):
        _assert_python_text(x)
    # every value of a block in one call, in any shape
    _assert_python_text(np.concatenate([specials, powers]).reshape(2, -1))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the emulated dispatch level is an x86-64 one")
def test_fmt_bulk_under_numpy_without_avx512():
    # numpy picks SIMD loops by CPU, and _fmt_bulk's log10 is not known to keep its
    # bits across them: a child process run with the loops of an older x86-64 CPU
    # must still format the values of the two tests above as '%.17g'
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
    code = ("import test_cli\n"
            "test_cli.test_fmt_bulk_random_bit_patterns()\n"
            "test_cli.test_fmt_bulk_edge_values()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_fmt_bulk_writes_exact_zeros_itself(monkeypatch):
    # half the abs_err values of an enforced run are exact zeros: none goes through _fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: pytest.fail(f"_fmt({v!r}) called"))
    assert cli._fmt_bulk(np.array([[0.0, -0.0], [1.5, 0.0]])) == [b"0", b"-0", b"1.5", b"0"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_fmt_bulk_any_float(values):
    _assert_python_text(values)


@pytest.mark.parametrize("min_rows,cores,n_forks", [
    (100_000, 3, 0),    # 70 rows: too few for a second shard
    (30, 3, 1),         # 70 // 30 = 2 shards
    (1, 1, 0),          # one usable core
    (1, 8, 4),          # 5 paths: at most 5 shards
])
def test_write_paths_csv_shard_count_is_bounded(min_rows, cores, n_forks, tmp_path,
                                                shards, monkeypatch):
    res = _special_values_ensemble()
    forks = shards(cores)
    monkeypatch.setattr(shards_mod, "MIN_SHARD_WORK", min_rows)
    cli.write_paths_csv(tmp_path / "paths.csv", res)
    assert len(forks) == n_forks
    assert (tmp_path / "paths.csv").read_bytes() == _reference_paths_csv(res, 1)


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_write_paths_csv_failed_shard_leaves_nothing_behind(failing, tmp_path, shards,
                                                            monkeypatch):
    shards(3)
    real_write_rows = cli._write_rows

    def write_rows(fh, d_emp, idx, times, target, p0, p1):
        if (p0 > 0) == (failing == "child"):
            raise OSError(errno.ENOSPC, "No space left on device")
        real_write_rows(fh, d_emp, idx, times, target, p0, p1)

    monkeypatch.setattr(cli, "_write_rows", write_rows)
    res = _special_values_ensemble()
    # a block-buffered stdout still holds the line when the children fork
    with open(tmp_path / "stdout.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
        print("printed once")
        # a failed child's own exception is raised in the parent
        with pytest.raises(OSError, match=r"^\[Errno 28\] No space left on device$"):
            cli.write_paths_csv(tmp_path / "paths.csv", res)
    assert (tmp_path / "stdout.txt").read_text() == "printed once\n"
    assert list(tmp_path.glob("paths.csv.part*")) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_paths_csv_rejects_bad_stride(tmp_path):
    from detcouple import model_space as ms
    from detcouple import profiles as pf
    from detcouple.sde import simulate_ensemble
    spec = ms.euclidean(2)
    res = simulate_ensemble(spec, pf.constant(1.0), 1e-2, 0.05, 0, 2, record_distances=True)
    for stride in (0, -1):
        with pytest.raises(ValidationError, match="stride"):
            cli.write_paths_csv(tmp_path / "paths.csv", res, stride)


@pytest.mark.parametrize("case", ["config-value", "config-space", "flag-space", "flag-dim",
                                  "config-missing", "table-missing", "table-non-numeric",
                                  "table-short-row", "table-extra-number", "table-extra-text",
                                  "table-inf", "table-repeated-time",
                                  "flag-dt-inf", "flag-T-inf",
                                  "flag-dts-negative", "flag-rho0-inf",
                                  "out-not-a-directory", "out-is-a-file", "out-shard-fails",
                                  "check-out-is-a-file", "verify-out-is-a-file",
                                  "converge-out-is-a-file", "converge-T-0", "verify-T-0",
                                  "verify-seed-max", "simulate-inadmissible",
                                  "simulate-rho0-past-pi", "verify-inadmissible",
                                  "converge-inadmissible", "converge-dts-increasing",
                                  "converge-enforce-distance", "simulate-paths-too-many",
                                  "verify-samples-too-many", "verify-paths-too-many",
                                  "converge-paths-too-many", "simulate-rho0-tiny-euclidean",
                                  "simulate-rho0-tiny-hyperbolic",
                                  "simulate-rho0-tiny-max-growth",
                                  "simulate-sphere-floor-start", "simulate-sphere-floor-later",
                                  "flag-rho0-table", "config-rho0-table",
                                  "flag-rho0-deg-table"])
def test_bad_input_files_exit_2(case, tmp_path, capsys, shards, monkeypatch):
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
    elif case.endswith("-table"):
        # a tabulated profile starts at its table's first rho: a start distance beside
        # it ran from that rho, and nothing said so
        expect = "error: field rho0: a tabulated profile starts at its table's first rho\n"
        if case == "config-rho0-table":
            cfgfile.write_text("rho0 = 5\n")
            argv += ["--config", str(cfgfile)]
        elif case == "flag-rho0-table":
            argv += ["--dim", "3", "--rho0", "5"]
        else:
            argv[argv.index("--space") + 1] = "sphere"
            argv += ["--rho0-deg", "30"]
            expect = expect.replace("rho0", "rho0-deg", 1)
    elif case == "flag-rho0-inf":
        argv = ["check", "--space", "euclidean", "--profile", "constant", "--rho0", "inf",
                "--out", str(tmp_path / "run")]
        expect = "rho0"
    elif case.startswith("simulate-rho0-tiny-"):
        # a start pair the coupling would call coincident: E^n gave a NaN distance and
        # H^n rounded exp(rho0) to 1, a zero distance on every row that passed
        space, dim, profile, rho0 = {"euclidean": ("euclidean", "2", "constant", "1e-160"),
                                     "hyperbolic": ("hyperbolic", "3", "lower", "1e-17"),
                                     "max-growth": ("euclidean", "2", "max-growth", "1e-300"),
                                     }[case.split("tiny-")[1]]
        argv = ["simulate", "--space", space, "--dim", dim, "--profile", profile,
                "--rho0", rho0, "--paths", "2", "--T", "0.01", "--out", str(tmp_path / "run")]
        expect = f"error: rho0 = {float(rho0):g} is too small: the start points coincide\n"
    elif case.startswith("simulate-sphere-floor-"):
        # a sphere distance at most 1e-12 r, at the start or (contracting, negative band
        # floor) at t = 41.45: the kernel divided by it and wrote NaN distances
        profile, rho0, dt, T, t = {"start": ("constant", "1e-17", "1e-3", "0.01", "0"),
                                   "later": ("sphere-contracting", "1e-3", "1e-2", "60", "41.45"),
                                   }[case.split("floor-")[1]]
        argv = ["simulate", "--space", "sphere", "--dim", "2", "--profile", profile,
                "--rho0", rho0, "--dt", dt, "--paths", "2", "--T", T,
                "--out", str(tmp_path / "run")]
        expect = f"error: profile not admissible on [0, T]: rho leaves the valid range at t = {t}\n"
    elif case == "table-extra-number":
        table.write_text("t,rho\n0,1.0\n0.5,1.2,99\n1,1.3\n")
        expect = f"{table}:3"
    elif case == "table-extra-text":
        table.write_text("t,rho\n0,1.0\n0.5,1.2\n1,1.3,junk\n")
        expect = f"{table}:4"
    elif case == "table-inf":
        table.write_text("t,rho\n0,1.0\n0.5,inf\n1,1.3\n")
        expect = f"{table}: tabulated t and rho values must be finite"
    elif case == "table-repeated-time":
        table.write_text("t,rho\n0,1.0\n0.5,1.2\n0.5,1.3\n")
        expect = f"{table}: tabulated times must be strictly increasing"
    elif case in ("out-not-a-directory", "out-is-a-file"):
        out = table / "run" if case == "out-not-a-directory" else table
        argv[argv.index("--out") + 1] = str(out)
        expect = f"cannot write {out}: " + \
            ("Not a directory" if case == "out-not-a-directory" else "File exists")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the output directory was made")
        monkeypatch.setattr(cli, "simulate_ensemble", no_simulation)
    elif case in ("check-out-is-a-file", "verify-out-is-a-file", "converge-out-is-a-file",
                  "converge-T-0", "verify-T-0", "verify-seed-max", "simulate-inadmissible",
                  "simulate-rho0-past-pi", "verify-inadmissible", "converge-inadmissible",
                  "converge-dts-increasing", "converge-enforce-distance",
                  "simulate-paths-too-many", "verify-samples-too-many", "verify-paths-too-many",
                  "converge-paths-too-many"):
        argv[0] = case.split("-")[0]
        if case.endswith("T-0"):
            argv[argv.index("--T") + 1] = "0"
            expect = f"field T: {argv[0]} needs a horizon T > 0"
        elif case == "verify-seed-max":
            # a valid seed for simulate, but verify also draws from seed + 1 and seed + 2
            argv += ["--seed", str(2**64 - 1)]
            expect = f"field seed: verify needs an integer in [0, 2**64 - 3], got {2**64 - 1}"
        elif case == "converge-dts-increasing":
            argv += ["--dts", "1e-3,1e-2,1e-4"]
            expect = "need at least 3 strictly decreasing dt values"
        elif case == "converge-enforce-distance":
            argv += ["--enforce-distance"]
            expect = "field enforce_distance: converge"
        elif case.endswith("-too-many"):
            # past numpy's index limit: simulate and verify record 501 distances per path
            field = case.split("-")[1]
            argv += [f"--{field}", str(10**19)]
            width = 501 if field == "paths" and argv[0] != "converge" else 2
            expect = f"{10**19} {field} of {width} doubles each are more than an array can hold"
        elif case.endswith(("-inadmissible", "-past-pi")):
            # a constant distance is below the hyperbolic band, and 4 is past the sphere's pole
            space, rho0 = ("sphere", "4") if case.endswith("-past-pi") else ("hyperbolic", "1")
            argv[argv.index("--space") + 1] = space
            argv[argv.index("--profile") + 1] = "constant"
            argv += ["--rho0", rho0]
            expect = "rho0 must lie in (0, 3.14159), got 4.0" if space == "sphere" else \
                "profile not admissible on [0, T]: rho' = 0 outside"
        else:
            argv[argv.index("--out") + 1] = str(table)
            expect = f"cannot write {table}: File exists"
        work = {"check": (cli.pf, "check_admissibility"), "verify": (cli, "identity_scan"),
                "converge": (cli, "convergence_study"),
                "simulate": (cli, "simulate_ensemble")}[argv[0]]

        def no_work(*args, **kwargs):
            raise AssertionError(f"{argv[0]} worked before its input was checked "
                                 "and its output directory made")
        monkeypatch.setattr(*work, no_work)
        monkeypatch.setattr(cli, "simulate_ensemble", no_work)
    elif case == "out-shard-fails":
        shards(2)

        def write_rows(fh, *args):
            if args[-2] > 0:
                raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(cli, "_write_rows", write_rows)
        expect = f"error: cannot write {tmp_path / 'run' / 'paths.csv'}: " \
                 "No space left on device\n"
    elif case == "table-non-numeric":
        table.write_text("t,rho\n0,1.0\n0.5,wide\n1,1.3\n")
        expect = f"{table}:3"
    else:
        table.write_text("t,rho\n0,1.0\n0.5,1.2\n1\n")
        expect = f"{table}:4"
    assert run_main(argv) == 2
    assert expect in capsys.readouterr().err
    # bad input leaves no output directory behind
    assert (tmp_path / "run").exists() == (case == "out-shard-fails")
