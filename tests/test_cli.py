import configparser
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsqsim.cli import CONFIG_KEYS, PROTOCOLS, _rabi_rows, _summary, main
from fsqsim.levels import B, G, Q0, Q1, R, X, lop
from fsqsim.noise import (_FIELD_KEYS, raman_scatter_collapse_ops,
                          reference_budget_config, rydberg_collapse_ops)
from oracles import reference_rabi_rows

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def run_cli(tmp_path, command, config_name, extra=()):
    out = tmp_path / command
    rc = main([command, "--config", str(CONFIG_DIR / config_name),
               "--out", str(out), *extra])
    return rc, out


def tree_hash(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("n_points", [1, 2, 41])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("transition", ["raman", "rydberg"])
def test_rabi_rows_match_chained_evolution(transition, noisy, n_points):
    # one channel over the sample spacing, applied n - 1 times, against
    # n - 1 chained evolve_lindblad calls, each renormalized
    cfg = reference_budget_config()
    if transition == "raman":
        rabi, t_max, groups = 2 * np.pi * 0.017, 260.0, [(Q0,), (Q1,), (G, X)]
        h = (rabi / 2) * (lop(Q0, Q1) + lop(Q1, Q0))
        ops = raman_scatter_collapse_ops(cfg) if noisy else []
    else:
        rabi, t_max, groups = 2 * np.pi * 6.0, 0.5, [(Q1,), (R,), (B,)]
        h = (rabi / 2) * (lop(Q1, R) + lop(R, Q1))
        ops = rydberg_collapse_ops(cfg) if noisy else []
    rows = np.array(_rabi_rows(h, ops, t_max, n_points, groups))
    ref = np.array(reference_rabi_rows(h, ops, t_max, n_points, groups))
    assert rows.shape == ref.shape == (n_points, 4)
    assert np.max(np.abs(rows - ref)) <= 1e-13


@pytest.mark.parametrize("command,config", [
    ("ramsey", "ramsey.ini"),
    ("lifetime-fit", "lifetime.ini"),
    ("equalize", "equalize.ini"),
    ("rabi", "rabi.ini"),
    ("rydberg-rabi", "rydberg_rabi.ini"),
])
def test_light_subcommands_run(tmp_path, command, config):
    rc, out = run_cli(tmp_path, command, config)
    assert rc == 0
    assert (out / "summary.json").exists()
    assert (out / "config_snapshot.ini").exists()
    assert any(p.suffix == ".csv" for p in out.iterdir())


def test_determinism_byte_identical(tmp_path):
    rc1, out1 = run_cli(tmp_path / "a", "lifetime-fit", "lifetime.ini")
    rc2, out2 = run_cli(tmp_path / "b", "lifetime-fit", "lifetime.ini")
    assert rc1 == rc2 == 0
    assert tree_hash(out1) == tree_hash(out2)


def test_seed_override_changes_output(tmp_path):
    rc1, out1 = run_cli(tmp_path / "a", "equalize", "equalize.ini")
    rc2, out2 = run_cli(tmp_path / "b", "equalize", "equalize.ini",
                        extra=("--seed", "99"))
    assert rc1 == rc2 == 0
    assert tree_hash(out1) != tree_hash(out2)


def test_missing_seed_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[ramsey]\nsigma_mhz = 0.05\n")
    rc = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nseed = 1\n\n[wrong]\nx = 1\n")
    rc = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


SHIPPED = [
    ("rabi", "rabi.ini"),
    ("rydberg-rabi", "rydberg_rabi.ini"),
    ("crb", "crb.ini"),
    ("ssb", "ssb.ini"),
    ("bell", "bell.ini"),
    ("ramsey", "ramsey.ini"),
    ("erasure-roc", "erasure_roc.ini"),
    ("state-prep-curve", "state_prep.ini"),
    ("srd", "srd.ini"),
    ("lifetime-fit", "lifetime.ini"),
    ("error-budget", "budget.ini"),
    ("psd-infidelity", "psd.ini"),
    ("rearrange", "rearrange.ini"),
    ("equalize", "equalize.ini"),
]


def shipped_config(name):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string((CONFIG_DIR / name).read_text())
    return parser


def test_every_subcommand_ships_a_config():
    assert sorted(c for c, _ in SHIPPED) == sorted(PROTOCOLS)


@pytest.mark.parametrize("command,config", SHIPPED)
def test_shipped_keys_are_declared(command, config):
    declared = CONFIG_KEYS[command]
    shipped = set(shipped_config(config)[command])
    assert shipped <= set(declared)
    # the keys are the signature's parameters after ctx; one without a
    # default is required, so the shipped config sets it
    required = {k for k, d in declared.items() if d is inspect.Parameter.empty}
    assert required <= shipped


@pytest.mark.parametrize("command,config", SHIPPED)
def test_unknown_key_rejected(tmp_path, capsys, command, config):
    parser = shipped_config(config)
    parser[command]["banana"] = "1"
    cfg = tmp_path / config
    with cfg.open("w") as f:
        parser.write(f)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"unknown key 'banana' in [{command}]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before the run starts


@pytest.mark.parametrize("command,config,section,key,raw", [
    ("srd", "srd.ini", "srd", "n_trials", "2.5"),
    ("ramsey", "ramsey.ini", "ramsey", "sigma_mhz", "fast"),
    ("ssb", "ssb.ini", "ssb", "n_cz", "2 four 6"),
    ("bell", "bell.ini", "bell", "noiseless", "maybe"),
    ("srd", "srd.ini", "run", "seed", "seven"),
    ("srd", "srd.ini", "run", "shots", "lots"),
    ("rabi", "rabi.ini", "rabi", "t_max_us", "long"),
    ("crb", "crb.ini", "crb", "injected_depolarizing", "1e-3x"),
    ("state-prep-curve", "state_prep.ini", "state-prep-curve", "eps_sp",
     "small"),
    ("rearrange", "rearrange.ini", "rearrange", "per_move_success", "high"),
])
def test_malformed_value_rejected(tmp_path, capsys, command, config, section,
                                  key, raw):
    parser = shipped_config(config)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = raw
    cfg = tmp_path / config
    with cfg.open("w") as f:
        parser.write(f)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key!r} in [{section}]: {raw!r}" in err
    assert not (tmp_path / "o").exists()  # rejected before the run starts


def test_noise_config_loading(tmp_path):
    cfg = tmp_path / "run.ini"
    noise = tmp_path / "noise.txt"
    noise.write_text("tau_bright_us = 80.0\n")
    cfg.write_text(f"[run]\nseed = 4\nnoise_config = {noise}\n\n"
                   "[rydberg-rabi]\nn_points = 5\nt_max_us = 0.1\n")
    rc = main(["rydberg-rabi", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 0


def test_non_finite_noise_rate_fails_by_name(tmp_path, capsys):
    # raman_scatter_g_per_us = inf used to reach the engine as a nan Raman
    # generator and exit 1; NoiseConfig refuses it, and the run exits 2 naming
    # the file and the key before any output is written
    text = (CONFIG_DIR / "noise_reference.txt").read_text()
    noise = tmp_path / "noise.txt"
    noise.write_text("".join(
        "raman_scatter_g_per_us = inf\n"
        if line.startswith("raman_scatter_g_per_us") else line
        for line in text.splitlines(keepends=True)))
    cfg = tmp_path / "crb.ini"
    cfg.write_text(f"[run]\nseed = 7\nshots = 10\nnoise_config = {noise}\n\n"
                   "[crb]\nlengths = 2\nn_sequences = 2\nerasure = false\n")
    rc = main(["crb", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{noise}: 'raman_scatter_g_per_us': raman_scatter_g must be " \
           f"finite, got inf" in err
    assert not (tmp_path / "o").exists()


_BAD_VALUES = ("nan", "inf", "-inf", "1e3x")
# what the noise document keeps: inf turns a lifetime or the ionization
# off, and nan leaves raman_spinflip unset
_NOISE_KEPT = {("tau_bright_us", "inf"), ("tau_dark_us", "inf"),
               ("ionization_a", "inf"), ("raman_spinflip_per_us", "nan")}
_NOISE_LINES = (CONFIG_DIR / "noise_reference.txt").read_text().splitlines()
_NOISE_KEYS = [ln.split(" = ")[0] for ln in _NOISE_LINES[1:]]


def test_noise_cases_cover_every_key():
    assert _NOISE_KEYS == list(_FIELD_KEYS)


@pytest.mark.parametrize("key,raw", [
    *((k, v) for k in _NOISE_KEYS for v in _BAD_VALUES
      if (k, v) not in _NOISE_KEPT),
    # a zero lifetime or ionization constant is an infinite rate, and so
    # is one whose reciprocal overflows
    ("tau_bright_us", "0.0"), ("tau_dark_us", "0"), ("ionization_a", "0"),
    ("tau_bright_us", "1e-320"), ("tau_dark_us", "1e-320"),
    ("ionization_a", "1e-320")])
def test_refused_noise_value_exits_2_naming_file_and_key(tmp_path, capsys,
                                                         key, raw):
    noise = tmp_path / "noise.txt"
    noise.write_text("".join(
        f"{key} = {raw}\n" if ln.startswith(f"{key} =") else ln + "\n"
        for ln in _NOISE_LINES))
    cfg = tmp_path / "ramsey.ini"
    cfg.write_text(f"[run]\nseed = 7\nnoise_config = {noise}\n\n"
                   "[ramsey]\nn_points = 2\n")
    rc = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {noise}: " in err
    assert f"'{key}'" in err
    assert not (tmp_path / "o").exists()  # refused before the run starts


def _table_cases(name, columns):
    return [(name, column, raw) for column in range(columns)
            for raw in _BAD_VALUES]


@pytest.mark.parametrize("table,column,raw", [
    *_table_cases("psd", 2), *_table_cases("lifetime", 5)])
def test_refused_table_value_exits_2_naming_file_and_column(
        tmp_path, capsys, table, column, raw):
    # the third data row gets the bad value in one column
    if table == "psd":
        source, sep, header = CONFIG_DIR / "data" / "uv_psd.txt", " ", 2
        names = ("frequency_Hz", "psd_Hz^2_per_Hz")
        command, key = "psd-infidelity", "psd_file"
        extra = "already_uv = true\nn_trajectories = 2\n"
    else:
        source, sep, header = (CONFIG_DIR / "data" / "lifetime_synthetic.csv",
                               ",", 1)
        names = ("T_us", "P1", "P1_err", "P2", "P2_err")
        command, key, extra = "lifetime-fit", "dataset", ""
    lines = source.read_text().splitlines()
    row = lines[header + 2].split(sep)
    row[column] = raw
    lines[header + 2] = sep.join(row)
    doc = tmp_path / source.name
    doc.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nseed = 7\n\n[{command}]\n{key} = {doc}\n{extra}")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {doc}: " in err
    if raw == "1e3x":
        assert f"line {header + 3}: bad number for {names[column]!r}" in err
    else:
        assert f"{names[column]} must be finite, got {float(raw)!r} at " \
               f"index 2" in err
    assert list((tmp_path / "o").iterdir()) == [
        tmp_path / "o" / "config_snapshot.ini"]  # no CSV, no summary


def test_negative_shots_exit_2_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "bell.ini"
    cfg.write_text("[run]\nseed = 7\nshots = -5\n\n[bell]\nn_phases = 4\n")
    rc = main(["bell", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'shots' in [run] must be non-negative, got -5" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_required_key_exits_2_before_any_output(tmp_path, capsys):
    # psd_file has no default: an empty [psd-infidelity] section is refused,
    # like an unknown key, before the output directory exists
    cfg = tmp_path / "psd.ini"
    cfg.write_text("[run]\nseed = 7\n\n[psd-infidelity]\n")
    rc = main(["psd-infidelity", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: missing key 'psd_file' in [psd-infidelity]" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_summary_refuses_non_finite_values_by_key(tmp_path):
    # RFC 8259 JSON has no NaN or Infinity token
    path = tmp_path / "summary.json"
    for payload, key in [({"a": 1.0, "b": np.float64("nan")}, "b"),
                         ({"c": {"raw": np.array([1.0, np.inf])}}, "c")]:
        with pytest.raises(ValueError,
                           match=f"^summary value {key!r} is not finite"):
            _summary(path, payload)
        assert not path.exists()
    _summary(path, {"a": np.float64(0.5), "b": None, "c": [1, 2]})
    assert path.read_text() == \
        '{\n "a": 0.5,\n "b": null,\n "c": [\n  1,\n  2\n ]\n}\n'


def test_srd_subcommand_small(tmp_path):
    cfg = tmp_path / "srd.ini"
    cfg.write_text("[run]\nseed = 2\n\n[srd]\nn_trials = 2000\n")
    rc = main(["srd", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    text = (tmp_path / "o" / "srd.csv").read_text()
    assert text.startswith("input,outcome,p_analytic,p_empirical,n_trials")


def test_rearrange_subcommand_small(tmp_path):
    cfg = tmp_path / "r.ini"
    cfg.write_text("[run]\nseed = 2\n\n[rearrange]\nn_trials = 50\n")
    rc = main(["rearrange", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "plan.txt").exists()
    assert (tmp_path / "o" / "occupancy.csv").exists()


def loaded_after(code, package):
    """The modules of ``package`` a fresh interpreter has loaded after
    running ``code`` with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code += ("import sys\n"
             "print('loaded:', *sorted(m for m in sys.modules\n"
             f"      if m == {package!r} or m.startswith({package + '.'!r})))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def modules_loaded(tmp_path, command, config, package="scipy"):
    """The modules of ``package`` a fresh interpreter has loaded after
    running ``command`` at ``config`` (a path relative to the repository
    root)."""
    return loaded_after(
        "from fsqsim.cli import main\n"
        f"rc = main([{command!r}, '--config', {str(ROOT / config)!r}, "
        f"'--out', {str(tmp_path / command)!r}])\n"
        "assert rc == 0, rc\n", package)


def test_no_fsqsim_module_loads_scipy():
    # scipy is a test dependency only: importing every module of the
    # package that pkgutil.walk_packages finds loads none of it
    assert not loaded_after(
        "import importlib, pkgutil\n"
        "import fsqsim\n"
        "names = [m.name for m in\n"
        "         pkgutil.walk_packages(fsqsim.__path__, 'fsqsim.')]\n"
        "assert 'fsqsim.benchmarking.singleq' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n", "scipy")


@pytest.mark.parametrize("command,config", [
    ("bell", "configs/bell.ini"),
    ("crb", "perfbench/configs/crb_raw.ini"),
    ("erasure-roc", "configs/erasure_roc.ini"),
    ("srd", "configs/srd.ini"),
    ("state-prep-curve", "configs/state_prep.ini"),
    ("rabi", "configs/rabi.ini"),
    ("rydberg-rabi", "configs/rydberg_rabi.ini"),
    ("psd-infidelity", "configs/psd.ini"),
    ("ramsey", "configs/ramsey.ini"),
    ("rearrange", "configs/rearrange.ini"),
])
def test_subcommand_loads_no_scipy(tmp_path, command, config):
    # the engine's sparse products, the read-noise tail, the Poisson pmf,
    # the root finder and the assignment solver are numpy or plain Python:
    # importing any scipy subpackage costs a process 0.2-0.35 s
    assert not modules_loaded(tmp_path, command, config)


@pytest.mark.parametrize("command,config", [
    ("crb", "perfbench/configs/crb_raw.ini"),
    ("rearrange", "configs/rearrange.ini"),
])
def test_subcommand_loads_no_numpy_ma(tmp_path, command, config):
    # distinct counts are set sizes: np.unique without optional outputs
    # imports numpy.ma (12-14 ms a process)
    assert not modules_loaded(tmp_path, command, config, "numpy.ma")


@pytest.mark.parametrize("command,config,module", [
    ("bell", "configs/bell.ini", "twoq"),
    ("crb", "perfbench/configs/crb_raw.ini", "singleq"),
    ("ramsey", "configs/ramsey.ini", "ramsey"),
])
def test_subcommand_loads_only_its_protocol_module(tmp_path, command, config,
                                                   module):
    loaded = modules_loaded(tmp_path, command, config, "fsqsim.benchmarking")
    assert loaded == {"fsqsim.benchmarking", f"fsqsim.benchmarking.{module}"}


def test_bell_leaves_the_ssb_table_unbuilt(tmp_path):
    # fsqsim bell imports twoq (and so cliffords) but runs no SSB or CRB
    # sequence: the SSB state table, its recoveries and the Clifford
    # composition table stay unbuilt, off bell's start-up and wall time
    cfg = tmp_path / "bell.ini"
    cfg.write_text("[run]\nseed = 3\nshots = 20\n\n[bell]\nn_phases = 4\n")
    loaded = loaded_after(
        "from fsqsim.cli import main\n"
        f"rc = main(['bell', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'bell')!r}])\n"
        "assert rc == 0, rc\n"
        "from fsqsim.benchmarking import twoq\n"
        "assert twoq._ssb_table.cache_info().currsize == 0\n"
        "assert twoq._ssb_recovery.cache_info().currsize == 0\n"
        "from fsqsim import cliffords\n"
        "assert cliffords._composition.cache_info().currsize == 0\n",
        "fsqsim")
    assert "fsqsim.benchmarking.twoq" in loaded


@pytest.mark.parametrize("setting,threads", [(None, 1), ("2", 2)])
def test_fsqsim_process_defaults_to_one_blas_thread(setting, threads):
    # a process that imports fsqsim before numpy loads OpenBLAS with one
    # thread, unless OPENBLAS_NUM_THREADS says otherwise; the count is read
    # from the library as the benchmark records it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)  # importing fsqsim here set it
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    code = ("import sys\n"
            "import fsqsim, numpy\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "from round import blas_threads\n"
            "print(blas_threads())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    read = proc.stdout.split()[-1]
    if read == "None":
        pytest.skip("no OpenBLAS thread-count symbol in this numpy")
    assert int(read) == threads


def test_format_json_mirrors_tables(tmp_path):
    rc, out = run_cli(tmp_path, "ramsey", "ramsey.ini",
                      extra=("--format", "json"))
    assert rc == 0
    assert (out / "ramsey.csv").exists()
    assert (out / "ramsey.json").exists()
    data = json.loads((out / "ramsey.json").read_text())
    assert data and set(data[0]) == {"t_us", "contrast"}


def test_psd_subcommand_small(tmp_path):
    # already_uv = false reads the file as the red laser's PSD: frequency
    # doubling multiplies it by 4, so the gate sees more noise
    summaries = {}
    for uv in ("true", "false"):
        cfg = tmp_path / f"{uv}.ini"
        cfg.write_text(
            "[run]\nseed = 2\n\n[psd-infidelity]\n"
            f"psd_file = {CONFIG_DIR / 'data' / 'uv_psd.txt'}\n"
            f"already_uv = {uv}\nn_trajectories = 10\n")
        out = tmp_path / uv
        assert main(["psd-infidelity", "--config", str(cfg),
                     "--out", str(out)]) == 0
        summaries[uv] = json.loads((out / "summary.json").read_text())
    uv, red = summaries["true"], summaries["false"]
    assert red["psd_variance_hz2"] == pytest.approx(
        4 * uv["psd_variance_hz2"], rel=1e-12)
    assert red["infidelity"] > uv["infidelity"]


def test_lifetime_fit_without_dataset_synthesizes_from_the_seed(tmp_path):
    cfg = tmp_path / "l.ini"
    cfg.write_text("[run]\nseed = 7\n\n[lifetime-fit]\n")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["lifetime-fit", "--config", str(cfg),
                     "--out", str(out)]) == 0
        outs.append(out)
    assert tree_hash(outs[0]) == tree_hash(outs[1])
    s = json.loads((outs[0] / "summary.json").read_text())
    # the synthetic data are drawn at tau_bright = 110 us, tau_dark = 37 us
    assert abs(s["tau_bright_us"] - 110.0) <= 4 * s["tau_bright_err"]
    assert abs(s["tau_dark_us"] - 37.0) <= 4 * s["tau_dark_err"]
