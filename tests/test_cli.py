import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsqsim.cli import main

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


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nseed = 1\n\n[ramsey]\nbanana = 1\n")
    rc = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nseed = 1\n\n[wrong]\nx = 1\n")
    rc = main(["ramsey", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_noise_config_loading(tmp_path):
    cfg = tmp_path / "run.ini"
    noise = tmp_path / "noise.txt"
    noise.write_text("tau_bright_us = 80.0\n")
    cfg.write_text(f"[run]\nseed = 4\nnoise_config = {noise}\n\n"
                   "[rydberg-rabi]\nn_points = 5\nt_max_us = 0.1\n")
    rc = main(["rydberg-rabi", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 0


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


def test_format_json_mirrors_tables(tmp_path):
    rc, out = run_cli(tmp_path, "ramsey", "ramsey.ini",
                      extra=("--format", "json"))
    assert rc == 0
    assert (out / "ramsey.csv").exists()
    assert (out / "ramsey.json").exists()
    import json as _json

    data = _json.loads((out / "ramsey.json").read_text())
    assert data and set(data[0]) == {"t_us", "contrast"}


def test_psd_subcommand_small(tmp_path):
    cfg = tmp_path / "p.ini"
    cfg.write_text(
        "[run]\nseed = 2\n\n[psd-infidelity]\n"
        f"psd_file = {CONFIG_DIR / 'data' / 'uv_psd.txt'}\n"
        "already_uv = true\nn_trajectories = 10\n"
    )
    rc = main(["psd-infidelity", "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 0
