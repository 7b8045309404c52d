"""Cold start: what importing randhull and running the light commands loads.

Each check runs in a fresh interpreter, because this process has long since
imported scipy through other tests.  No timing is measured, only which
modules end up in sys.modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from randhull.experiments import ExperimentConfig, save_experiment_config
from randhull.geometry import Ball, PolytopeV, save_body

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.integrate", "scipy.stats", "scipy.spatial")

SCIPY_MODULES = """
import sys
print(*sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh(code, *args):
    """Stdout of `python -c code args...` in a new interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


LAZY_MODULES = """
import sys
print(*sorted(m for m in sys.modules if m == "yaml" or m.startswith("concurrent")))
"""


def test_import_loads_no_scipy():
    assert _fresh("import randhull, randhull.cli" + SCIPY_MODULES).split() == []


def test_import_loads_neither_pyyaml_nor_the_thread_pool():
    assert _fresh("import randhull, randhull.cli" + LAZY_MODULES).split() == []


def test_check_class_fit_loads_neither_pyyaml_nor_the_thread_pool(tmp_path):
    body = tmp_path / "simplex3.json"
    save_body(PolytopeV(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]), body)
    out = tmp_path / "fit.json"
    argv = [
        "check-class",
        "--body", str(body),
        "--family", "fit",
        "--alpha", "3.0",
        "--eps0", "0.5",
        "--u-probes", "2",
        "--n-mc", "2000",
        "--out", str(out),
    ]
    code = "import sys\nfrom randhull.cli import main\nmain(sys.argv[1:])" + LAZY_MODULES
    loaded = _fresh(code, *argv).decode().split()
    assert out.stat().st_size > 0
    # the simplex's Qhull call loads scipy.spatial, which imports numpy.testing
    # and with it the concurrent.futures package, but not its thread pool
    assert [m for m in loaded if m in ("yaml", "concurrent.futures.thread")] == []


@pytest.mark.parametrize("command", ["sample", "bound"])
def test_light_commands_load_no_heavy_scipy(tmp_path, command):
    body = tmp_path / "ball.json"
    save_body(Ball(center=[0.0, 0.0], radius=1.0), body)
    out = tmp_path / "out"
    argv = {
        "sample": ["sample", "--body", str(body), "--mode", "interior", "--n", "10"],
        "bound": [
            "bound",
            "--params", '{"alpha": 1.5, "L": 0.4244, "eps0": 1.0}',
            "--d", "2",
            "--n", "10000",
            "--x", "20.0",
            "--format", "json",
        ],
    }[command] + ["--out", str(out)]
    code = "import sys\nfrom randhull.cli import main\nmain(sys.argv[1:])" + SCIPY_MODULES
    loaded = _fresh(code, *argv).decode().split()
    assert out.stat().st_size > 0
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_check_class_smooth_on_a_ball_loads_only_scipy_special(tmp_path):
    # a ball's cap shares are closed forms in the incomplete beta function
    body = tmp_path / "ball.json"
    save_body(Ball(center=[0.0, 0.0, 0.0], radius=1.0), body)
    out = tmp_path / "class.json"
    argv = ["check-class", "--body", str(body), "--family", "smooth", "--out", str(out)]
    code = "import sys\nfrom randhull.cli import main\nmain(sys.argv[1:])" + SCIPY_MODULES
    loaded = _fresh(code, *argv).decode().split()
    assert out.stat().st_size > 0
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith(HEAVY)] == []


def test_sample_on_the_unit_square_loads_no_scipy(tmp_path):
    # a box draws its points directly: no Qhull, no triangulation
    body = tmp_path / "square.json"
    save_body(PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), body)
    out = tmp_path / "out.csv"
    argv = ["sample", "--body", str(body), "--mode", "interior", "--n", "1000", "--out", str(out)]
    code = "import sys\nfrom randhull.cli import main\nmain(sys.argv[1:])" + SCIPY_MODULES
    assert _fresh(code, *argv).split() == []
    assert out.stat().st_size > 0


def test_rates_bytes_do_not_depend_on_threads_in_a_fresh_interpreter(tmp_path):
    # With --threads 2 the thread pool is imported on first use, and the
    # first scipy.spatial import happens inside the worker threads that run
    # Qhull, two of them at once.
    cfg = ExperimentConfig(
        body=Ball(center=[0.0, 0.0], radius=1.0),
        mode="interior",
        n_grid=[1000, 3000],
        reps=3,
        metric="hausdorff",
        master_seed=5,
    )
    config = tmp_path / "disc.yaml"
    save_experiment_config(cfg, config)
    code = "import sys\nfrom randhull.cli import main\nsys.exit(main(sys.argv[1:]))"
    runs = [
        _fresh(code, "rates", "--config", str(config), "--threads", t, "--format", "json")
        for t in ("1", "2")
    ]
    assert runs[0].startswith(b"{")
    assert runs[0] == runs[1]
