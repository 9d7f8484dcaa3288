import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cocenter.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    render_csv,
    render_json,
    run_characters,
    run_orbital,
    run_restriction,
    run_saturate,
    run_unipotent,
)
from cocenter.orbital import orbital_integral

# sha256 of the JSON reports of the default configuration; any change in a
# report of these suites shows up here
REPORT_DIGESTS = {
    "restriction": (run_restriction, "17c4f8ca60315e3d1d1f70389c69cb57306fd233e28c3630c1bed85fb6d158a5"),
    "characters": (run_characters, "c415d7beef8c65e571b849c6f0529ff25b8561e5d46ee251221f35b480a25c3d"),
    "orbital": (run_orbital, "078161848abc7ba2ce1eed450a701cd181e0f2eee252cfdeacec40fca7c1da78"),
    "unipotent": (run_unipotent, "03e75b3505d779904e6fee0d99174e25cb629cab6ce44b25abdafd22f01cafd8"),
    "saturate": (run_saturate, "e479bf5277513fa02e140c148d6dff811692294a4b8d890b097c4144575cdf9f"),
}

# the same for the configuration `[run] n = 3, blocks = 2,1`, which builds
# Levi labels with a 2 x 2 block and splits 3 x 3 Hermite parts through a
# lower parabolic, as the default GL_2 configuration never does
GL3_REPORT_DIGESTS = {
    "restriction": (run_restriction, "c35f61ea991f83314af31ce4a085b539bdd508a0b1eb13816b68e203d58ff8ec"),
    "characters": (run_characters, "eabc54ed3619c6a54c7e32a803f2d1e54266bfe55ff11e8b57df9b76ac7f4116"),
    "orbital": (run_orbital, "ad888ba03147131d282c648ec27503963cbe36b4221e290d21d940b7907a32df"),
}


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(ff_cases=((2, 2),), grid_window=(-1, 1)).validate()


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(blocks=(3, 2)).validate()
    with pytest.raises(ConfigError):
        RunConfig(m=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(p=6).validate()


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\np = 3\nm = 1\nn = 2\nblocks = 1,1\nguard = 500000\n"
        "[orbital]\ngrid_min = -1\ngrid_max = 1\n"
        "[unipotent]\ncases = 2:2, 2:3\n"
        "[saturate]\ndegree = 1\nheight = 1\n"
    )
    cfg = load_config(str(path))
    assert cfg.p == 3 and cfg.blocks == (1, 1)
    assert cfg.grid_window == (-1, 1)
    assert cfg.ff_cases == ((2, 2), (2, 3))
    assert cfg.sat_degree == 1


def test_load_config_rejects_bad_blocks(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nn = 2\nblocks = 3,2\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_formats_carry_identical_data(small_config):
    rows = run_saturate(small_config)
    js = json.loads(render_json(rows))
    parsed = list(csv.DictReader(io.StringIO(render_csv(rows))))
    assert js["rows"] == parsed


def test_reports_deterministic(small_config):
    rows_a = run_unipotent(small_config)
    rows_b = run_unipotent(small_config)
    assert render_json(rows_a) == render_json(rows_b)
    assert render_csv(rows_a) == render_csv(rows_b)


@pytest.mark.parametrize("suite", sorted(REPORT_DIGESTS))
def test_reports_byte_identical(suite):
    run, digest = REPORT_DIGESTS[suite]
    report = render_json(run(RunConfig().validate()))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite", sorted(REPORT_DIGESTS))
def test_reports_under_python_O_match_the_pins(suite):
    """With asserts stripped, `python -O -m cocenter.cli <suite>` prints
    the pinned default report and exits 0, so no check of the program rests
    on `assert`."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-O", "-m", "cocenter.cli", suite], cwd=root,
                         env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == REPORT_DIGESTS[suite][1]


@pytest.mark.parametrize("suite", sorted(GL3_REPORT_DIGESTS))
def test_gl3_reports_byte_identical(suite):
    run, digest = GL3_REPORT_DIGESTS[suite]
    report = render_json(run(RunConfig(n=3, blocks=(2, 1)).validate()))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_orbital_suite_integrates_each_pair_once(monkeypatch):
    """The default orbital run integrates each of its 375 (measure, gamma)
    pairs once: 5 basis measures and their upper and lower restrictions, at
    25 grid points.  The descent rows of both orientations share the G side,
    and the separation probe reuses the upper values.  The integrals run in
    `orbital.descent_values`, so the count is taken there."""
    calls = []

    def counting_integral(h, gamma, *args):
        calls.append((id(h), gamma))
        return orbital_integral(h, gamma, *args)

    monkeypatch.setattr("cocenter.orbital.orbital_integral", counting_integral)
    run_orbital(RunConfig().validate())
    assert len(calls) == len(set(calls)) == 375


def test_main_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["saturate", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True

    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nn = 2\nblocks = 3,2\n")
    assert main(["saturate", "--config", str(bad)]) == 2

    assert main(["unipotent", "--guard", "5"]) == 3


def test_guard_bounds_the_witness_search(tmp_path, capsys):
    """The largest default witness search, the finite-set-boundary row at
    degree 2 and height 2, tries 54 curves: `--guard 53` trips the resource
    guard and `--guard 54` prints the pinned report."""
    out = tmp_path / "report.json"
    assert main(["saturate", "--guard", "53", "--out", str(out)]) == 3
    assert "exceeds guard 53" in capsys.readouterr().err and not out.exists()
    assert main(["saturate", "--guard", "54", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS["saturate"][1]


def test_unwritable_out_is_an_output_error(tmp_path, capsys):
    """A report path that cannot be opened exits 2 with one line on
    stderr, not a traceback with status 1, and leaves no report."""
    out = tmp_path / "missing" / "report.json"
    assert main(["saturate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and "Traceback" not in err
    assert not out.exists()


def test_main_mutation_mode_fails(tmp_path):
    out = tmp_path / "mutated.json"
    code = main(
        ["orbital", "--mutate-normalization", "--out", str(out), "--format", "json"]
    )
    assert code == 1
    blob = json.loads(out.read_text())
    assert blob["passed"] is False
    assert any(r["pass"] == "false" for r in blob["rows"])


@pytest.mark.parametrize("section", [
    "[unipotent]\ncases = -1:2\n",
    "[unipotent]\ncases = 0:2\n",
    "[saturate]\ndegree = 0\n",
    "[saturate]\nheight = -1\n",
    "[characters]\nparams = 1/0, 2\n",
    "[characters]\nparams = ;\n",
    "[unipotent]\ncases = ,\n",
])
def test_config_refuses_empty_cases_and_bounds(tmp_path, capsys, section):
    """A unipotent case with n < 1 would be dropped silently, a
    saturation degree or height below 1 would fail rows instead of the
    configuration, a zero denominator would end in a traceback, and an
    empty character family or case list would pass with no rows."""
    path = tmp_path / "bad.ini"
    path.write_text(section)
    assert main(["all", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def _orbital_rows(tmp_path, blocks, *flags):
    config, out = tmp_path / "gl3.ini", tmp_path / "gl3.json"
    config.write_text(f"[run]\nn = 3\nblocks = {blocks}\n")
    code = main(["orbital", "--config", str(config), "--out", str(out), *flags])
    return code, json.loads(out.read_text())["rows"]


def test_orbital_suite_on_gl3(tmp_path):
    """Descent rows at n = 3 for every block shape.  The (2, 1) and (1, 2)
    runs fail only their separation probe, which reads orbital rank 2
    against character rank 3 there; a corrupted normalization fails
    descent rows."""
    code, _ = _orbital_rows(tmp_path, "1,1,1")
    assert code == 0
    for blocks in ("2,1", "1,2"):
        _, rows = _orbital_rows(tmp_path, blocks)
        descent = [r for r in rows if r["identity"] == "orbital-descent"]
        assert len(descent) == 550 and all(r["pass"] == "true" for r in descent)
        assert {r["identity"] for r in rows if r["pass"] == "false"} <= {
            "separation-probe/rank-agreement"}
    code, rows = _orbital_rows(tmp_path, "2,1", "--mutate-normalization")
    assert code == 1
    assert any(r["identity"] == "orbital-descent" and r["pass"] == "false" for r in rows)
