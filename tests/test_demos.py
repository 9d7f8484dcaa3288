"""The demos print the same bytes: each runs in a fresh interpreter with
PYTHONPATH=src, exits 0, writes nothing to stderr, and its stdout has the
pinned sha256.  The digests do not depend on PYTHONHASHSEED."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_exact_arithmetic.py": "e3792339539a47fa44346b91c1a8530015c648d26461511acbbb556ae94ee3fb",
    "02_block_parabolics.py": "464e2f44c58b516560b14b3783d4d75503f3084c18900ac582a085cdac3befcb",
    "03_constant_term.py": "456c0875ea29c35693a245e30f9d4212c475475422fbd0bcb8977f2e938d8cca",
    "04_induced_characters.py": "cf946346de2016ec1c57e0cd3fae1796057c383752e145e8cb9a2e97e5f5a1cc",
    "05_orbital_descent.py": "64b639b61e677a038379cd926c1c70ada05e3969779639cd77f0182589898824",
    "06_unipotent_classes.py": "395b75a673fa271110164ea7927c642127548052b65ad9d0dfea87731027b341",
    "07_saturation.py": "672979daa6f4d031349b9bc41c7b1c89284ec47cdb3890eb4729aef30c205a20",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_DIGESTS[name]
