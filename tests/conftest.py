import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from nilflow.algebra import Bracket, gl_action
from nilflow.generators import (
    filiform,
    heisenberg,
    random_nilpotent,
    random_orthogonal,
    random_two_step,
    rescale_to_norm,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def heis():
    return heisenberg(1.0)


@pytest.fixture
def heis_sphere():
    """Heisenberg rescaled onto the sphere |mu| = 2 (scal = -1)."""
    return rescale_to_norm(heisenberg(1.0), 2.0)


@pytest.fixture
def fil4():
    return filiform(4)


def dense_starts(n, seed):
    """Rotated random_nilpotent, random_two_step and filiform brackets of
    dimension n: dense starts, with no zero pattern for a kernel to lean on."""
    rng = np.random.default_rng(seed)
    starts = (random_nilpotent(n, rng), random_two_step(n, rng), filiform(n))
    return [gl_action(random_orthogonal(n, rng), b) for b in starts]


def random_sphere_bracket(n, seed):
    """Random 2-step bracket on the |mu| = 2 sphere, reproducible by seed."""
    return rescale_to_norm(random_two_step(n, np.random.default_rng(seed)), 2.0)


# Dixmier-Lister: [e_i, e_j] = +-e_k, 1-based; characteristically nilpotent,
# so its GL(8)-orbit holds no nilsoliton and the normalized frame degenerates
_DIXMIER_LISTER = {(1, 2): 5, (1, 3): 6, (1, 4): 7, (1, 5): -8, (2, 3): 8,
                   (2, 4): 6, (2, 6): -7, (3, 4): -5, (3, 5): -7, (4, 6): -8}


def dixmier_lister():
    entries = {(i - 1, j - 1, abs(k) - 1): float(np.sign(k)) for (i, j), k in _DIXMIER_LISTER.items()}
    return Bracket.from_entries(8, entries)


def rotated_dixmier_lister(seed):
    """Dixmier-Lister on ||mu|| = 2 after a seeded rotation: a dense start
    whose normalized flow must reach the same tr Ric^2, 15/22, as in its own
    basis."""
    return rescale_to_norm(gl_action(random_orthogonal(8, np.random.default_rng(seed)), dixmier_lister()))


_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session", autouse=True)
def console_scripts(tmp_path_factory):
    """Put launchers for the `[project.scripts]` of pyproject.toml on PATH
    when the package is not installed, the way pip would write them."""
    if shutil.which("nilflow") is not None or sys.version_info < (3, 11):
        yield
        return
    import tomllib

    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())
    src = _ROOT / project["tool"]["setuptools"]["packages"]["find"]["where"][0]
    bindir = tmp_path_factory.mktemp("bin")
    for name, target in project["project"]["scripts"].items():
        module, _, func = target.partition(":")
        launcher = bindir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
        yield
