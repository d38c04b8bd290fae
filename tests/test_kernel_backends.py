"""The compiled kernel and the pure-Python fallback must agree exactly.

Without an installed compiled kernel, the comparison builds the shipped
``_fiber.c`` with the C compiler Python was built with; it skips, with the
reason, only when that fails.  It never compares the pure kernel with itself.
"""

import importlib.util
import shlex
import subprocess
import sysconfig
from pathlib import Path

import pytest

from holoscreen import _kernel
from holoscreen._kernel import pure
from holoscreen.corpus import construct
from holoscreen.holomorph import enumerate_regular_subgroups, holomorph

FIBER_C = Path(_kernel.__file__).resolve().parent / "_fiber.c"

HOLOMORPH_BASES = [
    "cyclic(4)",
    "abelian(2,2)",
    "cyclic(6)",
    "symmetric(3)",
    "cyclic(8)",
    "dihedral(8)",
    "cyclic(12)",
    "abelian(2,2,2)",
    "dihedral(12)",
    "alternating(4)",
    "abelian(5,5)",  # |Aut| = 480: the pure kernel reads amul in place
]


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel: the installed one, else one built from _fiber.c."""
    if _kernel.HAVE_COMPILED:
        return _kernel.backend
    out = tmp_path_factory.mktemp("kernel") / (
        "_fiber" + sysconfig.get_config_var("EXT_SUFFIX"))
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    cmd = cc + ["-O1", "-shared", "-fPIC",
                "-I" + sysconfig.get_paths()["include"], str(FIBER_C),
                "-o", str(out)]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=300)
        spec = importlib.util.spec_from_file_location(
            "holoscreen._kernel._fiber", out)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, subprocess.SubprocessError, ImportError) as exc:
        pytest.skip("compiled kernel not built and _fiber.c did not build "
                    f"({exc}); nothing to compare")
    return module


def test_backend_module_exposes_contract():
    assert hasattr(pure, "search_regular")
    assert hasattr(_kernel.backend, "search_regular")
    assert _kernel.BACKEND_NAME in ("pure", "compiled")


@pytest.mark.parametrize("expr", HOLOMORPH_BASES)
def test_backends_agree(expr, compiled):
    hol = holomorph(construct(expr).table)
    with_compiled = enumerate_regular_subgroups(hol, backend=compiled)
    with_pure = enumerate_regular_subgroups(hol, backend=pure)
    assert [r.codes for r in with_compiled.records] == \
        [r.codes for r in with_pure.records]
    assert with_compiled.nodes == with_pure.nodes
    assert with_compiled.exhausted == with_pure.exhausted is False


def test_backends_agree_under_budget_pressure(compiled):
    # Budgets of about a third and two thirds of each full search stop
    # both kernels partway, where their partial record lists must agree.
    for expr in HOLOMORPH_BASES:
        hol = holomorph(construct(expr).table)
        full = enumerate_regular_subgroups(hol, backend=pure).nodes
        for budget in (1, full // 3, 2 * full // 3):
            a = enumerate_regular_subgroups(hol, node_budget=budget,
                                            backend=compiled)
            b = enumerate_regular_subgroups(hol, node_budget=budget,
                                            backend=pure)
            assert [r.codes for r in a.records] == \
                [r.codes for r in b.records], (expr, budget)
            assert a.nodes == b.nodes == budget + 1, (expr, budget)
            assert a.exhausted and b.exhausted, (expr, budget)
