import platform
import re
import shutil
import subprocess
from pathlib import Path

import pytest

import gpris
from gpris import _kernel


def test_public_names_resolve():
    # a name deleted from the package must leave __all__ as well
    missing = [name for name in gpris.__all__ if not hasattr(gpris, name)]
    assert missing == []
    assert len(set(gpris.__all__)) == len(gpris.__all__)


def test_package_data_ships_every_kernel_source():
    # an installed package builds its compiled loops from these files
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(gpris.__file__).parents[2] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    shipped = set(data["tool"]["setuptools"]["package-data"]["gpris"])
    sources = {src.name for src in _kernel._SOURCES}
    assert sources <= shipped
    # and the library is built from every C file of the package
    assert sources == {p.name for p in Path(gpris.__file__).parent.glob("*.c")}


# vfmadd*, vfmsub*, vfnmadd*, vfnmsub*, vfmaddsub*, vfmsubadd*
_FUSED = re.compile(r"\bvfn?m(add|sub)")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or shutil.which("objdump") is None
                    or not _kernel.available(),
                    reason="needs x86-64, objdump and a C compiler")
def test_library_has_no_fused_multiply_add():
    # the compiled loops must round like the numpy reference whatever FMA
    # units the CPU has (see _kernel._FLAGS)
    lib = _kernel._build(_kernel.find_compiler())
    listing = subprocess.run(["objdump", "-d", "--no-show-raw-insn", str(lib)],
                             capture_output=True, text=True, check=True).stdout
    fused = [line.strip() for line in listing.splitlines()
             if _FUSED.search(line)]
    assert fused == []
