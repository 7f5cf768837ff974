import ast
import ctypes
import importlib
import os
import platform
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import gpris
from gpris import _kernel
from gpris.harness import ExperimentSpec, load_spec
from gpris.scenario import SystemConfig

_DEMOS = Path(gpris.__file__).parents[2] / "demos"
_README = Path(gpris.__file__).parents[2] / "README.md"


def test_public_names_resolve():
    # a name deleted from the package must leave __all__ as well
    missing = [name for name in gpris.__all__ if not hasattr(gpris, name)]
    assert missing == []
    assert len(set(gpris.__all__)) == len(gpris.__all__)


# names the package root no longer carries, by the module that defines them
_MODULE_ONLY = {
    "baselines": ("random_phases", "rzf_precoder", "rzf_regularizer"),
    "channel": ("ChannelEstimate", "ChannelSet", "cascade", "error_scale_dft",
                "steering_ula", "steering_upa"),
    "gpi_precoder": ("PrecoderQuadratics",),
    "gpi_ris": ("ALPHA1", "ALPHA2", "RisGpiResult", "RisQuadratics"),
    "harness": ("BenchResult", "ResultRow", "bench_from_spec", "bench_ris_stage",
                "load_spec", "run_experiment", "write_results"),
    "joint": ("JointResult",),
    "metrics": ("PhaseShifts", "Precoder", "commutation_matrix",
                "effective_channels", "lower_bound_phase_form",
                "mc_instantaneous_se", "theta_matrices", "xi_matrices"),
    "scenario": ("Geometry", "PathlossModel", "Scenario", "SystemConfig",
                 "db_to_linear", "default_geometry", "load_scenario",
                 "noise_power_dbm", "pathloss_db", "place_users"),
}


def test_module_only_names_import_from_their_module():
    for module, names in _MODULE_ONLY.items():
        mod = importlib.import_module(f"gpris.{module}")
        assert [name for name in names if not hasattr(mod, name)] == []
        assert set(names).isdisjoint(gpris.__all__)


def _readme_section(title):
    text = _README.read_text(encoding="utf-8")
    return text.split(f"### {title}\n")[1].split("\n#")[0]


def test_readme_names_every_setting():
    # the scenario table's first column holds SystemConfig's fields plus the
    # two nested sections, and the spec section names every spec field
    table = _readme_section("Scenario config (JSON)")
    keys = {key for line in table.splitlines() if line.startswith("| `")
            for key in re.findall(r"`(\w+)`", line.split("|")[1])}
    assert keys == {f.name for f in fields(SystemConfig)} | {"geometry",
                                                             "pathloss"}
    spec = _readme_section("Experiment spec (JSON)")
    assert [f.name for f in fields(ExperimentSpec)
            if f"`{f.name}`" not in spec] == []


def test_demo_specs_load():
    specs = sorted(_DEMOS.glob("*.json"))
    assert specs
    for path in specs:
        load_spec(str(path))


def _private_imports(path):
    """The ``gpris`` names a file's imports reach that start with ``_``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            reached = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            reached = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in reached:
            parts = name.split(".")
            if parts[0] == "gpris" and any(p.startswith("_") for p in parts[1:]):
                yield name


def test_demos_import_public_names_only():
    # a demo shows the public interface; a private name may change under it
    private = {path.name: names for path in sorted(_DEMOS.glob("*.py"))
               if (names := list(_private_imports(path)))}
    assert private == {}


_JOINT_BOTH_PATHS = """
import sys
import numpy as np
from gpris import (AlgorithmSettings, LineSearchPlan, _kernel,
                   estimate_channels, run_joint, scenario_from_dict,
                   synthesize_channels)

scenario = scenario_from_dict({"n_bs_antennas": 4, "n_users": 2, "n_ris": 2,
                               "ris_elems_y": 2, "ris_elems_z": 2})


def run():
    rng = np.random.default_rng(7)
    truth = synthesize_channels(scenario, rng)
    est = estimate_channels(truth, scenario, rng)
    res = run_joint(est, scenario.config.noise_over_power,
                    LineSearchPlan(0.0, 10.0, 3), AlgorithmSettings(), rng)
    assert res.errors == {}, res.errors


run()
_kernel.find_compiler = lambda: None  # both numpy loops from here on
run()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_without_scipy():
    # scipy is a test-only dependency: neither the compiled loops nor the
    # numpy references they fall back to may load it
    env = dict(os.environ, PYTHONPATH=str(Path(gpris.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _JOINT_BOTH_PATHS], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(gpris.__file__).parents[2] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]] \
        == ["numpy"]
    assert any(dep.startswith("scipy")
               for dep in project["optional-dependencies"]["test"])


def test_package_data_ships_every_kernel_source():
    # an installed package builds its compiled loops from these files
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(gpris.__file__).parents[2] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text())
    shipped = set(data["tool"]["setuptools"]["package-data"]["gpris"])
    sources = {src.name for src in _kernel._SOURCES}
    assert sources <= shipped
    # and the library is built from every C file and header of the package
    assert sources == {p.name
                       for p in Path(gpris.__file__).parent.glob("*.[ch]")}


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


@pytest.mark.skipif(not _kernel.available(), reason="needs a C compiler")
@pytest.mark.parametrize("src", _kernel._SOURCES, ids=lambda src: src.name)
def test_kernel_source_compiles_without_warnings(src, tmp_path):
    # the C counterpart of test_no_test_only_code: a static helper that a
    # deletion leaves without a caller fails here (-Wunused-function).
    # -Wno-psabi: the ABI note on the 8-double vector helpers, which appears
    # on CPUs without AVX-512, is moot for static inline functions
    flags = [flag for flag in _kernel._FLAGS if flag not in ("-O3", "-shared")]
    proc = subprocess.run(
        [_kernel.find_compiler(), *flags, "-O0", "-c", "-Wall", "-Wextra",
         "-Werror", "-Wno-psabi", "-o", str(tmp_path / "out.o"), str(src)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


_C_COMMENT = re.compile(r"/\*.*?\*/", re.S)
# a macro, or a function defined or declared at file scope (its return type
# starts the line)
_C_NAMES = re.compile(r"^#define (\w+)|^[A-Za-z][\w *]*?\b(?!__)(\w+)\(",
                      re.M)


def test_shared_header_names_are_all_used():
    # -Wunused-function cannot see the helpers of _loops.h, which every C
    # file includes: each of its macros, functions and prototypes must be
    # used by some C file of the library, not counting a definition's head
    header = _C_COMMENT.sub("", (_kernel._DIR / "_loops.h").read_text())
    names = {a or b for a, b in _C_NAMES.findall(header)}
    code = []
    for src in _kernel._SOURCES:
        if src.suffix == ".c":
            text = _C_COMMENT.sub("", src.read_text())
            code.append(re.sub(r"^(?:int|long) \w+\(", "(", text, flags=re.M))
    assert "take" in names and "TRI" in names
    unused = [name for name in sorted(names)
              if not any(re.search(rf"\b{name}\b", c) for c in code)]
    assert unused == []


# a C definition at file scope: return type, name, parameter list, body
_C_EXPORT = re.compile(r"^(int|long) (gpris_\w+)\(([^)]*)\)\s*\{", re.M)
_C_TYPES = {"int": ctypes.c_int, "long": ctypes.c_long,
            "double": ctypes.c_double}


def _ctype(decl):
    """The ctypes type that passes one C parameter or return type."""
    if "*" in decl:
        return ctypes.c_void_p
    words = decl.split()
    return _C_TYPES[words[-2] if len(words) > 1 else words[0]]


@pytest.mark.skipif(not _kernel.available(), reason="needs a C compiler")
def test_ctypes_signatures_match_the_c_definitions():
    # ctypes trusts argtypes: a parameter added, dropped or retyped on one
    # side only corrupts memory without an error
    exports = {}
    for src in _kernel._SOURCES:
        for ret, name, params in _C_EXPORT.findall(src.read_text()):
            exports[name] = (_ctype(ret), [_ctype(p) for p in params.split(",")])
    assert sorted(exports) == ["gpris_precoder_loop", "gpris_precoder_loop_work",
                               "gpris_ris_loop", "gpris_ris_loop_work",
                               "gpris_round", "gpris_round_work"]
    lib = _kernel._library()
    for name, (restype, argtypes) in exports.items():
        func = getattr(lib, name)
        assert (func.restype, func.argtypes) == (restype, argtypes), name


def _openblas() -> bool:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


# a small power sweep and five run_joint calls at L=8, M=8, timed after a
# warm-up: the process's CPU time over the wall time of that work
_CPU_OVER_WALL = """
import time
import numpy as np
import gpris
from gpris.harness import ExperimentSpec, run_experiment

sc = gpris.scenario_from_dict({"n_ris": 8, "ris_elems_y": 4, "ris_elems_z": 2})
nop = sc.config.noise_over_power
spec = ExperimentSpec(kind="power_sweep", sweep_values=(0.0, 20.0), n_seeds=3,
                      schemes=("gpi_random", "rzf_random"))

def work():
    run_experiment(spec)
    for i in range(5):
        rng = np.random.default_rng(i)
        est = gpris.estimate_channels(gpris.synthesize_channels(sc, rng), sc, rng)
        gpris.run_joint(est, nop, gpris.LineSearchPlan(), gpris.AlgorithmSettings(),
                        rng)

work()
wall, cpu = time.perf_counter(), time.process_time()
work()
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


@pytest.mark.skipif(not _openblas() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs OpenBLAS and two CPUs")
def test_blas_pool_stays_asleep():
    # with OPENBLAS_NUM_THREADS=2 a (KN x LM) product of 4096 entries or more
    # wakes the second BLAS thread, which then spins on its own core: the
    # process burnt about twice its wall time in CPU
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(Path(gpris.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CPU_OVER_WALL], env=env,
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) < 1.3
