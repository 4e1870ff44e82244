"""A process loads only the package modules it uses: the package's names
resolve on first access, and a CLI command imports the modules it runs."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lebesgue_lab
from lebesgue_lab import cli

# an expression, for the code given to loaded_after, naming every package module loaded
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'lebesgue_lab')"

IMPORTED = {"lebesgue_lab", "lebesgue_lab.cli", "lebesgue_lab.errors", "lebesgue_lab.kernel"}
QUADRATURE = {"lebesgue_lab.quadrature"}
LEVELSETS = {"lebesgue_lab.levelsets", *QUADRATURE}
EPI = {"lebesgue_lab.epi", "lebesgue_lab.pmf"}


def fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter on this package's source tree."""
    src = str(Path(lebesgue_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def loaded_after(code: str) -> set:
    """The package modules that a new interpreter has loaded once it ran ``code``."""
    return set(eval(fresh_python(f"import sys\n{code}\nprint({LOADED})").splitlines()[-1]))


def test_package_and_cli_import_load_errors_and_kernel_alone():
    assert loaded_after("import lebesgue_lab, lebesgue_lab.cli") == IMPORTED


@pytest.mark.parametrize("argv, modules", [
    (["certify", "--l", "6", "--p", "2"], QUADRATURE),
    (["sweep", "--l", "6,7", "--p", "1.5,2"], QUADRATURE),
    (["ball", "--p", "2"], QUADRATURE),
    (["np-verify", "--l", "6,48"], LEVELSETS),
    (["plot-data", "--l", "8"], LEVELSETS),
    (["epi-check", "--random", "40"], EPI),
    (["rogozin", "--random", "5"], EPI),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_a_command_loads_the_modules_it_runs(argv, modules, tmp_path):
    # certify loads no epi, pmf or acceptance; np-verify no epi or acceptance;
    # epi-check and rogozin no quadrature, levelsets or acceptance
    out = str(tmp_path / ("plot.csv" if argv[0] == "plot-data" else "report.json"))
    code = f"from lebesgue_lab import cli\nassert cli.main({[*argv, '--out', out]!r}) == 0"
    assert loaded_after(code) == IMPORTED | modules


def test_a_parser_imports_the_modules_of_its_commands():
    assert loaded_after("from lebesgue_lab import cli; cli.build_parser(['np-verify'])") == IMPORTED | LEVELSETS
    # the full parser, as --help, no command or an unknown command builds it
    every_module = {f"lebesgue_lab.{info.name}" for info in pkgutil.iter_modules(lebesgue_lab.__path__)}
    assert loaded_after("from lebesgue_lab import cli; cli.build_parser()") == {"lebesgue_lab", *every_module}


def test_every_cache_a_command_reads_is_loaded_with_the_benchmark_modules():
    # a cache that is first loaded later would never be emptied between units
    code = """
import functools, importlib, pkgutil, sys
import lebesgue_lab
from lebesgue_lab import cli, epi, kernel, levelsets
loaded = set(sys.modules)
holders = set()
for info in pkgutil.iter_modules(lebesgue_lab.__path__):
    module = importlib.import_module(f"lebesgue_lab.{info.name}")
    if any(isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__
           for obj in vars(module).values()):
        holders.add(module.__name__)
print(sorted(holders - loaded))
"""
    # acceptance's caches are the battery's, which suite alone runs
    assert fresh_python(code).splitlines()[-1] == "['lebesgue_lab.acceptance']"
    assert [name for name, (_, module, _, _) in cli._COMMANDS.items() if module == "acceptance"] == ["suite"]


def test_every_public_name_is_its_module_object():
    code = """
import sys, types
import lebesgue_lab
names = {}
exec("from lebesgue_lab import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(lebesgue_lab.__all__), set(names) ^ set(lebesgue_lab.__all__)
for name, value in names.items():
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"lebesgue_lab.{name}"], name
    else:
        assert value is getattr(sys.modules[value.__module__], name), name
        assert value.__module__.startswith("lebesgue_lab."), name
    assert getattr(lebesgue_lab, name) is value, name
assert set(lebesgue_lab.__all__) <= set(dir(lebesgue_lab))
print(len(names))
"""
    assert fresh_python(code).splitlines()[-1] == str(len(lebesgue_lab.__all__))
    # the names of a module, in a process where nothing else loaded it, are its objects
    assert fresh_python(
        "import lebesgue_lab\nfrom lebesgue_lab import Pmf\nimport lebesgue_lab.pmf\n"
        "print(Pmf is lebesgue_lab.pmf.Pmf is lebesgue_lab.Pmf)"
    ).strip() == "True"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lebesgue_lab.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from lebesgue_lab import no_such_name  # noqa: F401
    assert not hasattr(lebesgue_lab, "_private_name")
