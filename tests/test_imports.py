import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import deformed_u2

# each step runs in one fresh interpreter; after it, list which of the
# symbolic-algebra packages and scipy are loaded
SCRIPT = """
import json, sys
HEAVY = ("sympy", "mpmath", "scipy")
loaded = lambda: [name for name in HEAVY if name in sys.modules]
from deformed_u2 import FrequencyRatio
from deformed_u2.suite import run_suite
steps = [["run_suite 1:2 N<=2", int(not run_suite(FrequencyRatio(1, 2), 2).passed), loaded()]]
import deformed_u2.cli
from click.testing import CliRunner
steps.append(["import deformed_u2.cli", 0, loaded()])
runner = CliRunner()
for args in json.loads(sys.argv[1]):
    result = runner.invoke(deformed_u2.cli.main, args)
    steps.append([" ".join(args), result.exit_code, loaded()])
print(json.dumps(steps))
"""

COMMANDS = [
    ["spectrum", "--ratio", "2:3", "--count", "10"],
    ["irrep", "--ratio", "1:2", "--N", "3", "--p", "1", "--q", "2"],
    ["angular", "--ratio", "2:3", "--N", "3"],
    ["verify", "--ratio", "1:2", "--N-max", "2"],
]


def run_fresh(script, *argv):
    """The last stdout line of `python -c SCRIPT ARGV`, parsed as JSON: one fresh interpreter
    with this package's src first on PYTHONPATH."""
    src = str(Path(deformed_u2.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_cli_and_commands_never_load_sympy_or_scipy():
    steps = run_fresh(SCRIPT, json.dumps(COMMANDS))
    assert [step for step, _, _ in steps] == ["run_suite 1:2 N<=2", "import deformed_u2.cli"] + [
        " ".join(args) for args in COMMANDS
    ]
    for step, exit_code, loaded in steps:
        assert exit_code == 0, step
        assert loaded == [], f"{step} loaded {loaded}"


# the library import freezes nothing; the CLI's import moves its heap into the permanent
# generation once, and collection stays enabled through a command
FREEZE_SCRIPT = """
import gc, json
import deformed_u2
steps = [["import deformed_u2", gc.get_freeze_count(), gc.isenabled()]]
import deformed_u2.cli
steps.append(["import deformed_u2.cli", gc.get_freeze_count(), gc.isenabled()])
from click.testing import CliRunner
result = CliRunner().invoke(deformed_u2.cli.main, ["verify", "--ratio", "1:2", "--N-max", "2"])
steps.append(["verify", result.exit_code, gc.isenabled()])
print(json.dumps(steps))
"""


def test_only_the_cli_import_freezes_the_heap():
    library, cli, command = run_fresh(FREEZE_SCRIPT)
    assert library == ["import deformed_u2", 0, True]
    assert cli[0] == "import deformed_u2.cli" and cli[1] > 0 and cli[2] is True
    assert command == ["verify", 0, True]


def test_every_package_export_is_listed_where_it_is_defined():
    # `from deformed_u2.<module> import *` gives the same names as the package
    for name in deformed_u2.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(getattr(deformed_u2, name).__module__)
        assert name in module.__all__, f"{module.__name__}.__all__ does not list {name!r}"


def test_package_exports_exactly_the_layers_public_names():
    # a layer name the package fails to re-export, or lists twice, shows up here
    layers = ["angular", "core", "exceptions", "oracle", "representation", "structure"]
    expected = ["__version__", "run_suite"]
    for layer in layers:
        expected += importlib.import_module(f"deformed_u2.{layer}").__all__
    assert len(set(expected)) == len(expected)
    assert sorted(deformed_u2.__all__) == sorted(expected)


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    modules = [deformed_u2] + [
        importlib.import_module(f"deformed_u2.{info.name}")
        for info in pkgutil.iter_modules(deformed_u2.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_removed_duplicate_names_are_gone():
    # each was a second name for an exact view that stays: sf(k), numerators and rep.phi,
    # u_constant and energy_of_irrep, dict(poly.terms), label.dimension, and the S+ band
    # that S- reads; the Gamma form of Phi is the tests' own reference (tests/gamma_form.py)
    label, ratio = deformed_u2.IrrepLabel(3, 1, 2), deformed_u2.FrequencyRatio(1, 2)
    removed = {
        deformed_u2.StructureFunction(label, ratio): ("values", "factorials", "u", "energy",
                                                      "gamma_value"),
        deformed_u2.commutator_polynomial(ratio): ("coefficients",),
        deformed_u2.build_irrep(label, ratio): ("dimension", "s_minus_band"),
    }
    for record, names in removed.items():
        for name in names:
            assert not hasattr(record, name), f"{type(record).__name__}.{name}"
