"""The MILP layer and the pivot kernel import nothing from the layers above.

The paper's method lowers a piecewise-linear model to a plain MILP and
solves that, so ``pwlmip.milp`` and ``pwlmip._kernel`` sit below the model,
function, lowering and pipeline modules.  ``pwlmip.rationals`` and
``pwlmip.records`` sit below every model, and no module imports
``dataclasses``, whose import and per-class code generation every
command would pay at its cold start.  The imports are read from the source with ``ast``,
so a lazy import inside a function counts too.
"""

import ast
import os
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "pwlmip")
LOWER_LAYERS = ("milp", "_kernel")
ABOVE = ("pwlmip.emip", "pwlmip.pwl", "pwlmip.reduction", "pwlmip.pipeline")


def _imported(source, package):
    """Absolute names a module of ``package`` imports: each module, and each
    name taken from it, which may be a submodule."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[:len(parts) - node.level + 1])
                base = parent + "." + base if base else parent
            yield base
            yield from (base + "." + alias.name for alias in node.names)


def test_lower_layers_import_nothing_above():
    # the reader resolves the relative form these modules use
    assert "pwlmip.emip" in set(_imported("from ..emip import VarKind\n",
                                          "pwlmip.milp"))
    bad = []
    for layer in LOWER_LAYERS:
        folder = os.path.join(PACKAGE, layer)
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                source = fh.read()
            bad += ["%s/%s imports %s" % (layer, name, imported)
                    for imported in _imported(source, "pwlmip." + layer)
                    if any(imported == a or imported.startswith(a + ".")
                           for a in ABOVE)]
    assert bad == []


def test_rationals_imports_nothing_from_the_package():
    # the parsers and the shared JSON readers sit below every model
    with open(os.path.join(PACKAGE, "rationals.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert [name for name in _imported(source, "pwlmip")
            if name == "pwlmip" or name.startswith("pwlmip.")] == []


def _package_sources():
    """(dotted package, file name, source) of every module of the package."""
    for folder, _, files in sorted(os.walk(PACKAGE)):
        rel = os.path.relpath(folder, PACKAGE)
        package = "pwlmip" if rel == os.curdir else "pwlmip." + rel.replace(os.sep, ".")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    yield package, name, fh.read()


def test_no_module_imports_dataclasses():
    # the value types sit on pwlmip.records, which imports only operator
    sources = list(_package_sources())
    assert {("pwlmip", "records.py"), ("pwlmip.milp", "model.py"),
            ("pwlmip._kernel", "__init__.py")} <= {s[:2] for s in sources}
    bad = ["%s/%s" % (package, name) for package, name, source in sources
           if any(imported == "dataclasses" or imported.startswith("dataclasses.")
                  for imported in _imported(source, package))]
    assert bad == []


def test_records_imports_nothing_from_the_package():
    # every layer, the MILP layer included, builds its value types on it
    with open(os.path.join(PACKAGE, "records.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert [name for name in _imported(source, "pwlmip")
            if name == "pwlmip" or name.startswith("pwlmip.")] == []


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, pwlmip.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(PACKAGE, os.pardir)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
