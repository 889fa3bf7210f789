"""Every name imported in src/, tests/ and benchmark/ is used in its
module, every function, class and method that src/ defines is read by
the program itself (src/, benchmark/), not by the tests alone,
and so is every attribute that a src/ class stores on ``self``,
every entry point that the benchmark's tracer rebinds is still there, and
a 1D run loads none of the scipy subpackages that only 2D needs, sparse
included."""
import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import kgbreather.breather as breather

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names bound by import statements that nothing in ``source`` reads
    (a name listed in ``__all__`` counts as read)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_and_accepts_used():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(b)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests", "benchmark"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def defined_names(source):
    """(line, name) of the top-level functions and classes in ``source``
    and of their non-dunder methods, the latter as Class.method."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.lineno, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return found


def read_names(source):
    """Identifiers that ``source`` reads: plain names, attribute names, and
    string constants spelling an identifier (``__all__`` entries, and the
    attribute names the benchmark's tracer wraps by string)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def test_name_checker_flags_unread_and_accepts_read():
    lib = (
        "class A:\n    def used(self): pass\n    def spare(self): pass\n"
        "    def __call__(self): pass\n"
        "def f(): pass\ndef g(): pass\ndef h(): pass\n"
        "__all__ = ['h']\n"
    )
    read = read_names(lib) | read_names("A().used()\nf()\n")
    unread = [name for _, name in defined_names(lib) if name.split(".")[-1] not in read]
    assert unread == ["A.spare", "g"]


def test_no_names_only_tests_use():
    read = set()
    for folder in ("src", "benchmark"):
        for path in (ROOT / folder).rglob("*.py"):
            read |= read_names(path.read_text())
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in defined_names(path.read_text()):
            if name.split(".")[-1] not in read:
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def stored_attributes(source):
    """(line, Class.attr) of every ``self.attr = ...`` store in the
    top-level classes of ``source``, exceptions aside: an exception's
    fields are read by whoever catches it."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or any(
            isinstance(base, ast.Name) and base.id.endswith(("Error", "Exception"))
            for base in node.bases
        ):
            continue
        for item in ast.walk(node):
            if (
                isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Store)
                and isinstance(item.value, ast.Name)
                and item.value.id == "self"
            ):
                found.append((item.lineno, f"{node.name}.{item.attr}"))
    return found


def loaded_attributes(source):
    """Attribute names that ``source`` loads (stores do not count), and
    string constants spelling an identifier (getattr by name)."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                loaded.add(node.value)
    return loaded


def test_attribute_checker_flags_stored_but_unloaded():
    lib = (
        "class A:\n    def __init__(self, x):\n        self.x = x\n"
        "        self.spare = x\n        self.count = 0\n"
        "    def bump(self):\n        self.count += 1\n"
        "class E(ValueError):\n    def __init__(self):\n        self.code = 1\n"
    )
    loaded = loaded_attributes(lib) | loaded_attributes("print(A(1).x)\n")
    unloaded = [name for _, name in stored_attributes(lib)
                if name.split(".")[-1] not in loaded]
    assert unloaded == ["A.spare", "A.count", "A.count"]


def test_no_instance_state_only_tests_read():
    loaded = set()
    for folder in ("src", "benchmark"):
        for path in (ROOT / folder).rglob("*.py"):
            loaded |= loaded_attributes(path.read_text())
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name in stored_attributes(path.read_text()):
            if name.split(".")[-1] not in loaded:
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def test_benchmark_tracer_installs_and_uninstalls():
    """``benchmark/tracing.py`` rebinds the entry points of every timed
    layer by name and reads their results.  Install it, run a small
    breather through every traced layer, and uninstall it: a renamed or
    dropped entry point, or a changed return shape, fails here rather than
    in a ``--trace 1`` benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmark" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(breather))
    tracer = tracing.Tracer("tier-1")
    tracing.install(tracer)
    try:
        tracer.start_op("op")
        b = breather.assemble_breather(breather.PipelineConfig(
            n=1, p=0.5, coupling=0.25, mu=0.3, r_min=15.0, l_max=8,
            residual_target=1e-7,
        ))
        breather.kg_residual(b)
        breather.error_vs_reference(b)
        b.symmetry_error()
        tracer.finish_op()
    finally:
        tracer.uninstall()
    assert vars(breather) == before
    spans = {span[0] for span in tracer.spans}
    assert spans >= {"assemble", "dnls", "kernel", "range", "final_range",
                     "final_remainder", "window", "residual", "errors",
                     "symmetry"}
    counts = tracer.counts[0]
    assert counts["window.L"] == b.L_max > 8
    assert counts["range.calls"] >= 1 and counts["kernel.remainder_calls"] >= 1


_TWO_D_ONLY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.fft",
               "scipy.sparse")

_LOADS_SCRIPT = """
import json, sys
loaded = lambda: [m for m in {only} if m in sys.modules]
seen = {{}}
import kgbreather as kg
seen["import"] = loaded()
b = kg.assemble_breather(kg.PipelineConfig(n=1, p=1.0, coupling=0.25, mu=0.3,
                                           r_min=15.0, l_max=8))
kg.kg_residual(b)
kg.error_vs_reference(b)
kg.save_breather(sys.argv[1], b)
kg.integrate_period(kg.load_breather(sys.argv[1]), steps_per_period=64)
seen["1d run"] = loaded()
kg.solve_ground_state(2, 0.5)
seen["2d ground state"] = loaded()
print(json.dumps(seen))
"""


def test_a_1d_run_loads_no_scipy_subpackage_that_only_2d_needs(tmp_path):
    """``import kgbreather`` and a whole 1D run (assemble, residual, errors,
    save/load, leapfrog) leave scipy.interpolate, integrate, optimize, fft
    and sparse unloaded (no module of the package holds a sparse matrix,
    and only the 2D Newton step and the eigensolve import
    scipy.sparse.linalg); the first 2D ground-state solve loads what it
    uses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", _LOADS_SCRIPT.format(only=_TWO_D_ONLY),
         str(tmp_path / "b.kgbr")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    seen = json.loads(out)
    assert seen["import"] == []
    assert seen["1d run"] == []
    assert {"scipy.interpolate", "scipy.integrate"} <= set(seen["2d ground state"])
