"""The public API surface: everything advertised must be importable
and every ``__all__`` name must resolve."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

SUBPACKAGES = [
    "repro",
    "repro.video",
    "repro.codecs",
    "repro.codecs.entropy",
    "repro.trace",
    "repro.uarch",
    "repro.uarch.branch",
    "repro.cbp",
    "repro.parallel",
    "repro.profiling",
    "repro.resilience",
    "repro.obs",
    "repro.core",
    "repro.experiments",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version():
    import repro

    assert repro.__version__


def test_error_hierarchy():
    from repro import errors

    for cls in (errors.VideoError, errors.CodecError, errors.TraceError,
                errors.SimulationError, errors.ExperimentError):
        assert issubclass(cls, errors.ReproError)
        assert issubclass(cls, Exception)


def test_paper_entry_points_exist():
    """The names the README promises."""
    from repro.cbp import capture_trace, run_championship  # noqa: F401
    from repro.codecs import create_encoder  # noqa: F401
    from repro.core import characterize, format_result  # noqa: F401
    from repro.experiments import run_experiment  # noqa: F401
    from repro.parallel import thread_scaling  # noqa: F401
    from repro.video import vbench  # noqa: F401


def _design_module_map() -> list[str]:
    """Every module DESIGN.md's §3 module map names.

    A row is ``| subsystem | `package` | `module` (note), ... |``: the
    package may carry a ``{a,b}`` brace set, and backticked names in
    the contents column are modules of that package once parenthesised
    notes are dropped.
    """
    design = Path(__file__).resolve().parents[1] / "DESIGN.md"
    text = design.read_text(encoding="utf-8")
    section = text.split("## 3. ", 1)[1].split("\n### ", 1)[0]
    names = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`repro"):
            continue
        package = cells[1].strip("`")
        head, _, tail = package.partition("{")
        packages = (
            [head + part for part in tail.rstrip("}").split(",")]
            if tail
            else [package]
        )
        contents, dropped = cells[2], 1
        while dropped:  # innermost parentheses first
            contents, dropped = re.subn(r"\([^()]*\)", "", contents)
        modules = re.findall(r"`([a-z_][a-z0-9_]*)`", contents)
        for pkg in packages:
            names.append(pkg)
            names.extend(f"{pkg}.{module}" for module in modules)
    return names


def test_design_module_map_imports():
    names = _design_module_map()
    assert len(names) > 50, names
    missing = []
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, "\n".join(
        ["DESIGN.md §3 names modules that do not import:", *missing]
    )


def _trace_targets() -> tuple:
    """``TARGETS`` of the benchmark's tracer (``perfbench/tracing.py``).

    Loaded from its file: the program never imports the benchmark.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_trace_targets_resolve():
    """Every entry point the per-layer trace wraps is where it looks.

    Resolved the way its ``install()`` does: a dotted name through the
    class ``__dict__`` (so a method moved to another class is missed),
    a plain name as a binding of the module it is looked up from (the
    pipeline imports its kernels by name).  A miss would leave a layer
    untimed or break ``perfbench/run.py --trace 1``.
    """
    targets = _trace_targets()
    assert len(targets) > 30
    missing = []
    for module_name, attribute, layer in targets:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = (
            getattr(owner, "__dict__", {}).get(leaf)
            if path
            else getattr(owner, leaf, None)
        )
        if not callable(found):
            missing.append(f"{module_name}.{attribute} ({layer})")
    assert not missing, "trace targets that do not resolve: " + ", ".join(
        missing
    )


def test_environment_surface_matches_readme():
    """The ``REPRO_*`` variables ``src/`` reads are exactly the rows of
    the README's Environment table, so a new knob needs a doc row."""
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in (root / "src").rglob("*.py"):
        read.update(
            re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
        )
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Environment\n", 1)[1].split("\n## ", 1)[0]
    documented = set(
        re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE)
    )
    assert read == documented
