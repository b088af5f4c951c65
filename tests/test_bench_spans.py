"""The traced benchmark's tracer must still find what it wraps.

``bench/spans.py`` replaces functions by name in ``tdap``'s modules.  A
renamed or moved function would make ``bench/run.py --trace 1`` die with
``AttributeError``, so this checks every name it lists, and the
``(values, failed)`` contract of the replicate engine that it counts.
The tracer is loaded from its file and never installed.  A module may
import a name only for the tracer to wrap there, so the check for stale
imports lives here too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tdap import BootstrapSpec, TooManyFailedReplicatesError, generate_cohort

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    targets = [t for wraps in spans.WRAPS.values() for t in wraps]
    for module, attr in targets + list(spans.REPLICATE_ENGINES):
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_replicate_engine_returns_values_and_failures(spans):
    cohort = generate_cohort(300, 4)
    spec = BootstrapSpec(replicates=20, seed=9)
    tracer = spans.Tracer()
    for module, attr in spans.REPLICATE_ENGINES:
        engine = tracer.count_replicates(getattr(importlib.import_module(module), attr))
        values, failed = engine(cohort, 8.0, spec, ("ap", "ap2", "rap"))
        assert isinstance(values, np.ndarray) and values.shape == (20 - failed, 3)
        assert isinstance(failed, int)
    assert tracer.replicates_attempted == 20 * len(spans.REPLICATE_ENGINES)
    # a run that raises is counted too
    with pytest.raises(TooManyFailedReplicatesError):
        engine(cohort, 0.01, spec, ("ap",))
    assert tracer.replicates_failed >= 20


def test_every_import_is_used_exported_or_wrapped(spans):
    # no linter runs here or in CI: an imported name that its module never
    # reads must be in the module's __all__ or wrapped there by the tracer
    wrapped = {t for wraps in spans.WRAPS.values() for t in wraps}
    wrapped.update(spans.REPLICATE_ENGINES)
    for path in sorted((ROOT / "src" / "tdap").glob("*.py")):
        module = "tdap" if path.stem == "__init__" else f"tdap.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        stale = {
            name
            for name in imported - used - exported
            if (module, name) not in wrapped
        }
        assert not stale, (module, sorted(stale))
