"""The package's import surface, its layering, and its silent excepts."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

LAZY_EXPORTS = {
    "OptimizerSession": "repro.service.session",
    "BatchScheduler": "repro.service.scheduler",
    "MaterializationCache": "repro.service.matcache",
}


@pytest.mark.parametrize("name", sorted(LAZY_EXPORTS))
def test_top_level_name_is_the_service_class(name):
    module = importlib.import_module(LAZY_EXPORTS[name])
    assert getattr(repro, name) is getattr(module, name)


def test_top_level_workloads_is_the_subpackage():
    assert repro.workloads is importlib.import_module("repro.workloads")


def test_unknown_top_level_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="MultiQueryOptimizer"):
        repro.MultiQueryOptimizer


def test_core_does_not_import_the_service_layer():
    """``repro.core`` sits below ``repro.service``: importing it (and every
    module it pulls in) leaves the serving layer unloaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys, repro.core, repro.core.mqo, repro.core.strategies\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


#: Every ``except`` handler in ``src/repro`` whose body does nothing,
#: keyed by (module, enclosing function, handled exceptions), with the
#: reason swallowing is right there.  A swallowed failure leaves no trace,
#: so a new one fails the test below until it is pinned here with a reason.
SILENT_EXCEPTS = {
    ("adaptive/stats.py", "FeedbackStatsStore.snapshot", ("OSError",)):
        "best-effort temp-file cleanup; the original snapshot error re-raises below",
    ("execution/columnar/batch.py", "ColumnBatch.from_rows", ("KeyError",)):
        "KeyError *is* the heterogeneity signal; the slow path below handles these rows",
    ("obs/trace.py", "Tracer._pop", ("ValueError",)):
        "frame already popped by an earlier out-of-order exit; nothing left to unwind",
    ("service/scheduler.py", "BatchScheduler.close", ("Exception",)):
        "a failed best-effort shutdown snapshot must not turn a clean close into a crash",
    ("service/session.py", "OptimizerSession._restore_feedback", ("OSError",)):
        "a failed sweep only postpones cleanup to the next start; startup must not crash over it",
    ("service/session.py", "OptimizerSession._restore_feedback", ("OSError", "SnapshotError")):
        "a missing/corrupt snapshot is the documented cold start; the store stays empty",
    ("storage/spill.py", "SpillingMaterializationCache._on_evict_locked", ("OSError",)):
        "close failure on an already-failed spill; spill_errors was counted above",
    ("storage/spill.py", "_unlink_quietly", ("OSError",)):
        "best-effort unlink; a leaked file is ignored (wrong token) and swept by the next recovery scan",
}


def does_nothing(statement):
    """``pass``, ``...`` or a bare string."""
    return isinstance(statement, ast.Pass) or (
        isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
    )


def silent_excepts(tree, module):
    """``(module, enclosing scope, handled exception names)`` of every
    ``except`` handler in ``tree`` whose body does nothing."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler) and all(map(does_nothing, child.body)):
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                names = tuple(ast.unparse(t) for t in types if t is not None)
                found.append((module, ".".join(scope), names))
            visit(child, scope)

    visit(tree, ())
    return found


def src_silent_excepts():
    src = ROOT / "src" / "repro"
    return [
        site
        for path in sorted(src.rglob("*.py"))
        for site in silent_excepts(
            ast.parse(path.read_text(encoding="utf-8")), path.relative_to(src).as_posix()
        )
    ]


def test_every_silent_except_is_pinned_with_its_reason():
    unpinned = [site for site in src_silent_excepts() if site not in SILENT_EXCEPTS]
    assert unpinned == []


@pytest.mark.parametrize(
    "site", sorted(SILENT_EXCEPTS), ids=lambda s: f"{s[0]}:{s[1]}:{'|'.join(s[2])}"
)
def test_pinned_silent_except_is_still_there(site):
    """A pin whose handler changed or moved is stale: drop or re-pin it."""
    assert SILENT_EXCEPTS[site].strip()
    assert src_silent_excepts().count(site) == 1


def walk(source):
    return silent_excepts(ast.parse(source), "m.py")


def test_walker_names_the_enclosing_class_and_method():
    source = (
        "class A:\n    def f(self):\n        try:\n            g()\n"
        "        except KeyError:\n            pass\n"
    )
    assert walk(source) == [("m.py", "A.f", ("KeyError",))]


def test_walker_lists_every_exception_of_a_tuple_and_none_for_a_bare_except():
    source = "try:\n    g()\nexcept (OSError, mod.Error):\n    pass\nexcept:\n    pass\n"
    assert walk(source) == [("m.py", "", ("OSError", "mod.Error")), ("m.py", "", ())]


def test_walker_ignores_handlers_that_do_anything_but_pass():
    source = (
        "try:\n    g()\nexcept OSError:\n    pass\n    raise\n"
        "except KeyError:\n    log()\nexcept ValueError as exc:\n    errors.append(exc)\n"
    )
    assert walk(source) == []


def test_walker_scopes_nested_functions_and_handlers_inside_handlers():
    source = (
        "def outer():\n    def inner():\n        try:\n            g()\n"
        "        except OSError:\n            try:\n                h()\n"
        "            except ValueError:\n                pass\n            raise\n"
    )
    assert walk(source) == [("m.py", "outer.inner", ("ValueError",))]


def test_walker_counts_ellipsis_and_string_bodies_as_silent():
    source = (
        "try:\n    g()\nexcept OSError:\n    ...\n"
        "except KeyError:\n    'missing is fine'\n    pass\n"
    )
    assert walk(source) == [("m.py", "", ("OSError",)), ("m.py", "", ("KeyError",))]


def test_walker_sees_handlers_in_module_level_code():
    source = (
        "if True:\n    for x in y:\n        try:\n            g()\n"
        "        except Exception:\n            pass\n"
    )
    assert walk(source) == [("m.py", "", ("Exception",))]
