"""The benchmark tracer (perfbench/tracing.py) wraps hullkit names by
``getattr`` on their owners; each one must still exist, or ``--trace 1``
fails before the first span.  Those targets are also the only imports a
module may keep without using them."""
import ast
import importlib.util
from pathlib import Path

import hullkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCE = Path(hullkit.__file__).resolve().parent


def _targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling harness
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._targets(hullkit)


def test_tracer_targets_resolve(monkeypatch):
    targets = _targets(monkeypatch)
    assert targets
    for owner, attr, site, _, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{site}: {owner!r} has no {attr!r}"


def test_every_import_is_used_or_traced(monkeypatch):
    wrapped = {(owner.__name__, attr) for owner, attr, *_ in _targets(monkeypatch)}
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"hullkit.{path.stem}"
        unused = {name for name in imported - used if (module, name) not in wrapped}
        assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_invariant_takes_from_minweight_only_the_gate_the_producer_and_traced_names(monkeypatch):
    # invariant reads packed words from the gate and from minweight._words; it
    # packs nothing itself and calls no public int enumeration
    allowed = {"WeightDistribution", "_scan", "_two_set_rows", "_words"}
    allowed |= {attr for owner, attr, *_ in _targets(monkeypatch) if owner is hullkit.invariant}
    tree = ast.parse((SOURCE / "invariant.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "minweight"
                for a in node.names}
    assert imported and imported <= allowed, f"invariant imports {sorted(imported - allowed)} from minweight"


def test_search_takes_only_traced_names_from_minweight(monkeypatch):
    # the gate is reached through invariant's certificate; search keeps from
    # minweight only the names the tracer wraps on it
    wrapped = {attr for owner, attr, *_ in _targets(monkeypatch) if owner is hullkit.search}
    tree = ast.parse((SOURCE / "search.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "minweight"
                for a in node.names}
    assert imported and imported <= wrapped, f"search imports {sorted(imported - wrapped)} from minweight"
