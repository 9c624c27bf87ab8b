"""The public surface, pinned where a cut would otherwise go unseen."""

from __future__ import annotations

import ast
from pathlib import Path

import takegrant
from takegrant import ProtectionGraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_public_names_and_graph_methods_are_pinned():
    # Read with ast, never imported: the benchmark may change only with
    # the benchmark, so a surface cut must fail here first.
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "takegrant":
                imported.update(alias.name for alias in node.names)
    assert "bridge_exists" in imported
    assert sorted(imported - set(takegrant.__all__)) == []
    # Any change to the graph's public methods is a visible diff here.
    assert sorted(name for name in dir(ProtectionGraph) if not name.startswith("_")) == [
        "add_edge",
        "add_vertex",
        "edge_count",
        "edges",
        "objects",
        "rights_between",
        "subjects",
        "t_predecessors",
        "t_successors",
        "vertex_count",
        "vertex_id",
        "vertex_kind",
        "vertex_name",
    ]
