"""Module boundaries of the library, checked on its source with `ast`.

`integrate` owns the snap rule (`_SNAP`), the table reads and the lag
images; `system` owns the hypothesis numbers (coefficient pieces, jump
gaps), the rules on a spec's values (`validate`) and the one spec gate
(`require_valid`, the only holder of its message); the config parser in
`cli` checks JSON structure only.  Modules reach each other only through
names without a leading underscore.  Runtime invariants raise errors rather than `assert`, so they
hold under `python -O`.  The RK4 sweep, `integrate._batch_columns`, keeps
its chunk and block loops only; its parts are module-level functions.
"""

import ast
from pathlib import Path

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in (Path(__file__).resolve().parents[1]
                      / "src" / "impulsedde").glob("*.py")}


def test_no_module_imports_a_private_name_from_integrate():
    private = [(name, alias.name)
               for name, tree in TREES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "integrate" and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [(name, node.module, alias.name)
               for name, tree in TREES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_snap_tolerance_occurs_only_in_integrate():
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    holders = sorted(name for name, tree in TREES.items()
                     if "_SNAP" in names(tree))
    assert holders == ["integrate.py"]


def test_the_spec_gate_message_occurs_only_in_system():
    holders = sorted({name for name, tree in TREES.items()
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and node.value == "invalid spec: "})
    assert holders == ["system.py"]


def test_the_cli_holds_no_rule_on_a_specs_values():
    # shapes, counts per break and break order are checked by validate; the
    # parser's own SchemaError messages speak of JSON structure only
    phrases = ("increasing", "per break", "length", " x ", "matrix")
    messages = [part.value for node in ast.walk(TREES["cli.py"])
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "SchemaError"
                for part in ast.walk(node)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)]
    assert "unknown key" in messages
    assert [m for m in messages if any(p in m for p in phrases)] == []


def test_no_assert_statements_in_the_library():
    asserts = [(name, node.lineno)
               for name, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_the_sweep_loop_defines_no_nested_functions():
    # the sweep's parts are module-level functions of one chunk state, so
    # one window or one plan can be run, and tested, on its own
    sweep = next(node for node in ast.walk(TREES["integrate.py"])
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_batch_columns")
    nested = [node.name for node in ast.walk(sweep) if node is not sweep
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda))]
    assert nested == []
