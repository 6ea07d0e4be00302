"""Module boundaries of the library, checked on its source with `ast`.

`integrate` owns the snap rule (`_SNAP`), the table reads, the lag
images and the source g = r - sum_i A_i phi(. - theta_i); `system` owns the hypothesis numbers (coefficient pieces, jump
gaps), the rules on a spec's values (`validate`) and the one spec gate
(`require_valid`, the only holder of its message); the config parser in
`cli` checks JSON structure only.  Modules reach each other only through
names without a leading underscore.  Runtime invariants raise errors rather than `assert`, so they
hold under `python -O`.  The RK4 sweep, `integrate._batch_columns`, keeps
its chunk and block loops only; its parts are module-level functions.
Each public name is declared once, in its module's `__all__`, and the
package re-exports those lists without restating them.
The code lines of `integrate` and of the package stay under ceilings, so
that growth shows in the diff that raises them, and one estimate refuses
every sweep over its memory budget.
"""

import ast
import importlib
import io
import tokenize
from collections import Counter
from pathlib import Path

SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in (Path(__file__).resolve().parents[1]
                        / "src" / "impulsedde").glob("*.py")}
TREES = {name: ast.parse(source) for name, source in SOURCES.items()}

# code lines at most, as `code_lines` counts them
CEILINGS = {"integrate.py": 800, "package": 1958}


def code_lines(source: str) -> int:
    """The physical lines of `source` that hold a token other than a
    comment, a docstring or a blank: a statement over three lines counts
    three, a docstring none."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def test_code_lines_count_tokens_other_than_comments_and_docstrings():
    source = ('"""Module docstring,\n'
              'two lines."""\n'
              "\n"
              "# a comment\n"
              "def f(x):  # a trailing comment\n"
              '    """Docstring."""\n'
              "    return (x\n"
              "            + 1)\n"
              "\n"
              'TEXT = """a string over\n'
              'two lines"""\n')
    assert code_lines(source) == 5


def test_the_library_stays_under_its_code_line_ceilings():
    counts = {name: code_lines(source) for name, source in SOURCES.items()}
    counts["package"] = sum(counts.values())
    over = {name: counts[name] for name, ceiling in CEILINGS.items()
            if counts[name] > ceiling}
    assert over == {}


def test_each_public_name_is_declared_once_in_its_modules_all():
    # the package re-exports exactly its modules' `__all__` lists, each name
    # from the one module that declares it, and restates no list of its own
    import impulsedde

    modules = [importlib.import_module(f"impulsedde.{name[:-3]}")
               for name in sorted(SOURCES) if name != "__init__.py"]
    owners = Counter(name for module in modules for name in module.__all__)
    exported = set(impulsedde.__all__) - {"__version__"}
    assert {name: owners[name] for name in exported if owners[name] != 1} == {}
    assert exported == set(owners)
    assert [(module.__name__, name) for module in modules
            for name in module.__all__
            if getattr(impulsedde, name) is not getattr(module, name)] == []
    init = TREES["__init__.py"]
    strings = [node.value for node in ast.walk(init)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert sorted(strings) == sorted([ast.get_docstring(init, clean=False),
                                      "__version__", impulsedde.__version__])


def test_one_refusal_path_names_the_memory_budget():
    # every sweep, dense or not, is sized and refused by one estimate in
    # `integrate._batch_columns`
    holders = {name: source.count("more than the memory budget")
               for name, source in SOURCES.items()
               if "more than the memory budget" in source}
    assert holders == {"integrate.py": 1}


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


def test_the_source_convention_has_one_owner():
    # the forcing minus the history reads, with phi = 0 on [0, inf), is
    # built by `integrate.source_table` alone; the representation and the
    # stability layers read neither field of a spec
    reads = [(name, node.attr, node.lineno)
             for name in ("represent.py", "stability.py")
             for node in ast.walk(TREES[name])
             if isinstance(node, ast.Attribute)
             and node.attr in ("forcing", "phi")]
    assert reads == []


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
