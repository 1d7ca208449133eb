"""Every function of the library, and every defaulted parameter, is reached
by the library or the benchmark.

A function or method that only the tests name is code no check and no CLI
path runs: it goes, or it moves into the tests that use it.  The sweep is by
name, so it is coarse: a method counts as reached when anything of the same
name is named anywhere outside its own body.  Likewise a defaulted parameter
counts as set when some call of a function or method of that name passes it.
"""

import ast
import inspect
import re
from pathlib import Path

from steinberg import cases
from steinberg.report import Emitter

ROOT = Path(__file__).resolve().parents[1]

# Kept on purpose: the README promises the round trip of the BWB tables.
ALLOWED = {"serialize_tables"}


def _names(tree):
    """(name, line) of every ast.Name and ast.Attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_library_function_is_named_outside_the_tests():
    library = sorted((ROOT / "src" / "steinberg").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert library and bench
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in library + bench}
    uses = {path: list(_names(tree)) for path, tree in trees.items()}
    unreached = []
    for path in library:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in ALLOWED:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and not (where == path and line in body)
                       for where, names in uses.items() for used, line in names):
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert not unreached, unreached


# Defaulted parameters kept although no call in the library or the benchmark
# sets them, as (function, parameter): reason.
UNSET_ALLOWED = {
    ("main", "argv"): "the command-line entry point, called with argv by the tests",
    ("add", "not_decidable"): "the status ROADMAP item 2 gives the undecidable BWB rows",
}


def _defined(tree):
    """(node, name callers use, kind) of every function in tree, where kind
    is 'method' for one called on an object or class, 'nested' for one
    defined inside another function, and 'function' otherwise.  An
    __init__ is called by its class's name."""
    def visit(node, kind):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, "method")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if kind == "method" and child.name == "__init__":
                    yield child, node.name, "function"
                else:
                    yield child, child.name, kind
                yield from visit(child, "nested")
            else:
                yield from visit(child, kind)
    yield from visit(tree, "function")


def _calls(tree):
    """(called name, whether called as an attribute, call node) of every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, False, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, True, node


def _sets(call, params, name, offset):
    """Whether a call passes the parameter `name` of a function whose
    positional parameters are `params`, the first `offset` of them bound
    before the call (self or cls): by an explicit keyword, or by a
    positional argument before the first starred one.  What a * or **
    argument unpacks cannot be read off the call, so it sets nothing."""
    if any(k.arg == name for k in call.keywords):
        return True
    plain = next((k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    return name in params[offset:offset + plain]


def test_a_starred_call_sets_only_what_it_spells_out():
    params = list(inspect.signature(Emitter.add).parameters)

    def sets(text):
        return _sets(ast.parse(text, mode="eval").body, params, "not_decidable", 1)

    assert not sets("x.add(*terms)")
    assert not sets("x.add(*terms, **options)")
    assert not sets("x.add('id', True, *rest)")
    assert sets("x.add(*terms, not_decidable=True)")
    assert sets("x.add('id', True, '', '', '', False, True, *rest)")


def test_every_defaulted_parameter_is_set_by_some_call():
    """A defaulted parameter that no call in the library or the benchmark
    passes is a knob nothing turns: it goes, with the code it selects."""
    library = sorted((ROOT / "src" / "steinberg").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in library + bench}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unset = {}
    for path in library:
        for node, called_as, kind in _defined(trees[path]):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            defaulted = params[len(params) - len(args.defaults):] + \
                [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
            offset = 1 if kind == "method" and "staticmethod" not in decorators or \
                node.name == "__init__" else 0
            for name in defaulted:
                if not any(called == called_as and _sets(call, params, name, offset)
                           and (kind == "function" or attr == (kind == "method"))
                           for called, attr, call in calls):
                    unset[called_as, name] = f"{path.name}:{node.lineno}"
    stale = sorted(set(UNSET_ALLOWED) - set(unset))
    assert not stale, f"allowed but set by some call, or gone: {stale}"
    knobs = sorted(f"{where} {fn}({name})" for (fn, name), where in unset.items()
                   if (fn, name) not in UNSET_ALLOWED)
    assert not knobs, knobs


COUNTERS = "work counters pinned by the Groebner tests, for ROADMAP item 11's profile"

# Record fields kept although only the tests read them, as (class, field):
# reason.
FIELDS_ALLOWED = {
    ("ExtendCertificate", "chain"): "the certified chain, asserted by the extension tests",
    ("GroebnerStats", "coprime_skips"): COUNTERS,
    ("GroebnerStats", "chain_skips"): COUNTERS,
    ("GroebnerStats", "zero_reductions"): COUNTERS,
    ("GroebnerStats", "split_degrees"): "the degrees reduced on two processes, asserted by "
                                        "the split tests",
}

# Every record class of the library: a subclass of fieldops.Record or Frozen.
RECORDS = {
    "weights": {"WeylElement", "Singular", "Located", "OutsideLocus", "ClassGroupElement"},
    "breps": {"WeightMultiset"},
    "bwb": {"GrothendieckElement", "TableRow", "CohomologyTable"},
    "liealg": {"BasedRep", "QuotientRep", "ExtendCertificate"},
    "polyalg": {"GroebnerStats", "IdealBasis", "GradedDims"},
    "cases": {"IdealCase", "CaseData", "ParamReport", "CnReport"},
    "report": {"CheckEntry", "Report"},
}


def _record_fields(tree):
    """(class, field, line) of every field of every record class in tree:
    the names in the `__slots__` of a class based on Record or Frozen."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name != "Frozen" and any(
                isinstance(b, ast.Name) and b.id in ("Record", "Frozen") for b in cls.bases):
            yield cls.name, None, cls.lineno
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and \
                        [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["__slots__"]:
                    for elt in stmt.value.elts:
                        yield cls.name, elt.value, stmt.lineno


def test_every_record_field_is_read_outside_the_tests():
    """A record field that nothing in the library or the benchmark reads as
    an attribute is data no check and no report reads: it goes.  The sweep
    is by name, so it is coarse: any attribute of the same name read
    anywhere in the library or the benchmark counts, as does a
    getattr(obj, "name") with the name written out.  An assignment, plain or
    augmented, is no read."""
    library = sorted((ROOT / "src" / "steinberg").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in library + bench}
    named = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    named |= {node.args[1].value for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)}
    found, unread = {}, {}
    for path in library:
        for cls, name, line in _record_fields(trees[path]):
            found.setdefault(path.stem, set()).add(cls)
            if name is not None and name not in named:
                unread[cls, name] = f"{path.name}:{line}"
    assert found == RECORDS
    stale = sorted(set(FIELDS_ALLOWED) - set(unread))
    assert not stale, f"allowed but read outside the tests, or gone: {stale}"
    fields = sorted(f"{where} {cls}.{name}" for (cls, name), where in unread.items()
                    if (cls, name) not in FIELDS_ALLOWED)
    assert not fields, fields


def test_no_code_generated_at_import():
    """The library writes its classes out in its source: nothing in it
    generates code (exec, eval, compile) or builds a class from a list of
    fields (dataclass, namedtuple, NamedTuple)."""
    word = re.compile(r"\b(exec|eval|compile)\(|dataclass|namedtuple|NamedTuple")
    sites = sorted(f"{path.name}:{k} {hit.group()}"
                   for path in sorted((ROOT / "src" / "steinberg").glob("*.py"))
                   for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                   for hit in word.finditer(line))
    assert not sites, sites


def test_importing_the_cli_loads_no_code_generator(run_python):
    """A fresh interpreter that imports the CLI and the campaigns has loaded
    neither dataclasses nor inspect."""
    done = run_python("-c", "import sys, steinberg.cli, steinberg.campaigns; "
                            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert done.stdout == "[]\n", done.stderr


def _lru_cache_refs(node):
    """How many times node, or anything inside it, names lru_cache."""
    return sum(isinstance(n, ast.Name) and n.id == "lru_cache"
               or isinstance(n, ast.Attribute) and n.attr == "lru_cache"
               for n in ast.walk(node))


def test_no_lru_cache_in_the_library():
    """An lru_cache outlives the run, is not emptied with the per-run store
    and is no plain function, so a tracer that wraps plain functions misses
    it.  The library uses none: run data goes in the one per-run store of
    cases, which clear_case_memo empties, and a per-characteristic constant
    in a plain dict of its module.  Every function cases memoizes is a plain
    function."""
    sites = [path.name for path in sorted((ROOT / "src" / "steinberg").glob("*.py"))
             if _lru_cache_refs(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not sites, f"lru_cache used in {sites}"
    tree = ast.parse((ROOT / "src" / "steinberg" / "cases.py").read_text(encoding="utf-8"))
    memoized = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.decorator_list]
    assert memoized
    assert [name for name in memoized if not inspect.isfunction(getattr(cases, name))] == []


def test_no_import_inside_a_function():
    """Every import sits at the top of its module, where the dependencies
    between the library's modules can be read."""
    sites = set()
    for path in sorted((ROOT / "src" / "steinberg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites |= {f"{path.name}:{n.lineno}" for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))}
    assert not sites, sorted(sites)
