"""No module imports a name at top level that it never uses, and starting
the command line imports no module it does not need."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Union, get_origin

import pytest

from decolog import calculus

ROOT = Path(__file__).resolve().parent.parent
MODULES = ([p for p in sorted((ROOT / "src" / "decolog").glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os", "c"]


def test_cli_start_up_leaves_out_dataclasses_and_inspect():
    """Importing the command line, as every decolog process does first,
    loads neither dataclasses nor what it pulls in (inspect, ast, dis):
    they cost a fresh process tens of milliseconds."""
    code = "import sys, decolog.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


#: The functions of src/ that call themselves: only the parser's, which
#: files.MAX_DEPTH bounds.
RECURSIVE = {("files.py", "_parse_element"), ("files.py", "_parse_deriv_node")}

#: The pairs of functions of src/ that call each other: the parser's term
#: and type levels, which files.MAX_DEPTH bounds, and, once per level of
#: nested pairs, the prover's moves inside a pair's components.
MUTUAL = {("files.py", ("_parse_primary", "_parse_term")),
          ("files.py", ("_parse_type_atom", "_parse_type_depth")),
          ("deduction.py", ("_all_moves", "_pair_rewrites"))}


def calls(source: str) -> dict[str, set[str]]:
    """Each function, methods and nested functions included, with the names
    it calls: by name, or as an attribute of self."""
    graph: dict[str, set[str]] = {}
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        called = graph.setdefault(func.name, set())
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and getattr(node.func.value, "id", None) == "self"):
                called.add(node.func.attr)
    return graph


def self_calls(source: str) -> set[str]:
    """The functions that call themselves."""
    return {name for name, called in calls(source).items() if name in called}


def call_cycles(source: str) -> set[tuple[str, str]]:
    """The pairs of two functions that call each other, each pair sorted."""
    graph = calls(source)
    return {tuple(sorted((f, g))) for f, called in graph.items() for g in called
            if g != f and f in graph.get(g, ())}


def test_one_term_walk():
    """No function of src/ calls itself, and no two call each other, but
    the depth-bounded parser and the known walks over pairs: terms and
    types are walked by calculus.walk and derivations by deduction.fold,
    each with an explicit stack, and the rest loop, so no depth of a
    composition or a derivation exhausts the recursion limit."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert {(name, f) for name, source in sources.items() for f in self_calls(source)} == RECURSIVE
    assert {(name, pair) for name, source in sources.items()
            for pair in call_cycles(source)} == MUTUAL


def test_recursion_scan_sees_every_kind_of_call():
    source = ("def a(t): return a(t.left) + 1\n"
              "def b(t):\n"
              "    def c(u): return [c(v) for v in u]\n"
              "    return c(t)\n"
              "class K(Base):\n"
              "    def __init__(self): super().__init__()\n"
              "    def e(self, t): return self.e(t.after)\n"
              "    def holds(self, check): return check.holds(self)\n"
              "def f(t): return g(t)\n"
              "def g(t): yield from g(t)\n")
    assert self_calls(source) == {"a", "c", "e", "g"}
    assert call_cycles(source) == set()


def test_cycle_scan_sees_two_functions_that_call_each_other():
    source = ("def f(t): return g(t.left)\n"
              "def g(t): return [f(u) for u in t]\n"
              "class K:\n"
              "    def p(self, t): return self.q(t)\n"
              "    def q(self, t):\n"
              "        def inner(u): return self.p(u)\n"
              "        return inner(t)\n"
              "def h(t): return f(t)\n"
              "def k(t): return other.h(t)\n")
    assert call_cycles(source) == {("f", "g"), ("p", "q")}
    assert self_calls(source) == set()


#: The typing.Union aliases of calculus: isinstance against one goes
#: through Union.__instancecheck__, several times slower than a tuple of
#: classes (calculus.TERM_CLASSES for terms).
UNION_ALIASES = {name for name, value in vars(calculus).items() if get_origin(value) is Union}


def union_checks(source: str) -> list[int]:
    """The lines of an isinstance call whose second argument is a Union
    alias, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            tested = node.args[1:]
            tested = tested[0].elts if tested and isinstance(tested[0], ast.Tuple) else tested
            if any(getattr(t, "id", None) in UNION_ALIASES for t in tested):
                found.append(node.lineno)
    return found


def test_no_isinstance_against_a_union():
    assert {"DecoratedTerm", "TypeExpr"} <= UNION_ALIASES
    found = {path.name: union_checks(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_union_scan_sees_every_kind_of_test():
    source = ("def a(t): return isinstance(t, DecoratedTerm)\n"
              "def b(t): return isinstance(t, (str, TypeExpr))\n"
              "def c(t): return isinstance(t, TERM_CLASSES)\n"
              "def d(t): return isinstance(t, Comp) or DecoratedTerm\n")
    assert union_checks(source) == [1, 2]


#: The functions of src/ that read an attribute named premises: fold, the
#: one walk over a derivation, and the checker's leave, which reads only
#: its rule's premise strengths (Rule.premises).
PREMISE_READERS = {("deduction.py", "fold"), ("deduction.py", "_check")}


def premise_walks(source: str) -> tuple[set[str], set[str]]:
    """The functions, methods and nested functions included, that read an
    attribute named premises, and those of them that call themselves, by
    name or as an attribute."""
    readers, recursive = set(), set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inside = list(ast.walk(func))
        if not any(isinstance(node, ast.Attribute) and node.attr == "premises"
                   for node in inside):
            continue
        readers.add(func.name)
        if any(isinstance(node, ast.Call) and func.name in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None))
               for node in inside):
            recursive.add(func.name)
    return readers, recursive


def test_one_derivation_walk():
    """No function of src/ that reads a derivation's premises calls itself,
    and only deduction.fold reads them: the checker, the printer, the
    duality and the command line walk a derivation through fold's
    callbacks, so no depth exhausts the recursion limit."""
    found = {path.name: premise_walks(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert {(name, f) for name, (_, recursive) in found.items() for f in recursive} == set()
    assert {(name, f) for name, (readers, _) in found.items() for f in readers} == PREMISE_READERS


def test_derivation_walk_scan_sees_every_kind_of_call():
    source = ("def a(d): return [a(p) for p in d.premises]\n"
              "def b(d):\n"
              "    def c(p): return [c(q) for q in p.premises]\n"
              "    return c(d)\n"
              "class K:\n"
              "    def e(self, d): return [self.e(p) for p in d.premises]\n"
              "def f(d): return len(d.premises)\n"
              "def g(d): return g(d.rule)\n")
    assert premise_walks(source) == ({"a", "b", "c", "e", "f"}, {"a", "c", "e"})


def traced_names(source: str) -> list[tuple[str, str]]:
    """The (module, function) pairs a tracer source rebinds by name: each
    entry of Tracer.TIMED, and each _patch call given both as literals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Tracer":
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(getattr(t, "id", None) == "TIMED" for t in stmt.targets)):
                    found += [tuple(ast.literal_eval(e)[:2]) for e in stmt.value.elts]
        elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch"
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            found.append((node.args[0].value, node.args[1].value))
    return found


def test_traced_names_exist():
    """Every function the benchmark's tracer rebinds exists in decolog: a
    renamed one would not be traced, and its metrics would read 0."""
    names = traced_names((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    assert ("calculus", "analyze_term") in names and ("semantics", "_candidates") in names
    missing = [(module, name) for module, name in names
               if not hasattr(importlib.import_module(f"decolog.{module}"), name)]
    assert missing == []


def test_traced_scan_sees_both_kinds_of_name():
    source = ("class Tracer:\n"
              "    TIMED = (('files', 'parse', True), ('semantics', 'holds', False))\n"
              "    def go(self, m, n):\n"
              "        self._patch('semantics', '_candidates', False, None)\n"
              "        self._patch(m, n, True, None)\n")
    assert traced_names(source) == [("files", "parse"), ("semantics", "holds"),
                                    ("semantics", "_candidates")]


def kept_kinds(source: str) -> dict[str, set[str]]:
    """Each kind of compiled state a module reads, the first argument of a
    ._kept( call, as its source, with the names and attributes it reads."""
    return {ast.unparse(kind): {getattr(n, "id", None) or n.attr for n in ast.walk(kind)
                                if isinstance(n, (ast.Name, ast.Attribute))}
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_kept"
            for kind in node.args[:1]}


def memo_reads(source: str) -> list[int]:
    """The lines that read an attribute named _analyses, or name it in a
    string, as a read through __dict__, vars() or getattr() does."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_analyses"
                  or isinstance(node, ast.Constant) and node.value == "_analyses")


def test_only_calculus_reads_the_analysis_memo():
    """A normal form has one path, calculus.normalize, which keeps it per
    term for the process: no other module reads a theory's analysis memo,
    and each reaches the compiled state only through Theory._kept."""
    found = {path.name: memo_reads(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert [name for name, lines in found.items() if lines] == ["calculus.py"]


def test_memo_scan_sees_every_kind_of_read():
    source = ("def a(t): return t._analyses.get(1)\n"
              "def b(t): return t.__dict__['_analyses']\n"
              "def c(t): return getattr(t, '_analyses')\n"
              "def d(t):\n"
              "    return vars(t).get('_analyses')\n"
              "def e(t): return t._kept(Op), t.analyses, '_analysis', analysis(t)\n")
    assert memo_reads(source) == [1, 2, 3, 5]


def test_no_compiled_state_is_keyed_by_a_traced_function():
    """No kind of a theory's compiled state names a function the benchmark's
    tracer rebinds: while it is traced, the name stands for the tracer's
    wrapper, so what was kept under the function would be missed.  The
    kinds src/ reads are the nine the README lists, each once."""
    traced = {name for _, name in traced_names(
        (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))}
    kinds: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "decolog").glob("*.py"):
        kinds.update(kept_kinds(path.read_text(encoding="utf-8")))
    assert "prove" in traced and set().union(*kinds.values()) & traced == set()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^- `([^`]+)`", readme[readme.index("The nine kinds"):
                                                 readme.index("A model's carriers")], re.M)
    assert len(listed) == 9 and set(listed) == set(kinds)


def test_compiled_key_scan_sees_every_kind_of_key():
    source = ("def a(t): return t._kept(Op)\n"
              "def b(t): return t._kept(semantics._Layout, key, build)\n"
              "def c(t): return t.theory._kept((Map, m.holds), d, build=f)\n"
              "def d(t): return t._kept, t.kept(X), _kept(Y), t.memo[Z], t._kept(build=g)\n")
    assert kept_kinds(source) == {"Op": {"Op"}, "semantics._Layout": {"semantics", "_Layout"},
                                  "(Map, m.holds)": {"Map", "m", "holds"}}


def raised_reprs(source: str) -> list[int]:
    """The lines of a raise whose f-string echoes a value with !r, which
    no length limit cuts: calculus.quoted echoes it instead."""
    return [node.lineno for stmt in ast.walk(ast.parse(source)) if isinstance(stmt, ast.Raise)
            for node in ast.walk(stmt)
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")]


def test_no_raise_echoes_a_repr():
    found = {path.name: raised_reprs(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_repr_scan_sees_a_raised_repr():
    source = ("def a(x): raise ValueError(f'bad {x!r}')\n"
              "def b(x): raise E(x, f'{x}: {quoted(x)}')\n"
              "def c(x): return f'{x!r}'\n")
    assert raised_reprs(source) == [1]


#: The one model-space walk: only _candidates iterates raw tables, and only
#: _admitted iterates _candidates, so no second generate-and-test loop can
#: grow beside the staged one.
MODEL_SPACE_CALLS = {("_candidates", "raw_tables"), ("_admitted", "_candidates")}


def functions_of(source: str) -> list[tuple[str, ast.AST]]:
    """A module's functions and methods by name, a method as Class.name."""
    tree = ast.parse(source)
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return functions + [(f"{cls.name}.{node.name}", node) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) for node in cls.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def calls_of(source: str, callees: set[str]) -> set[tuple[str, str]]:
    """The (function, callee) pairs where a module-level function or a
    method, nested functions included, calls one of callees by name or as
    an attribute."""
    found = set()
    for name, func in functions_of(source):
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in callees:
                    found.add((name, callee))
    return found


def test_one_model_space_walk():
    source = (ROOT / "src" / "decolog" / "semantics.py").read_text(encoding="utf-8")
    assert calls_of(source, {"raw_tables", "_candidates"}) == MODEL_SPACE_CALLS


def test_one_way_to_run_a_side():
    """Only _Side.run runs a side's steps (_run), so no evaluation skips the
    side's kept value or the conservation check before a value is kept."""
    source = (ROOT / "src" / "decolog" / "semantics.py").read_text(encoding="utf-8")
    assert calls_of(source, {"_run"}) == {("_Side.run", "_run")}


def test_run_scan_sees_every_kind_of_call():
    source = ("class S:\n"
              "    def run(self, t): return _run(self.steps, t)\n"
              "    def peek(self, t):\n"
              "        def inner(u): return semantics._run(self.steps, u)\n"
              "        return inner(t)\n"
              "def f(s, t): return (lambda: _run(s, t))()\n"
              "def g(s, t): return s.run(t), _running(s), _run\n")
    assert calls_of(source, {"_run"}) == {("S.run", "_run"), ("S.peek", "_run"), ("f", "_run")}


def orbit_searches(source: str) -> set[str]:
    """The functions that call _admitted with orbits given, by keyword or
    as its fourth argument."""
    return {name for name, func in functions_of(source) for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "_admitted"
            and (len(node.args) > 3 or any(k.arg == "orbits" for k in node.keywords))}


def test_only_the_countermodel_search_prunes_by_orbits():
    """Pruning by relabellings leaves out models, so only find_counterexample,
    which reports the first, turns it on: enumerate_models and the rule
    sweep list every model.  Only _admitted builds the relabellings it
    hands to _candidates."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "decolog").glob("*.py"))}
    assert {(name, f) for name, source in sources.items()
            for f in orbit_searches(source)} == {("semantics.py", "find_counterexample")}
    assert {(name, f) for name, source in sources.items()
            for f, _ in calls_of(source, {"relabellings"})} == {("semantics.py", "_admitted")}


def test_orbit_scan_sees_every_kind_of_call():
    source = ("def a(p, b): return _admitted(p, b, (), orbits=True)\n"
              "def b(p, b): return list(_admitted(p, b, (), True))\n"
              "def c(p, b): return semantics._admitted(p, b, least)\n"
              "class K:\n"
              "    def d(self, p): return semantics._admitted(p, Bounds(), orbits=False)\n")
    assert orbit_searches(source) == {"a", "b", "K.d"}


def test_model_space_scan_sees_every_kind_of_call():
    source = ("def _candidates(layout):\n"
              "    def walk(): yield from layout.raw_tables(1, 1, 1)\n"
              "    return walk()\n"
              "def _admitted(p): return [c for c in _candidates(p)]\n"
              "class L:\n"
              "    def spaces(self): return product(*[self.raw_tables(*s) for s in x])\n"
              "def other(p): return next(_candidates(p)), raw_shape(p)\n")
    assert calls_of(source, {"raw_tables", "_candidates"}) == {
        ("_candidates", "raw_tables"), ("_admitted", "_candidates"),
        ("L.spaces", "raw_tables"), ("other", "_candidates")}


def test_one_way_into_the_evaluator():
    """Only semantics compiles terms (_Program) and lifts raw tables (_lift):
    the rule sweep asks semantics._denotation for a term's table."""
    calls = {path.name: calls_of(path.read_text(encoding="utf-8"), {"_Program", "_lift"})
             for path in sorted((ROOT / "src" / "decolog").glob("*.py"))
             if path.name != "semantics.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def test_one_way_out_of_the_evaluator():
    """Numbers become labels only through _Layout.raw_labels, which alone
    builds rank-2 labels, and which only decode, number and a check's
    witness read."""
    source = (ROOT / "src" / "decolog" / "semantics.py").read_text(encoding="utf-8")
    assert calls_of(source, {"labels"}) == {("_Layout.raw_labels", "labels")}
    assert {caller for caller, _ in calls_of(source, {"raw_labels"})} == {
        "_Layout.decode", "_Layout.number", "_Check.witness"}


def uncalled_methods(source: str, cls: str) -> list[str]:
    """The methods of a module's class, but its dunders, that no call in
    the module names, by name or as an attribute."""
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}
    return [name for name, _ in functions_of(source) if name.startswith(f"{cls}.")
            and not name.endswith("__") and name.split(".", 1)[1] not in called]


def test_the_model_codec_keeps_no_sweep_only_method():
    """Every method of semantics._Layout, the one model codec, is called in
    semantics itself: one that only the rule sweep called would say again
    what the evaluator already says, as weak_variants restated weak
    equality beside weak_view."""
    source = (ROOT / "src" / "decolog" / "semantics.py").read_text(encoding="utf-8")
    assert uncalled_methods(source, "_Layout") == []


def test_uncalled_scan_sees_every_kind_of_call():
    source = ("class L:\n"
              "    def __init__(self): pass\n"
              "    def a(self): return self.b\n"
              "    def b(self): return c(self)\n"
              "    @classmethod\n"
              "    def d(cls): return cls()\n"
              "    def e(self): return self.f()\n"
              "    def f(self): pass\n"
              "class LL:\n"
              "    def g(self): return L.d()\n"
              "def c(x): return x.g(), x.b\n")
    assert uncalled_methods(source, "L") == ["L.a", "L.b", "L.e"]


def test_one_way_out_of_the_command_line():
    """Each command returns its exit code and report; cli.main alone reads
    --json and prints."""
    source = (ROOT / "src" / "decolog" / "cli.py").read_text(encoding="utf-8")
    assert {caller for caller, _ in calls_of(source, {"print"})} == {"main"}
    assert calls_of(source, {"_emit"}) == set()
    readers = {func.name for func in ast.parse(source).body
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Attribute) and node.attr == "json"
               and getattr(node.value, "id", None) == "args"}
    assert readers == {"main"}


#: The keys src/ writes into a Theory's instance __dict__: the op index and
#: the analysis memo, which also keeps the engines' compiled state
#: (Theory._kept), duality_map's mirror among it.
THEORY_STATE = {"_op_index", "_analyses"}


def dict_writes(source: str) -> set[str]:
    """The keys a module writes into an instance dict (x.__dict__ or
    vars(x)) by assignment or setdefault, each a string constant or else
    its source; any other call that changes such a dict, as its source."""
    def is_dict(node: ast.AST) -> bool:
        return (getattr(node, "attr", None) == "__dict__"
                or getattr(getattr(node, "func", None), "id", None) == "vars")
    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            keys += [target.slice for target in targets
                     if isinstance(target, ast.Subscript) and is_dict(target.value)]
        elif isinstance(node, ast.Call) and is_dict(getattr(node.func, "value", None)):
            method = node.func.attr
            keys += (node.args[:1] if method == "setdefault"
                     else [node] if method not in ("get", "items", "keys", "values") else [])
    return {key.value if isinstance(key, ast.Constant) else ast.unparse(key) for key in keys}


def test_one_place_for_hidden_theory_state():
    """No module keeps state of its own in a theory: what it computes from
    one, the mirror too, goes into the memo, which no ==, hash, repr, copy or
    pickle sees (tests/test_calculus.py, TestAnalysisMemo)."""
    written = set().union(*(dict_writes(path.read_text(encoding="utf-8"))
                            for path in (ROOT / "src" / "decolog").glob("*.py")))
    assert written == THEORY_STATE


def test_state_scan_sees_every_kind_of_write():
    source = ("def a(t): t.__dict__['x'] = 1\n"
              "def b(t): ops = t.__dict__['y'] = {}\n"
              "def c(t): return t.__dict__.setdefault('z', {})\n"
              "def d(t, k): vars(t)[k] = 2\n"
              "def e(t): t.__dict__.update(w=3)\n"
              "def f(t): t.__dict__['v'] += 1\n"
              "def g(t): return t.__dict__.get('u'), t.__dict__['s'], t.memo['r']\n"
              "def h(t): return vars(t).keys()\n")
    assert dict_writes(source) == {"x", "y", "z", "k", "t.__dict__.update(w=3)", "v"}


def equality_classes(source: str) -> set[str]:
    """The classes whose bodies define __eq__, __ne__ or __hash__, by def
    or by assignment (one target of several included)."""
    found = set()
    for cls in ast.walk(ast.parse(source)):
        for item in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                names = {node.id for node in ast.walk(item)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            else:
                continue
            if names & {"__eq__", "__ne__", "__hash__"}:
                found.add(cls.name)
    return found


def test_one_equality():
    """Equal terms, types and derivations are one object (calculus.Interned),
    so equality and hashing are by identity: no other class of src/ defines
    its own, and the plain Records keep the tuple's."""
    assert {(path.name, cls) for path in sorted((ROOT / "src" / "decolog").glob("*.py"))
            for cls in equality_classes(path.read_text(encoding="utf-8"))} == {
        ("calculus.py", "Interned")}


def test_equality_scan_sees_every_kind_of_definition():
    source = ("class A:\n    def __eq__(self, other): return True\n"
              "class B(tuple):\n    __hash__ = tuple.__hash__\n"
              "class C:\n    x, __ne__ = 1, None\n"
              "class D:\n    __hash__: object = None\n"
              "class E:\n    class F:\n        async def __hash__(self): pass\n"
              "        __eq__ = None\n"
              "class G:\n    def other(self): return self.__eq__ == __hash__\n"
              "    __slots__ = ()\n    y: int = 1\n")
    assert equality_classes(source) == {"A", "B", "C", "D", "F"}
