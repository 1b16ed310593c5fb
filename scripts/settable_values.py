#!/usr/bin/env python3
"""List the settable values of the library and who sets them.

A settable value is a parameter of a function or method in
``src/l2torsion/`` that has a default, or a field of a dataclass there that
has one. For each, the script finds the call sites in ``src/``, ``tests/``,
``scripts/`` and ``benchmark/`` that set it: by keyword, by position, or
through ``*args`` (every positional slot from the star on) or ``**kwargs``
(every parameter). Calls are matched by the last name of the callee
(``f(...)`` and ``x.f(...)`` both call every definition named ``f``), a class
call sets its dataclass fields or ``__init__`` parameters, and
``replace(x, name=...)`` sets every dataclass field called ``name``. The
match is by name only, so it errs towards finding a setter. A site that
passes on, by bare name, a defaulted parameter of the library function it
sits in sets the entry only if that parameter is set in turn.

It prints, for parameters and for fields, the totals and the entries that
nothing sets, each with the sites that pass it on. Usage, from anywhere:

    python3 scripts/settable_values.py
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join("src", "l2torsion")
CALLER_DIRS = ("src", "tests", "scripts", "benchmark")


@dataclass(eq=False)
class Entry:
    """One defaulted parameter or dataclass field."""

    kind: str  # "param" or "field"
    owner: str  # module:qualified name of the function or class
    name: str
    # (call site, the entry whose value the site passes on, or None when the
    # site gives a value of its own)
    setters: list = field(default_factory=list)
    is_set: bool = False


@dataclass
class Definition:
    """A definition that a call can reach, by its last name."""

    params: list  # the parameters in call order, after self or cls
    keyword_only: set
    entries: dict  # parameter name -> Entry, for the defaulted ones


def _python_files(top: str):
    for base, dirs, files in os.walk(os.path.join(ROOT, top)):
        dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                yield os.path.relpath(path, ROOT), path


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _decorators(node) -> set:
    return {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}


def _function(owner: str, node, method: bool) -> Definition:
    args = node.args
    positional = args.posonlyargs + args.args
    if method and "staticmethod" not in _decorators(node):
        positional = positional[1:]  # self or cls
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return Definition([a.arg for a in positional], {a.arg for a in args.kwonlyargs},
                      {a.arg: Entry("param", owner, a.arg) for a in defaulted})


def _dataclass_fields(owner: str, node: ast.ClassDef) -> Definition:
    params, entries = [], {}
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        name = stmt.target.id
        params.append(name)
        if stmt.value is not None:
            entries[name] = Entry("field", owner, name)
    return Definition(params, set(), entries)


def definitions() -> tuple:
    """The definitions in the library: by the last name a call reaches them
    by, and those of functions by (file, line)."""
    by_name, by_line = defaultdict(list), {}
    for rel, path in _python_files(LIBRARY):
        module = os.path.splitext(os.path.basename(rel))[0]

        def visit(node, prefix: str, cls: str | None):
            for child in ast.iter_child_nodes(node):
                qual = f"{prefix}{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    d = _function(f"{module}:{qual}", child, cls is not None)
                    by_name[cls if child.name == "__init__" and cls else child.name].append(d)
                    by_line[rel, child.lineno] = d
                    visit(child, f"{qual}.", None)
                elif isinstance(child, ast.ClassDef):
                    if _is_dataclass(child):
                        by_name[child.name].append(_dataclass_fields(f"{module}:{qual}", child))
                    visit(child, f"{qual}.", child.name)

        visit(_parse(path), "", None)
    return by_name, by_line


def _callee(call: ast.Call, cls: str | None) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return cls if f.id == "cls" and cls else f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _set_by(call: ast.Call, target: Definition) -> list:
    """(name, value) of each of ``target``'s defaulted parameters that
    ``call`` sets; the value is None when it comes through * or **."""
    hit = []
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            hit += [(p, None) for p in target.params[k:] if p not in target.keyword_only]
            break
        if k < len(target.params):
            hit.append((target.params[k], arg))
    for kw in call.keywords:
        hit += [(p, None) for p in target.entries] if kw.arg is None else [(kw.arg, kw.value)]
    return [(p, v) for p, v in hit if p in target.entries]


def _passed_on(value, inside: Definition | None) -> Entry | None:
    """The defaulted parameter of ``inside`` that ``value`` names, if any."""
    if inside is None or not isinstance(value, ast.Name):
        return None
    return inside.entries.get(value.id)


def entries() -> list:
    """Every entry, with its setters and whether a value reaches it (a
    value threaded down from a caller that never gives one sets nothing)."""
    by_name, by_line = definitions()
    fields = defaultdict(list)
    for defs in by_name.values():
        for d in defs:
            for e in d.entries.values():
                if e.kind == "field":
                    fields[e.name].append(e)
    for top in CALLER_DIRS:
        for rel, path in _python_files(top):

            def visit(node, cls: str | None, inside: Definition | None):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        visit(child, child.name, None)
                        continue
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit(child, cls, by_line.get((rel, child.lineno)))
                        continue
                    if isinstance(child, ast.Call):
                        site = f"{rel}:{child.lineno}"
                        name = _callee(child, cls)
                        for target in by_name.get(name, ()):
                            for p, value in _set_by(child, target):
                                target.entries[p].setters.append(
                                    (site, _passed_on(value, inside)))
                        if name == "replace":
                            for kw in child.keywords:
                                for e in fields.get(kw.arg, ()):
                                    e.setters.append((site, _passed_on(kw.value, inside)))
                    visit(child, cls, inside)

            visit(_parse(path), None, None)
    out = [e for defs in by_name.values() for d in defs for e in d.entries.values()]
    changed = True
    while changed:
        changed = False
        for e in out:
            if not e.is_set and any(v is None or v.is_set for _, v in e.setters):
                e.is_set = changed = True
    return sorted(out, key=lambda e: (e.kind, e.owner, e.name))


def main() -> int:
    found = entries()
    for kind, label in (("param", "defaulted parameters"), ("field", "defaulted dataclass fields")):
        of_kind = [e for e in found if e.kind == kind]
        unset = [e for e in of_kind if not e.is_set]
        print(f"{label}: {len(of_kind)}, set by no caller: {len(unset)}")
        for e in unset:
            print(f"  {e.owner}({e.name})")
            for site, v in e.setters:  # an unset entry is only passed on
                print(f"      {site} (passes on {v.owner}({v.name}))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
