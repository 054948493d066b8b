"""Guard against dead parameters: every argument a function takes is read."""

import ast
from pathlib import Path

import tflab

SRC = Path(tflab.__file__).parent


def _unread_parameters(tree: ast.AST, filename: str) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{filename}:{fn.lineno} {fn.name}({p})" for p in params
                if p not in ("self", "cls") and p not in read]
    return out


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text()), path.name)
    assert not unread, "parameters never read:\n" + "\n".join(unread)


def test_guard_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *, c=1):\n    return a + (lambda: c)()\n")
    assert _unread_parameters(tree, "m.py") == ["m.py:1 f(b)"]
