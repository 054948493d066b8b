"""Guard against dead options and dead API: every argument a function takes
is read, every sweep config field is read by the code that runs a sweep and
set by some run, every CLI option is passed by some test, and every name the
package exports is reached by the package, the acceptance tests or the
benchmark."""

import argparse
import ast
import dataclasses
from pathlib import Path

import tflab
from tflab.cli import build_parser
from tflab.lab import SweepConfig

SRC = Path(tflab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _loads(node: ast.AST, base: str) -> set[str]:
    """Attribute names loaded from the variable `base` inside node."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name) and n.value.id == base}


def _read_config_fields(tree: ast.AST) -> set[str]:
    """Attributes loaded from `cfg`, or from `self` in a SweepConfig method
    other than `__post_init__`: a field that is only validated is not read."""
    read = _loads(tree, "cfg")
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SweepConfig":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name != "__post_init__":
                    read |= _loads(fn, "self")
    return read


def _unread_config_fields(sources) -> list[str]:
    read = set()
    for text in sources:
        read |= _read_config_fields(ast.parse(text))
    return [f.name for f in dataclasses.fields(SweepConfig) if f.name not in read]


def test_every_sweep_config_field_is_read():
    # `seed` is kept for callers that pass it; no sweep reads it
    unread = _unread_config_fields(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert unread == ["seed"], f"SweepConfig fields never read: {unread}"


def test_config_guard_flags_a_validated_only_field():
    text = ("class SweepConfig:\n"
            "    def __post_init__(self):\n"
            "        assert self.seed >= 0\n"
            "    def resolved_alpha(self):\n"
            "        return self.alpha\n"
            "def run(cfg):\n"
            "    return cfg.theorem, cfg.eps\n")
    unread = _unread_config_fields([text])
    assert "seed" in unread and "grid_n" in unread
    assert not {"alpha", "theorem", "eps"} & set(unread)


def _unset_config_fields(fields, sources) -> list[str]:
    """Fields that no `SweepConfig(...)` call in the sources passes by keyword."""
    passed = set()
    for text in sources:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Call) and "SweepConfig" in (
                    getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                passed |= {kw.arg for kw in n.keywords}
    return [f for f in fields if f not in passed]


def test_every_sweep_config_field_is_set_by_a_run():
    # a field that only unit tests set is a constant in disguise
    paths = [SRC / "cli.py", ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "bench").glob("*.py"))]
    unset = _unset_config_fields(
        [f.name for f in dataclasses.fields(SweepConfig)],
        (p.read_text() for p in paths))
    assert not unset, f"SweepConfig fields no run sets: {unset}"


def test_config_guard_flags_a_field_no_run_sets():
    text = ("cfg = lab.SweepConfig(theorem='T1', grid_n=4096)\n"
            "SweepConfig(eps=0.5)\n"
            "other(window_pad=1.0)\n")
    fields = ["theorem", "grid_n", "eps", "window_pad"]
    assert _unset_config_fields(fields, [text]) == ["window_pad"]


def _unpassed_options(parser: argparse.ArgumentParser, sources) -> list[str]:
    """`command --option` pairs whose option no string in the sources
    passes, alone or as `--option=value` (one per line of a flags file)."""
    passed = set()
    for text in sources:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                for line in n.value.splitlines():
                    passed.add(line.partition("=")[0])
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out += [f"{name} {opt}" for a in sub._actions
                        for opt in a.option_strings
                        if opt.startswith("--") and opt != "--help"
                        and opt not in passed]
    return out


def test_every_cli_option_is_passed_by_a_test():
    # an option that no test passes is either dead or untested
    unpassed = _unpassed_options(
        build_parser(),
        (p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))))
    assert not unpassed, f"CLI options no test passes: {unpassed}"


def test_option_guard_flags_an_option_no_test_passes():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers()
    p = sub.add_parser("run")
    for opt in ("--grid-n", "--eps", "--seed", "--lam-family"):
        p.add_argument(opt)
    text = ('main(["run", "--grid-n", "8"])\n'
            'flags.write_text("--seed=1\\n--eps=0.5\\n")\n'
            'main(["run", "--lam=2"])\n')
    assert _unpassed_options(ap, [text]) == ["run --lam-family"]


def _names_loaded(tree: ast.Module) -> set[str]:
    """Names loaded, as a name or an attribute, in a module; a top-level def
    or class does not reach itself."""
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name = n.id
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                name = n.attr
            else:
                continue
            if name != own:
                out.add(name)
    return out


def _wrapped(tracer: ast.Module) -> set[str]:
    """Top-level names in the benchmark tracer's WRAPPED list."""
    for stmt in tracer.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in stmt.targets):
            return {attr.split(".")[0]
                    for _, attr, _ in ast.literal_eval(stmt.value)}
    return set()


def _unreached_exports(init_text: str, sources, tracer_text: str) -> list[str]:
    reached = _wrapped(ast.parse(tracer_text))
    for text in sources:
        reached |= _names_loaded(ast.parse(text))
    return [a.asname or a.name for stmt in ast.parse(init_text).body
            if isinstance(stmt, ast.ImportFrom) for a in stmt.names
            if (a.asname or a.name) not in reached]


def test_every_export_is_reached():
    # `tree_size` is the one direct test of `_tree_size`'s lacunary-error
    # branch, which single_tree_bound relies on
    paths = [*sorted(SRC.glob("*.py")), ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "bench").glob("*.py"))]
    unreached = _unreached_exports(
        (SRC / "__init__.py").read_text(), (p.read_text() for p in paths),
        (ROOT / "bench" / "tracer.py").read_text())
    assert unreached == ["tree_size"], f"exports nothing reaches: {unreached}"


def test_export_guard_flags_an_unreached_function():
    init = "from .m import f, g, h, k\n"
    package = ("def f(n):\n"
               "    return f(n - 1)\n"  # a recursive call does not reach f
               "def g():\n"
               "    return h()\n")
    run = "import tflab\ntflab.g()\n"
    tracer = 'WRAPPED = [("m", "k.method", "m.k.method")]\n'
    assert _unreached_exports(init, [package, run], tracer) == ["f"]
