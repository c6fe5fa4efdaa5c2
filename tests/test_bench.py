"""The benchmark looks up every function it traces by module and name, on
every run; its self-test fails when one of those names is renamed or
removed from the package, so such a change fails here first.  The names
and keyword arguments the benchmark calls directly on the program are
checked here too, by reading its source."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def program():
    """What bench/run.py's load_program returns, with the environment and
    sys.path it sets restored afterwards."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with pytest.MonkeyPatch.context() as mp:
        for var in run.BLAS_VARS:
            mp.setenv(var, "1")
        mp.setattr(sys, "path", list(sys.path))
        yield run.load_program()


def chain(node):
    """The names of an attribute chain p.a.b as ("a", "b"), or None when
    node is not one rooted at the name p."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return tuple(reversed(names)) if isinstance(node, ast.Name) and node.id == "p" and names else None


def is_program(func):
    """Whether p names the program inside func: one of its parameters, or
    assigned the result of load_program()."""
    args = func.args
    if "p" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
        return True
    return any(
        isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["p"]
        and isinstance(node.value, ast.Call) and ast.unparse(node.value.func).endswith("load_program")
        for node in ast.walk(func)
    )


def program_uses():
    """(where, chain, keywords) for every attribute chain rooted at the
    program in bench/*.py; keywords are those of a call made on the chain."""
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or not is_program(func):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and chain(node):
                    uses.add((f"{path.name}:{node.lineno}", chain(node), ()))
                elif isinstance(node, ast.Call) and chain(node.func):
                    keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
                    uses.add((f"{path.name}:{node.lineno}", chain(node.func), keywords))
    return sorted(uses)


def accepts(func, keyword) -> bool:
    params = inspect.signature(func).parameters.values()
    return any(
        p.kind is p.VAR_KEYWORD or (p.name == keyword and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        for p in params
    )


def test_every_name_and_keyword_the_bench_calls_exists(program):
    uses = program_uses()
    # the parse must see the benchmark's calls, or this test checks nothing
    assert (("encoder", "load_checkpoint"), ("expected_config",)) in {(c, k) for _, c, k in uses}
    assert len(uses) > 40
    missing = []
    for where, names, keywords in uses:
        obj = program
        for i, name in enumerate(names):
            if not hasattr(obj, name):
                missing.append(f"{where}: p.{'.'.join(names[: i + 1])} does not exist")
                break
            obj = getattr(obj, name)
        else:
            missing += [f"{where}: p.{'.'.join(names)}() takes no keyword {k!r}" for k in keywords if not accepts(obj, k)]
    assert not missing, "\n".join(missing)
