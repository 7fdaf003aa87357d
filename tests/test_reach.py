"""Every function and method of froblat is reached by a command.

A profile hook records each call while the golden argv lists, the
README's command examples (plus ``theta --primes``) and the demos run
in one fresh interpreter, so no cache filled by another test hides a
call.  The module-level functions and class methods it never sees are
exactly the names of UNREACHED, each kept for the reason given; the
dunders a dataclass generates are not counted.  Run
``python tests/test_reach.py`` to print them.
"""

import contextlib
import importlib
import inspect
import io
import os
import pathlib
import pkgutil
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

UNREACHED = {
    "crystals.check_DR": "bench/tracing.py hooks it; the oracle of the "
                         "span certificate",
    "enumeration.short_vectors": "bench/tracing.py hooks it; the oracle "
                                 "of the walk's order pins",
    "crystals._blocked": "error path: precision blocks a verdict",
    "regression.split_equal_decay_indices": "the decay_matrix benchmark "
                                            "workload calls it",
    "cli.main": "the console entry point",
    "cli.KeyVals.__missing__": "error path: a config without a key",
    "cli.KeyVals.error": "error path: a bad config value",
    "cli._Parser.error": "error path: a usage error as one record",
    "errors.Indeterminate.__init__": "error path: precision blocks a "
                                     "verdict",
    "errors.NotFound.__init__": "error path: no span is certified",
    "eisenstein.EisResult.midpoint": "the cusp_pdet5 benchmark workload "
                                     "reads it",
    "eisenstein.EisResult.radius": "the cusp_pdet5 benchmark workload "
                                   "reads it",
    "padics.PAdicParams.zero": "the exact zero of from_int(0) and of a "
                               "product with 0; no command makes one",
    "padics.PAdicScalar.residue": "a test oracle of teichmuller and "
                                  "frobenius",
}


def _argv_lists():
    """The golden argv lists, the README's examples and theta --primes."""
    from test_golden import GOLDEN
    readme = (ROOT / "README.md").read_text().split("## Command line")[1]
    examples = [line.split("#")[0].split()[1:]
                for line in readme.split("```")[1].splitlines()
                if line.startswith("froblat ")]
    primes = ["theta", "--lattice", "fixtures/z5.gram", "--max", "100",
              "--primes"]
    argvs = list(GOLDEN.values()) + examples + [primes]
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


def _function_of(member):
    """The function a class attribute holds: a method, a class or static
    method's function, or a property's getter; None for anything else."""
    fn = member.fget if isinstance(member, property) \
        else getattr(member, "__func__", member)
    return fn if inspect.isfunction(fn) else None


def unreached():
    """Names module.function and module.Class.method of froblat that no
    command calls."""
    import froblat
    from froblat.cli import dispatch
    functions = {}
    for info in pkgutil.iter_modules(froblat.__path__):
        module = importlib.import_module(f"froblat.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                functions[fn.__code__] = f"{info.name}.{name}"
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    fn = _function_of(member)
                    # a generated dunder has no code in the module
                    if fn and fn.__code__.co_filename == module.__file__:
                        functions[fn.__code__] = f"{info.name}.{name}.{attr}"
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    os.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            for argv in _argv_lists():
                assert dispatch(argv) == 0, argv
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return {name for code, name in functions.items() if code not in seen}


def test_only_the_named_functions_are_unreached():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == set(UNREACHED)


if __name__ == "__main__":
    print("\n".join(sorted(unreached())))
