"""Repository hygiene: the README's library tour runs and its CLI tour shows what the
commands print, no build artifact is tracked, the runtime imports only the standard library
and itself, the benchmark's layer tracer still finds
every entry point it wraps and wraps every kernel the package calls but the per-point
ones, the commands reach every public function but a listed few, a fault planted in each shared
mechanism fails the ``verify`` criteria it names, the float kernels keep
no state between calls and evaluate no more than their old memos did, every name in an
``__all__`` resolves, the package re-exports each module's ``__all__`` once and resolves
the names of its lazy layers on first use, importing the CLI loads only what every
command needs, and the package's records keep their fields, constructors and
(im)mutability."""

import ast
import cmath
import copy
import importlib
import importlib.util
import os
import pickle
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

from fussdeform.exact_seq import Params, SeqTable
from fussdeform.posdef import HankelVerdict
from fussdeform.series import CumulantTable, TruncSeries
from fussdeform.verify import CriterionResult

ROOT = Path(__file__).resolve().parent.parent


def _layertrace():
    """The benchmark's layer tracer, ``perfbench/layertrace.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    ns: dict = {}
    exec(block, ns)
    # the values the tour shows in its comments
    assert ns["deformed_fuss"](ns["params"], 4) == Fraction(15, 1)
    assert ns["g_of_p"](1.5) == 0.19999999999999998


def _cli_tour_examples():
    """(argv, head, shown lines) for each ``$ fussdeform ...`` example of the README's CLI tour."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```text\n(.*?)```", tour, re.DOTALL):
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, *shown = chunk.strip().splitlines()
            command, _, head = command.partition(" | head -")
            examples.append((shlex.split(command)[1:], int(head) if head else None, shown))
    return examples


def test_readme_cli_tour_matches(capsys):
    from fussdeform.cli import main

    examples = _cli_tour_examples()
    assert len(examples) == 9
    for argv, head, shown in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if head is not None:
            assert out[:head] == shown, argv
            continue
        # every shown line but "..." appears in the output, in order
        rest = iter(out)
        missing = [line for line in shown if line != "..." and line not in rest]
        assert missing == [], argv


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


def test_the_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no dependency, so every absolute import under src/ names a module
    # of the standard library or the package itself; relative imports are the package's
    allowed = set(sys.stdlib_module_names) | {"fussdeform"}
    for path in (ROOT / "src" / "fussdeform").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert {name.split(".")[0] for name in names} <= allowed, (path.name, names)


def test_layer_tracer_finds_every_entry_point():
    # ``perfbench/run.py --trace 1`` looks the entry points up by name; a
    # rename in the package would otherwise only show when that run fails.
    import fussdeform
    from fussdeform import _backend

    layertrace = _layertrace()
    modules = {name: getattr(fussdeform, name) for name in ("exact_seq", "series", "posdef", "density")}
    wanted = [
        (modules["exact_seq"], layertrace._EXACT_SEQ),
        (modules["series"], layertrace._SERIES_FUNCS),
        (modules["series"].TruncSeries, layertrace._SERIES_METHODS),
        (modules["posdef"], layertrace._POSDEF),
        (modules["density"], layertrace._DENSITY),
        (_backend.kernels, layertrace._KERNELS),
    ]
    missing = [name for owner, names in wanted for name in names if not hasattr(owner, name)]
    assert missing == []

    tracer = layertrace.LayerTracer()
    try:
        tracer.install(fussdeform)
        for user in layertrace._KERNEL_USERS:
            proxy = getattr(fussdeform, user).kernels
            assert set(layertrace._KERNELS) <= set(vars(proxy)), user
    finally:
        tracer.uninstall()
    assert all(getattr(fussdeform, user).kernels is _backend.kernels for user in layertrace._KERNEL_USERS)


def test_every_kernel_the_package_calls_is_traced_or_per_point():
    # A kernel reached through ``kernels.<name>`` that the tracer does not wrap counts as self
    # time of its caller.  Only per-point helpers, whose wrapping would cost more than their
    # work, may stay unwrapped, and g_scan, which the tracer does not wrap yet: mass, one
    # density value, and support_end, the one copy of c(p) that support_c reads after its range
    # check.  rho is not among them: only the kernels evaluate it.
    layertrace = _layertrace()
    used = set()
    # _kernels_py defines the kernels and _backend binds them
    for path in (ROOT / "src" / "fussdeform").glob("*.py"):
        if path.stem in ("_kernels_py", "_backend"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernels":
                used.add(node.attr)
    unwrapped = {"support_end", "mass", "g_scan", "CUMULANT_MEASURES"}
    assert used - set(layertrace._KERNELS) == unwrapped


def _every_command() -> list[list[str]]:
    """Every subcommand, ``seq`` subject, ``a220910`` method and ``transforms``/``density``
    route, each in both formats, then ``verify``."""
    from fussdeform.exact_seq import _A220910_METHODS

    commands = [
        ["seq", "a", "--p", "5/2", "--t", "1/3", "--n", "6"],
        ["seq", "raney", "--p", "3", "--r", "2", "--n", "6"],
        ["seq", "constellation", "--p", "3", "--n", "6"],
        *(["seq", "a220910", "--n", "8", "--method", method] for method in _A220910_METHODS),
        ["seq", "a022558", "--n", "6"],
        ["transforms", "--p", "2", "--t", "1/2", "--route", "closed", "--series-order", "6"],
        ["transforms", "--p", "5/2", "--t", "1/3", "--route", "moments", "--series-order", "6"],
        ["density", "--p", "5/2", "--t", "1/2", "--grid", "5", "--route", "parametric"],
        ["density", "--p", "2", "--t", "1/2", "--grid", "5", "--route", "closed"],
        ["moments-check", "--p", "5/2", "--t", "1/2", "--n-max", "4"],
        ["gfun", "--steps", "3"],
        ["posdef", "--p", "2", "--t", "1/2"],
        ["infdiv", "--p", "2", "--t", "1/2", "--hankel-size", "4"],
        ["domain-grid", "--steps", "3", "--hankel-size", "4"],
    ]
    return [[*argv, "--format", fmt] for fmt in ("csv", "json") for argv in commands] + [["verify"]]


# The public functions no command or cross-check reaches, each with the reason it stays.  The
# benchmark's layer tracer wraps every one by name, so each goes only once the tracer's table
# (_UNREACHED_TABLES, by module) no longer names it.
_UNREACHED = {
    "kernels.psi_forms": "the three writings of psi, whose agreement is a float check",
    "posdef.psi_min": "the range-checked minimum of psi that the landmark tests read",
    "density.moment_quadrature": "one moment, entry n of moment_quadrature_full",
    "exact_seq.constellation_count": "a single-value library convenience over constellation_table",
    "exact_seq.a220910": "a single-value library convenience over a220910_table",
}
_UNREACHED_TABLES = {
    "exact_seq": "_EXACT_SEQ", "posdef": "_POSDEF", "density": "_DENSITY", "kernels": "_KERNELS"
}


def _public_functions() -> dict:
    """The code object of each function named in a module's ``__all__`` and of each public
    method of a class named there, by ``module.name`` or ``module.Class.name``."""
    from fussdeform import _backend

    modules = {
        name: importlib.import_module(f"fussdeform.{name}")
        for name in ("errors", "exact_seq", "series", "density", "posdef", "cli", "verify")
    }
    modules["kernels"] = _backend.kernels
    public = {}
    for label, module in modules.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, FunctionType):
                public[f"{label}.{name}"] = obj.__code__
            elif isinstance(obj, type):
                for attr, value in vars(obj).items():
                    value = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
                    if not attr.startswith("_") and isinstance(value, FunctionType):
                        public[f"{label}.{name}.{attr}"] = value.__code__
    return public


def test_every_public_function_is_reached(capsys):
    # A public function that no command or cross-check calls is either listed with its
    # reason or goes; the run below covers every command path under a profiler.
    from fussdeform.cli import main

    public = _public_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in _every_command()]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(codes)
    assert {name for name, code in public.items() if code not in reached} == set(_UNREACHED)
    layertrace = _layertrace()
    for name in _UNREACHED:
        module, function = name.split(".")
        assert function in getattr(layertrace, _UNREACHED_TABLES[module]), name


def _bumped(values, index):
    """values with 1 added to entry index, where there is one."""
    return [v + (i == index) for i, v in enumerate(values)]


def _cleared_with_numerator_7_bumped(real):
    def cleared(pairs, s):
        nums, den = real(pairs, s)
        return _bumped(nums, 7), den

    return cleared


def _pivots_with_pivot_3_flipped(real):
    def pivots(b):
        for k, (pivot, verdict) in enumerate(real(b)):
            yield (-pivot if k == 3 and pivot else pivot), verdict

    return pivots


def _node_with_weight_scaled(real):
    def node(p, t, phi):
        x, weight = real(p, t, phi)
        return x, weight * (1.0 + 1e-7)

    return node


# (module, name, the fault planted in it, the verify criteria that then fail): one fault in
# each mechanism that two sides of a cross-check share, or that a float check reads
_PLANTED_FAULTS = [
    ("series", "_conv", lambda real: lambda a, b, n: _bumped(real(a, b, n), 9),
     "c1 c2 c3 c5 c6 c9 c10 c11"),
    ("exact_seq", "_cleared", _cleared_with_numerator_7_bumped, "c1 c2 c3 c5 c6 c9 c10 c11"),
    ("exact_seq", "_raney_num", lambda real: lambda p, r, n: real(p, r, n) + (n == 6),
     "c2 c5 c6 c9 c10"),
    ("posdef", "_pivots", _pivots_with_pivot_3_flipped, "c10"),
    ("_kernels_py", "rho_bisect",
     lambda real: lambda p, xs: [b * cmath.rect(1.0, 1e-9) for b in real(p, xs)], "c8"),
    ("_kernels_py", "mass", lambda real: lambda t, b: real(t, b) * (1.0 + 1e-8), "c8 c9"),
    ("_kernels_py", "_node", _node_with_weight_scaled, "c9"),
]


@pytest.mark.parametrize(
    "module, name, fault, failing",
    _PLANTED_FAULTS,
    ids=[f"{module}.{name}" for module, name, *_ in _PLANTED_FAULTS],
)
def test_a_fault_planted_in_a_shared_mechanism_fails_verify(
    monkeypatch, module, name, fault, failing
):
    # the fault replaces the function in every module that binds it; a change that blinds a
    # check, or gives two routes one more shared step, shows up here as a different list
    from fussdeform.verify import run_criteria

    real = getattr(importlib.import_module(f"fussdeform.{module}"), name)
    planted = fault(real)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "fussdeform" and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, planted)
    assert [r.ident for r in run_criteria() if not r.passed] == failing.split()


def test_the_kernels_keep_no_state_between_calls():
    # a module-level memo would need a ``global`` rebinding; the reuse lives inside one call
    tree = ast.parse((ROOT / "src" / "fussdeform" / "_kernels_py.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_the_float_paths_evaluate_as_often_as_with_their_memos(monkeypatch, capsys):
    # counts measured when the kernels kept the last p's psi grid and the last (p, t)'s
    # quadrature nodes between calls: one call each does no more work.  Each quadrature node
    # evaluates rho once, for 150 nodes, where it took 300 while |rho'| evaluated rho again.
    # g(1.5) refines psi at t = g in one cell, as g_scan's arc leaves out the cell
    # (0, pi / 512) a full scan refines.
    from fussdeform import _kernels_py as kernels
    from fussdeform.cli import main
    from fussdeform.posdef import g_of_p

    calls = Counter()

    def counting(name, real):
        return lambda *args: calls.update([name]) or real(*args)

    for name in ("rho", "psi", "_t_bound"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    assert main(["moments-check", "--p", "5/2", "--t", "1/2", "--n-max", "12"]) == 0
    capsys.readouterr()
    assert calls == {"rho": 150}
    calls.clear()
    assert g_of_p(1.5) == 0.19999999999999998
    assert calls == {"psi": 52, "_t_bound": 52}


@pytest.mark.parametrize(
    "module",
    ["", ".errors", ".exact_seq", ".series", ".density", ".posdef", ".cli", ".verify", "._kernels_py"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("fussdeform" + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_each_module_all_once():
    import fussdeform

    assert len(fussdeform.__all__) == len(set(fussdeform.__all__))
    for module in ("errors", "exact_seq", "series", "density"):
        mod = importlib.import_module("fussdeform." + module)
        assert [n for n in mod.__all__ if getattr(fussdeform, n, None) is not getattr(mod, n)] == [], module


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports fussdeform from here."""
    import fussdeform

    src = os.path.dirname(os.path.dirname(fussdeform.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_loads_only_what_every_command_needs():
    # Start-up is paid by every command: the layers only some commands call, verify
    # and json load on first use, and no record is a dataclass (dataclasses pulls in
    # inspect).  Modules that site loads before the import do not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fussdeform, fussdeform.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = set(_fresh(code).split())
    assert {"fussdeform.cli", "fussdeform.errors", "fussdeform.exact_seq"} <= loaded
    assert loaded & {"dataclasses", "inspect", "json"} == set()
    layers = ("series", "density", "posdef", "_kernels_py", "_backend", "verify")
    assert loaded & {f"fussdeform.{name}" for name in layers} == set()


def test_package_resolves_lazy_names_on_first_use():
    # series and density load when one of their names is first asked for; the
    # package still offers every name of the four modules, in their order
    import fussdeform
    from fussdeform import density, errors, exact_seq, series

    modules = (errors, exact_seq, series, density)
    namespace: dict = {}
    exec("from fussdeform import *", namespace)
    del namespace["__builtins__"]
    assert list(namespace) == ["__version__", "backend_name", *(n for m in modules for n in m.__all__)]
    for module in modules:
        assert all(namespace[name] is getattr(module, name) for name in module.__all__)
    assert set(namespace) <= set(dir(fussdeform))
    for name in ("no_such_name", "_no_such_module", "__no_such_dunder__"):
        with pytest.raises(AttributeError, match=name):
            getattr(fussdeform, name)

    code = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "import fussdeform\n"
        "assert 'fussdeform.posdef' not in sys.modules\n"
        "assert fussdeform.posdef is sys.modules['fussdeform.posdef']\n"
        "jet = fussdeform.TruncSeries.from_coeffs([1, Fraction(-2, 3), 5])\n"
        "back = pickle.loads(pickle.dumps(jet))\n"
        "assert back == jet and type(back) is fussdeform.TruncSeries\n"
        "print(pickle.dumps(jet).hex())\n"
    )
    jet = pickle.loads(bytes.fromhex(_fresh(code)))
    assert jet == TruncSeries.from_coeffs([1, Fraction(-2, 3), 5])


_RECORDS = {
    Params: {"p": Fraction(5, 2), "t": Fraction(1, 3)},
    SeqTable: {"label": "demo", "offset": 1, "values": [Fraction(1), Fraction(3, 2)]},
    TruncSeries: {"coeffs": (Fraction(1), Fraction(-2, 3))},
    CumulantTable: {"values": (Fraction(1), Fraction(1, 2))},
    HankelVerdict: {"size": 2, "minors": [Fraction(1), Fraction(1, 3)], "verdict": "positive_definite"},
    CriterionResult: {
        "ident": "c0",
        "label": "demo",
        "tags": ("exact",),
        "passed": True,
        "detail": "ok",
        "seconds": 0.5,
    },
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_are_fixed(cls):
    fields = _RECORDS[cls]
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert pickle.loads(pickle.dumps(record)) == record
    for duplicate in (copy.copy(record), copy.deepcopy(record)):
        assert duplicate == record and type(duplicate) is cls
    assert [getattr(record, name) for name in fields] == list(fields.values())
    text = repr(record)
    assert text.startswith(cls.__name__ + "(")
    assert all(f"{name}=" in text for name in fields)
    if cls is SeqTable:  # mutable and unhashable; checks its label and offset, parses its values
        record.offset = 2
        assert record != cls(**fields)
        with pytest.raises(TypeError):
            hash(record)
        assert cls("x", 0, ["1/2", 3]).values == [Fraction(1, 2), Fraction(3)]
        for bad in ({"label": "a,b"}, {"label": "a\nb"}, {"offset": -1}):
            with pytest.raises(ValueError):
                cls(**{**fields, **bad})
        return
    # the jet records share one frozen base, whose refusals name the record's class
    refusal = f"immutable {cls.__name__}" if cls in (TruncSeries, CumulantTable) else None
    for name in fields:
        with pytest.raises(AttributeError, match=refusal):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=refusal):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    if cls is not HankelVerdict:  # its minors are a list
        assert hash(record) == hash(cls(**fields))
