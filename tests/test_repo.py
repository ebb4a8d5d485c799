"""Repository hygiene: the README's library tour runs, its CLI tour shows what the commands print
and every test it names exists, no build artifact is tracked, neither hypothesis profile sets a
deadline, the runtime imports only the standard library and itself, the benchmark's layer
tracer still finds every entry point it wraps and wraps every kernel the package calls but the
per-point ones, the commands reach every public function but a listed few, a fault planted in
each shared mechanism fails the ``verify`` criteria and sets the CLI exit codes it names, the
two sides of each cross-check share no package function outside its ledger, the float kernels
keep no state between calls and evaluate no more than their old memos did, every name in an
``__all__`` resolves, every seam of ``tests/seams.py`` resolves and no other test module names
a private mechanism, the package re-exports each module's ``__all__`` once and resolves the
names of its lazy layers on first use, importing the CLI loads only what every command needs,
and the package's records keep their fields, constructors and (im)mutability.

The planted faults, the commands they are run against, the cross-check ledger and the list
of unreached public functions are tables of ``tests/seams.py``, the one test module that
reaches the package's private mechanisms; the tests here read them from there."""

import ast
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
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import CodeType, FunctionType

import pytest
from hypothesis import settings

import seams
from fussdeform.density import DensitySample
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
    assert ns["g_of_p"](1.5) == 0.19999999999999996


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


def test_every_test_the_readme_names_exists():
    # a test function or module the README cites by name must still be under tests/
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        names.add(path.stem)
        names.update(re.findall(r"^def (test_\w+)", path.read_text(encoding="utf-8"), re.MULTILINE))
    cited = set(re.findall(r"\btest_\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert cited and sorted(cited - names) == []


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


@pytest.mark.parametrize("profile", ["default", "ci"])
def test_no_hypothesis_profile_sets_a_deadline(profile):
    # tests/conftest.py drops the deadline once for both profiles; the loaded one is in force
    assert settings.get_profile(profile).deadline is None
    assert settings().deadline is None


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

    kernels = seams.resolve("kernels")
    layertrace = _layertrace()
    modules = {name: getattr(fussdeform, name) for name in ("exact_seq", "series", "posdef", "density")}
    wanted = [
        (modules["exact_seq"], layertrace._EXACT_SEQ),
        (modules["series"], layertrace._SERIES_FUNCS),
        (modules["series"].TruncSeries, layertrace._SERIES_METHODS),
        (modules["posdef"], layertrace._POSDEF),
        (modules["density"], layertrace._DENSITY),
        (kernels, layertrace._KERNELS),
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
    assert all(getattr(fussdeform, user).kernels is kernels for user in layertrace._KERNEL_USERS)


def test_every_kernel_the_package_calls_is_traced_or_per_point():
    # A kernel reached through ``kernels.<name>`` that the tracer does not wrap counts as self
    # time of its caller.  Only per-point helpers, whose wrapping would cost more than their
    # work, may stay unwrapped, and g_scan, which the tracer does not wrap yet: mass, one
    # density value, and support_end, the one copy of c(p) that support_c reads after its range
    # check.  rho is not among them: only the kernels evaluate it.
    layertrace = _layertrace()
    used = set()
    # one module defines the kernels and the other binds them
    for path in (ROOT / "src" / "fussdeform").glob("*.py"):
        if path.stem in (seams.KERNELS_MODULE, seams.BACKEND_MODULE):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernels":
                used.add(node.attr)
    unwrapped = {"support_end", "mass", "g_scan", "CUMULANT_MEASURES"}
    assert used - set(layertrace._KERNELS) == unwrapped


def _every_command() -> list[list[str]]:
    """Every subcommand, ``seq`` subject, ``a220910`` method and ``transforms``/``density``
    route, each in both formats, then ``verify``."""
    commands = [
        ["seq", "a", "--p", "5/2", "--t", "1/3", "--n", "6"],
        ["seq", "raney", "--p", "3", "--r", "2", "--n", "6"],
        ["seq", "constellation", "--p", "3", "--n", "6"],
        *(["seq", "a220910", "--n", "8", "--method", method] for method in seams.A220910_METHODS),
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


# the layer tracer's table, by module, that names each of seams.UNREACHED
_UNREACHED_TABLES = {
    "exact_seq": "_EXACT_SEQ", "posdef": "_POSDEF", "density": "_DENSITY", "kernels": "_KERNELS"
}


def _public_functions() -> dict:
    """The code object of each function named in a module's ``__all__`` and of each public
    method of a class named there, by ``module.name`` or ``module.Class.name``."""
    modules = {
        name: importlib.import_module(f"fussdeform.{name}")
        for name in ("errors", "exact_seq", "series", "density", "posdef", "cli", "verify")
    }
    modules["kernels"] = seams.resolve("kernels")
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
    assert {name for name, code in public.items() if code not in reached} == set(seams.UNREACHED)
    layertrace = _layertrace()
    for name in seams.UNREACHED:
        module, function = name.split(".")
        assert function in getattr(layertrace, _UNREACHED_TABLES[module]), name


_FAULT_IDS = [".".join(seams.SEAMS[seam]) for seam, *_ in seams.PLANTED_FAULTS]


@pytest.mark.parametrize("seam, fault, failing, _", seams.PLANTED_FAULTS, ids=_FAULT_IDS)
def test_a_fault_planted_in_a_shared_mechanism_fails_verify(monkeypatch, seam, fault, failing, _):
    # a change that blinds a check, or gives two routes one more shared step, shows up here as
    # a different list
    from fussdeform.verify import run_criteria

    seams.plant(monkeypatch, seam, fault)
    assert [r.ident for r in run_criteria() if not r.passed] == failing.split()


@pytest.mark.parametrize("seam, fault, _, exit_3", seams.PLANTED_FAULTS, ids=_FAULT_IDS)
def test_a_fault_planted_in_a_shared_mechanism_sets_the_cli_exit_codes(
    monkeypatch, capsys, seam, fault, _, exit_3
):
    # the commands whose own cross-checks see the fault exit 3 and every other one exits 0;
    # the float faults reach only verify's c8 and c9
    from fussdeform.cli import main

    seams.plant(monkeypatch, seam, fault)
    codes = {label: main(shlex.split(argv)) for label, argv in seams.FAULT_COMMANDS.items()}
    capsys.readouterr()
    assert codes == {label: 3 if label in exit_3.split() else 0 for label in seams.FAULT_COMMANDS}


def _function_names() -> dict:
    """The module.qualname of each package function by its code object, and of the function
    that encloses each nested code object (a comprehension, a closure)."""
    names = {}

    def add(code, name):
        names[code] = name
        for const in code.co_consts:
            if isinstance(const, CodeType):
                add(const, name)

    for stem in ("errors", "exact_seq", "series", "density", "posdef", "cli", "verify",
                 seams.KERNELS_MODULE):
        module = importlib.import_module(f"fussdeform.{stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else [obj]
            for value in members:
                value = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
                if isinstance(value, FunctionType):
                    add(value.__code__, f"{stem}.{value.__qualname__}")
    return names


def test_cross_checks_share_only_their_ledger():
    # each side runs under a profiler; a package function two sides both reach must be in the
    # ledger, so a change that gives two routes one more shared step shows up here
    names = _function_names()

    def reached(call):
        seen = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                seen.add(names[frame.f_code])

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(previous)
        return seen

    for label, sides, ledger in seams.cross_check_sides():
        seen = [reached(side) for side in sides]
        assert all(seen), label
        shared = {name for a, b in combinations(seen, 2) for name in a & b}
        assert shared <= ledger, (label, shared - ledger)


def test_the_kernels_keep_no_state_between_calls():
    # a module-level memo would need a ``global`` rebinding; the reuse lives inside one call
    path = ROOT / "src" / "fussdeform" / f"{seams.KERNELS_MODULE}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_the_float_paths_evaluate_as_often_as_with_their_memos(monkeypatch, capsys):
    # counts measured when the kernels kept the last p's psi grid and the last (p, t)'s
    # quadrature nodes between calls: one call each does no more work.  Each quadrature node
    # evaluates rho once, for 150 nodes, where it took 300 while |rho'| evaluated rho again.
    # g(1.5) samples psi at t = g on the 131 grid points of its arc, from index 382 on, and
    # refines it in one cell at 52 points, as the arc leaves out the cell (0, pi / 512) a full
    # scan refines; its one search of B/A evaluates B/A at 60 points.
    from fussdeform.cli import main
    from fussdeform.posdef import g_of_p

    calls = {name: seams.record(monkeypatch, name) for name in ("rho", "psi", "t_bound")}

    def counts():
        return {name: len(seen) for name, seen in calls.items()}

    assert main(["moments-check", "--p", "5/2", "--t", "1/2", "--n-max", "12"]) == 0
    capsys.readouterr()
    assert counts() == {"rho": 150, "psi": 0, "t_bound": 0}
    for seen in calls.values():
        seen.clear()
    assert g_of_p(1.5) == 0.19999999999999996
    assert counts() == {"rho": 0, "psi": 131 + 52, "t_bound": 60}


@pytest.mark.parametrize(
    "module",
    ["", ".errors", ".exact_seq", ".series", ".density", ".posdef", ".cli", ".verify",
     f".{seams.KERNELS_MODULE}"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module("fussdeform" + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_every_seam_resolves():
    # a seam resolves only when a test uses it, so a rename under src/ that the seam table
    # missed fails here by name, and in the tests that use the seam, not in a test module's import
    missing = []
    for seam in seams.SEAMS:
        try:
            seams.resolve(seam)
        except (ImportError, AttributeError):
            missing.append(seam)
    assert missing == []


def _private_names() -> set:
    """The package's private modules, and the names other than dunders that begin with an
    underscore and are bound at the top level of one of its modules."""
    names = set()
    for path in (ROOT / "src" / "fussdeform").glob("*.py"):
        names.add(path.stem)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def _private_references(path: Path, private: set) -> list[str]:
    """``file:line name`` for each reference in the test module at path to a private name of
    the package: an attribute of one of its modules or of the kernels handle, an import, or a
    string naming it.  pytest ids are labels, not references."""
    submodules = {p.stem for p in (ROOT / "src" / "fussdeform").glob("*.py")}
    handles = submodules | {"kernels"}
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    modules = {"fussdeform", "kernels"}
    for node in nodes:
        if isinstance(node, ast.Import):
            modules.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "fussdeform"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "fussdeform":
            modules.update(
                alias.asname or alias.name for alias in node.names if alias.name in submodules
            )

    def is_module(node):
        if isinstance(node, ast.Name):
            return node.id in modules
        return isinstance(node, ast.Attribute) and node.attr in handles

    labels = {
        id(const)
        for node in nodes
        if isinstance(node, ast.keyword) and node.arg in ("id", "ids")
        for const in ast.walk(node.value)
    }
    found = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and is_module(node.value):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fussdeform":
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in labels:
                continue
            names = re.findall(r"(?<!\w)_\w+", node.value)
        else:
            continue
        found.update((node.lineno, name) for name in names if name in private)
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_only_the_seam_module_reaches_private_names():
    # tests/seams.py maps each private mechanism a test needs to a seam; any other reference
    # would make a rename under src/ touch that test module too
    private = _private_names()
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name != "seams.py":
            found += _private_references(path, private)
    assert found == [], "\n".join(found)


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
    layers = ("series", "density", "posdef", seams.KERNELS_MODULE, seams.BACKEND_MODULE, "verify")
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
    DensitySample: {"x": 0.5, "phi": 1.0, "value": 0.25},
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_record_fields_are_fixed(cls):
    fields = _RECORDS[cls]
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert getattr(cls, "_fields", tuple(fields)) == tuple(fields)
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
