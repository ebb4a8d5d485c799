"""Repository hygiene: the README's library tour runs and its CLI tour shows what the
commands print, no build artifact is tracked, the benchmark's layer tracer still finds
every entry point it wraps and wraps every kernel the package calls but the per-point
ones, every name in an ``__all__`` resolves, the package re-exports each module's
``__all__`` once and resolves the names of its lazy layers on first use, importing
the CLI loads only what every command needs, and the package's records keep their
fields, constructors and (im)mutability."""

import ast
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
from pathlib import Path

import pytest

from fussdeform.exact_seq import Params, SeqTable
from fussdeform.posdef import HankelVerdict
from fussdeform.series import CumulantTable, TruncSeries
from fussdeform.verify import CriterionResult

ROOT = Path(__file__).resolve().parent.parent


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


def test_layer_tracer_finds_every_entry_point():
    # ``perfbench/run.py --trace 1`` looks the entry points up by name; a
    # rename in the package would otherwise only show when that run fails.
    import fussdeform
    from fussdeform import _backend

    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
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
    # work, may stay unwrapped, and g_sup, which the tracer does not wrap yet.
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    used = set()
    # _kernels_py defines the kernels and _backend binds them
    for path in (ROOT / "src" / "fussdeform").glob("*.py"):
        if path.stem in ("_kernels_py", "_backend"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernels":
                used.add(node.attr)
    assert used - set(layertrace._KERNELS) == {
        "rho", "rho_prime", "w_phi", "f_phi", "g_sup", "CUMULANT_MEASURES"
    }


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
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    if cls is not HankelVerdict:  # its minors are a list
        assert hash(record) == hash(cls(**fields))
