"""Repository hygiene: the README's library tour runs, no build artifact is tracked,
and the benchmark's layer tracer still finds every entry point it wraps."""

import importlib.util
import re
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    ns: dict = {}
    exec(block, ns)
    # the values the tour shows in its comments
    assert ns["deformed_fuss"](ns["params"], 4) == Fraction(15, 1)
    assert ns["g_of_p"](1.5) == 0.20000000018626451


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
