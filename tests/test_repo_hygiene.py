"""Repo hygiene guards: no build artifacts in the git index, and
layering that points one way.

A tracked ``.pyc`` once shadowed its source module in review diffs
(and bloated every clone); this tier-1 guard keeps bytecode and other
interpreter droppings out of the index for good.  The rules live in
the root ``.gitignore`` — this test checks both the ignore file and
the index itself, because ``.gitignore`` alone never untracks a file
that was already committed.

The search engines and the core flow sit below the analysis, service
and CLI layers; a lazy import inside a function is still an upward
dependency, so the layering scan walks every import node.

Every field of an assigner recipe keys its result: a field that the
cache-key payload leaves out could change what a search returns
without changing the key it is stored under.

Serving never imports numpy: dropping it cut a cold grid server's peak
RSS from 133.9 to 97.3 MiB, so a vectorised fold that pulls it back in
has to be a deliberate, measured choice.

perfbench reaches into ``repro.analysis.sweep`` by attribute and wraps
functions named by string; both break only when a traced run reaches
them, so a scan checks every such name still resolves, and one cell
evaluated under counting wrappers checks that each stage its replay
spans is still reached through the wrapped name.  Its replay also reads
the search counters off each result in-process, so one cell is
replayed through it in a subprocess.  Its traced run also takes a
median over every serving span it reads, so one batch served over a
socket checks that each of those spans is still reached.
"""

import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FORBIDDEN_PATTERNS = ("__pycache__/", ".pyc")


def _tracked_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if proc.returncode != 0:
        pytest.skip(f"not a git checkout: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def test_no_bytecode_tracked_in_git():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in path or path.endswith(".pyc")
    ]
    assert not offenders, (
        "build artifacts tracked in git (git rm --cached them): "
        f"{offenders}"
    )


def test_gitignore_covers_interpreter_droppings():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.exists(), "root .gitignore is missing"
    rules = gitignore.read_text().splitlines()
    for required in ("__pycache__/", "*.pyc", ".pytest_cache/", "*.egg-info/"):
        assert required in rules, f".gitignore lacks {required!r}"


def test_source_docs_cite_only_files_and_sections_that_exist():
    # docstrings once pointed at a design document that was never
    # committed; the README sections they cite instead must exist
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for folder in ("src", "examples", "benchmarks")
        for path in sorted((REPO_ROOT / folder).rglob("*.py"))
        if "DESIGN" + ".md" in path.read_text()
    ]
    assert not offenders, f"references to a missing design doc: {offenders}"
    headings = {
        line.lstrip("#").strip()
        for line in (REPO_ROOT / "README.md").read_text().splitlines()
        if line.startswith("#")
    }
    for cited in ("Layout", "Fuzzing & differential verification"):
        assert cited in headings, f"README.md has no {cited!r} section"


LOWER_LAYERS = ("src/repro/core", "src/repro/search")
UPPER_LAYERS = ("repro.analysis", "repro.service", "repro.cli")


def _imported_modules(node: ast.AST):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        # `from repro import analysis` names the submodule in the alias
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def upward_imports(root: pathlib.Path) -> list[str]:
    """``path:line`` of every lower-layer import of an upper layer."""
    offenders = []
    for folder in LOWER_LAYERS:
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if any(
                    module == upper or module.startswith(upper + ".")
                    for module in _imported_modules(node)
                    for upper in UPPER_LAYERS
                ):
                    offenders.append(
                        f"{path.relative_to(root / 'src/repro')}:{node.lineno}"
                    )
    return sorted(offenders)


def test_core_and_search_never_import_upper_layers():
    offenders = upward_imports(REPO_ROOT)
    assert not offenders, (
        f"core/search import from {', '.join(UPPER_LAYERS)}: {offenders}"
    )


def test_upward_import_scan_sees_function_level_imports(tmp_path):
    module = tmp_path / "src/repro/search/lazy.py"
    module.parent.mkdir(parents=True)
    (tmp_path / "src/repro/core").mkdir()
    module.write_text(
        "import repro.core\n"
        "from repro import analysis\n"
        "def f():\n"
        "    from repro.service.keys import cell_key\n"
        "    import repro.cli\n"
    )
    assert upward_imports(tmp_path) == [
        "search/lazy.py:2", "search/lazy.py:4", "search/lazy.py:5",
    ]


def test_every_assigner_recipe_field_keys_the_result():
    from repro.search import ASSIGNER_NAMES, AssignerSpec

    fields = {field.name for field in dataclasses.fields(AssignerSpec)}
    for name in ASSIGNER_NAMES:
        if name != "greedy":
            assert set(AssignerSpec(name).payload()) == fields, name


SERVING_PROBE = """
import sys
import repro.service.server
from repro.analysis import sweep
from repro.core.assignment import Objective
cell = sweep.SweepCell("qsdpcm", sweep.PlatformSpec(), Objective.EDP)
result, error = sweep._evaluate_cell_warm(cell)
assert error is None, error
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_serving_a_cell_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", SERVING_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


REPLAY_PROBE = """
from perfbench.inputs import grid_cells
from perfbench.replay import replay_cells
from perfbench.spans import SpanRecorder
counters = replay_cells(grid_cells(1)[:1], SpanRecorder())
assert counters.errors == [], counters.errors
assert counters.moves_evaluated > 0, counters
assert counters.cache_hits + counters.cache_misses > 0, counters
"""


def test_perfbench_replay_reads_counters_a_cell_records():
    # perfbench may not change with src/, and no other test runs its
    # replay: a counter it reads (SearchStats.cache_hits, cache_misses,
    # moves_evaluated; TeSchedule.extended_count) must stay on a result
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY_PROBE],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _sweep_aliases(tree: ast.AST) -> set[str]:
    """Local names a module binds to ``repro.analysis.sweep``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.analysis":
            aliases.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "sweep"
            )
        elif isinstance(node, ast.Import):
            aliases.update(
                alias.asname
                for alias in node.names
                if alias.name == "repro.analysis.sweep" and alias.asname
            )
    return aliases


def _resolves(module_name: str, *attrs: str) -> bool:
    owner = importlib.import_module(module_name)
    for attr in attrs:
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def _span_target(node: ast.AST) -> tuple | None:
    """``(module, owner-or-None, attr, span)`` when *node* is a span target."""
    if (
        isinstance(node, ast.Tuple)
        and len(node.elts) == 4
        and all(isinstance(elt, ast.Constant) for elt in node.elts)
        and str(node.elts[0].value).startswith("repro.")
    ):
        return tuple(elt.value for elt in node.elts)
    return None


def perfbench_span_targets(root: pathlib.Path, filename: str = "*.py"):
    """``(file, target)`` of every span target in ``perfbench/<filename>``."""
    for path in sorted((root / "perfbench").glob(filename)):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            target = _span_target(node)
            if target is not None:
                yield path.name, target


def dangling_perfbench_names(root: pathlib.Path) -> list[str]:
    """``path:line name`` of every ``src/`` name perfbench uses that is gone.

    Covers ``sweep.<name>`` attribute reads and the span targets, the
    ``("repro.<module>", owner-or-None, attr, span)`` tuples it wraps.
    """
    offenders = []
    for path in sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _sweep_aliases(tree)
        for node in ast.walk(tree):
            target = _span_target(node)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                module, attrs = "repro.analysis.sweep", (node.attr,)
            elif target is not None:
                module, owner, attr, _span = target
                attrs = (attr,) if owner is None else (owner, attr)
            else:
                continue
            if not _resolves(module, *attrs):
                offenders.append(
                    f"{path.name}:{node.lineno} {module}.{'.'.join(attrs)}"
                )
    return offenders


def test_perfbench_uses_only_names_that_exist():
    # perfbench may not change in a change that claims a gain, so a
    # src/ rename that breaks its traced run has to fail here instead
    offenders = dangling_perfbench_names(REPO_ROOT)
    assert not offenders, f"perfbench uses names src/ lacks: {offenders}"


def test_perfbench_name_scan_sees_attributes_and_span_targets(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench/probe.py").write_text(
        "from repro.analysis import sweep as sw\n"
        "sw._CTX_CACHE.clear()\n"
        "sw._evaluate_cell_cold(None)\n"
        "TARGETS = (\n"
        "    ('repro.analysis.sweep', None, 'build_app', 'apps.build'),\n"
        "    ('repro.core.te', 'TimeExtensionEngine', 'walk', 'te.run'),\n"
        ")\n"
    )
    assert dangling_perfbench_names(tmp_path) == [
        "probe.py:3 repro.analysis.sweep._evaluate_cell_cold",
        "probe.py:6 repro.core.te.TimeExtensionEngine.walk",
    ]


def _count_calls(monkeypatch, targets) -> dict:
    """Wrap each span target with a call counter; ``target -> calls``."""
    calls = {target: 0 for target in targets}
    for target in targets:
        module, owner_name, attr, _span = target
        owner = importlib.import_module(module)
        if owner_name is not None:
            owner = getattr(owner, owner_name)

        def counted(*args, _target=target, _original=getattr(owner, attr),
                    **kwargs):
            calls[_target] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_a_cell_calls_every_cell_stage_perfbench_wraps(monkeypatch):
    # perfbench's replay (replay.py) spans a cell's stages by the names
    # it wraps; a stage that stops calling such a name, say a memo that
    # routes report calls around scenarios.estimate_cost, would empty
    # its per-layer metric without any error
    from repro.analysis import sweep
    from repro.core.assignment import Objective

    targets = [
        target
        for _file, target in perfbench_span_targets(REPO_ROOT, "replay.py")
    ]
    assert targets, "perfbench/replay.py declares no span targets"
    calls = _count_calls(monkeypatch, targets)
    sweep._CTX_CACHE.clear()
    try:
        cell = sweep.SweepCell("qsdpcm", sweep.PlatformSpec(), Objective.EDP)
        result, error = sweep._evaluate_cell_warm(cell)
    finally:
        sweep._CTX_CACHE.clear()
    assert error is None, error
    uncalled = [target for target, count in calls.items() if count == 0]
    assert not uncalled, f"a cell never calls these wrapped stages: {uncalled}"


def _span_p50_names(root: pathlib.Path) -> tuple[str, ...]:
    """Span names of ``SPAN_P50_METRICS`` in ``perfbench/layers.py``."""
    tree = ast.parse((root / "perfbench/layers.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(name, ast.Name) and name.id == "SPAN_P50_METRICS"
            for name in node.targets
        ):
            return tuple(span for _metric, span in ast.literal_eval(node.value))
    raise AssertionError("perfbench/layers.py defines no SPAN_P50_METRICS")


def test_a_served_batch_calls_every_serving_span_perfbench_reads(
    monkeypatch, tmp_path
):
    # a traced run takes the median of every SPAN_P50_METRICS span and
    # exits 1 on an empty list; the serving spans come from the wrapped
    # names in spans.py, so a server that stops calling one (say,
    # put_result encoding through another path than the module's
    # result_to_state) fails the traced run while every other test passes
    from repro.service import (
        AsyncExplorationServer,
        ExplorationService,
        ResultStore,
        ServiceClient,
    )

    wanted = _span_p50_names(REPO_ROOT)
    serving = [
        target for _file, target in perfbench_span_targets(REPO_ROOT, "spans.py")
    ]
    assert serving, "perfbench/spans.py declares no span targets"
    replayed = {
        target[3]
        for _file, target in perfbench_span_targets(REPO_ROOT, "replay.py")
    }
    serving_names = {target[3] for target in serving}
    orphans = [
        name
        for name in wanted
        if name not in serving_names | replayed | {"assignment.search"}
    ]
    assert not orphans, f"no perfbench span produces: {orphans}"

    calls = _count_calls(monkeypatch, serving)
    cells = [
        {"app": "voice_coder", "objective": objective}
        for objective in ("edp", "cycles")
    ]
    server = AsyncExplorationServer(
        ExplorationService(store=ResultStore(tmp_path / "cache"), jobs=1),
        socket_path=tmp_path / "mhla.sock",
    )
    server.start()
    try:
        with ServiceClient(tmp_path / "mhla.sock", timeout=120.0) as client:
            outcomes = client.call("batch", {"cells": cells})["outcomes"]
            assert [row["status"] for row in outcomes] == ["done", "done"]
            for row in outcomes:
                assert client.call("result", {"key": row["key"]})["status"] == (
                    "done"
                )
    finally:
        assert server.drain(timeout=30.0)
    reached = {target[3] for target, count in calls.items() if count}
    unreached = [
        name for name in wanted if name in serving_names and name not in reached
    ]
    assert not unreached, f"a served batch never calls: {unreached}"
