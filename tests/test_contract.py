"""Guards on what other code relies on: the names the benchmark traces exist,
the BIC table has the header the benchmark parses, the CLI accepts the fit
flags the benchmark passes, the benchmark's fit collector sees one ``fit``
call per start, both expert blocks share one contract and are called once
per start and cycle, a fit builds its data constants once, no module of the
package imports a name it never uses, the package's relative imports form no
cycle, only ``io`` reads or writes CSV, each family kernel has one copy, and
the package runs on numpy alone, without scipy, and on one thread."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moefit.estimation as estimation
from moefit.datagen import gen_three_class
from moefit.cli import _fit_config, build_parser
from moefit.estimation import FitConfig, fit, initialize, multi_start_fit
from moefit.model import FAMILIES, Dataset, ExpertDesign
from moefit.selection import select_g

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moefit"


def bench_constant(module, name):
    """The literal assigned to ``name`` in bench/<module>.py, read from its
    syntax tree without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{module}.py defines no {name}")


@pytest.mark.parametrize("module,name", bench_constant("spans", "TRACED"))
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"moefit.{module}"), name, None)), \
        f"moefit.{module}.{name} is traced by the benchmark but does not exist"


@pytest.mark.parametrize("command", ["fit", "select"])
def test_benchmark_fit_flags_parse(command):
    """The CLI workload passes ``SEGMENT_FLAGS`` to ``fit`` and ``select``,
    so a flag it passes, ``--threads`` among them, cannot be dropped first."""
    size = ["--g", "1"] if command == "fit" else ["--G", "1"]
    args = build_parser().parse_args(
        [command, "--data", "d.csv", "--family", "gaussian", *size,
         "--out", "f.json", *bench_constant("workloads", "SEGMENT_FLAGS")])
    _fit_config(args)


def bic_table_header():
    """The header that ``parse_bic_table`` in bench/checks.py requires, read
    from its syntax tree without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "checks.py").read_text())
    parse = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "parse_bic_table")
    for node in ast.walk(parse):
        if (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.List)):
            return ast.literal_eval(node.comparators[0])
    raise AssertionError("parse_bic_table compares the header to no list")


def test_bic_table_header_is_the_one_the_benchmark_parses(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 1))
    data = Dataset(X, 1.0 + X[:, 0] + rng.normal(size=40), "real")
    select_g(data, 1, "gaussian", config=FitConfig(n_starts=1)).to_csv(tmp_path / "t.csv")
    table = (tmp_path / "t.csv").read_text()
    assert table.splitlines()[0].split(",") == bic_table_header()


@pytest.fixture
def fit_calls(monkeypatch):
    """Replace ``moefit.estimation.fit`` with a counting wrapper, the way the
    benchmark's ``Fits`` collector wraps it, and return the call log.  The
    benchmark checks how many starts it sees through this wrapper, so a change
    that stops calling ``fit`` once per start must change the benchmark
    first.  Each call logs its seed."""
    calls = []
    original = estimation.fit

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed_used"))
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, "fit", counted)
    return calls


def test_fit_called_once_per_start(fit_calls):
    data = gen_three_class(200, seed=0)
    multi_start_fit(data, 2, "multinomial",
                    config=FitConfig(n_starts=3, max_cycles=2, irls_max_inner=1))
    assert fit_calls == [0, 1, 2]


def test_select_g_calls_fit_once_per_start_and_g(fit_calls):
    data = gen_three_class(200, seed=0)
    select_g(data, 2, "multinomial", config=FitConfig(n_starts=2, rel_tol=1e-3))
    assert fit_calls == [0, 1, 0, 1]


EXPERT_BLOCKS = ("gaussian_expert_block_update", "glm_expert_block_update")


def test_expert_blocks_share_one_signature():
    params = [list(inspect.signature(getattr(estimation, name)).parameters)
              for name in EXPERT_BLOCKS]
    assert params == [["data", "theta", "W", "config", "fd", "L"]] * 2


@pytest.mark.parametrize("family", ["gaussian", "multinomial"])
def test_expert_block_called_once_by_initialize_and_once_per_cycle(monkeypatch, family):
    """The benchmark's tracer wraps each block's module attribute and reads
    its per-layer spans from the calls; ``initialize`` runs the block once
    and a k-cycle ``fit`` k times."""
    calls = {name: 0 for name in EXPERT_BLOCKS}

    def counting(name):
        original = getattr(estimation, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in EXPERT_BLOCKS:
        monkeypatch.setattr(estimation, name, counting(name))
    if family == "multinomial":
        data = gen_three_class(200, seed=0)
    else:
        rng = np.random.default_rng(0)
        x = rng.uniform(-3.0, 3.0, size=200)
        data = Dataset(x[:, None], np.where(x > 0, 2.0 * x, -x) + rng.normal(size=200),
                       "real")
    k = 4
    config = FitConfig(max_cycles=k, rel_tol=1e-15, irls_max_inner=1)
    result = fit(data, initialize(data, 2, family, ExpertDesign(), 0, config), config)
    assert result.cycles_used == k
    used = EXPERT_BLOCKS[family != "gaussian"]
    assert calls == {name: (1 + k if name == used else 0) for name in EXPERT_BLOCKS}


@pytest.mark.parametrize("family", ["gaussian", "multinomial"])
def test_fit_builds_its_data_constants_once(monkeypatch, family):
    """The per-fit constants (``_FitData``) and the variance floor are built
    once per fit, not once per cycle."""
    if family == "multinomial":
        data = gen_three_class(300, seed=3)
    else:
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.0, 3.0, size=300)
        data = Dataset(x[:, None], np.where(x > 0, 2.0 * x, -x) + rng.normal(size=300),
                       "real")
    config = FitConfig(max_cycles=50, rel_tol=1e-15)
    init = initialize(data, 3, family, ExpertDesign(), 0, config)
    calls = {"build": 0, "variance_floor": 0}
    build, floor = estimation._FitData.build, estimation.variance_floor

    def counted_build(cls, *args):
        calls["build"] += 1
        return build(*args)

    def counted_floor(*args):
        calls["variance_floor"] += 1
        return floor(*args)

    monkeypatch.setattr(estimation._FitData, "build", classmethod(counted_build))
    monkeypatch.setattr(estimation, "variance_floor", counted_floor)
    assert fit(data, init, config).cycles_used == 50
    assert calls["build"] == 1 and calls["variance_floor"] <= 1


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports(PACKAGE / module) == []


def relative_imports(path: Path) -> set[str]:
    """The package modules a module imports, read from its syntax tree."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def test_relative_imports_form_no_cycle():
    """The modules import each other along an acyclic graph: ``estimation``
    imports ``inference``, so nothing ``inference`` imports, directly or
    through ``tasks`` and ``model``, may import ``estimation``."""
    graph = {path.stem: relative_imports(path) for path in PACKAGE.glob("*.py")}
    done, chain = set(), []

    def visit(module):
        assert module not in chain, "import cycle: " + " -> ".join(chain + [module])
        if module not in done:
            chain.append(module)
            for imported in sorted(graph.get(module, ())):
                visit(imported)
            chain.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "io.py"))
def test_only_io_parses_csv(module):
    """The package has one CSV reader and one writer, both in ``io``: no
    other module imports ``csv`` or uses numpy's text-table functions."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None)} | {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"csv", "loadtxt", "genfromtxt", "savetxt"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_one_copy_of_each_family_kernel(module):
    """``model.softplus`` is the one softplus: no module calls numpy's
    log-add-exp or defines a softplus of its own.  The package routes on the
    family table's flags: a family's name is compared only in ``tasks``, by
    the two refusals (classification needs multinomial experts, the
    regression functionals gaussian ones), and class posteriors mix the
    multinomial entry's softmax, with no log-sum-exp of their own."""
    tree = ast.parse((PACKAGE / module).read_text())
    nodes = list(ast.walk(tree))
    assert not [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "logaddexp"]
    defined = {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
    defined |= {t.id for n in nodes if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    if module != "model.py":
        assert not {name for name in defined if "softplus" in name.lower()}
    compares = [n for n in nodes if isinstance(n, ast.Compare) and any(
        isinstance(c, ast.Constant) and c.value in FAMILIES for c in ast.walk(n))]
    if module == "tasks.py":
        refusing = {f.name for f in nodes if isinstance(f, ast.FunctionDef)
                    for n in ast.walk(f) if n in compares}
        assert len(compares) == 2 and refusing == {"class_posteriors", "gate_means"}
        assert not [n for n in nodes if "logsumexp" in (
            getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))]
    else:
        assert not compares, f"{module} compares a family name"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    """The runtime needs numpy alone; scipy is only the tests' oracle.  The
    starts of a fit run serially, so no module imports a thread pool
    either."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert not {n for n in names
                if n.split(".")[0] in {"scipy", "concurrent", "threading"}}


def test_import_loads_no_scipy():
    """A fresh interpreter that imports the package and its CLI has no scipy
    module loaded, whichever module would have pulled it in."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, moefit, moefit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "[]"
