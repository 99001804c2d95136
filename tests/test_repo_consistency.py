"""Meta-tests: the documentation, CLI and benchmark harness stay in sync.

Refactors that rename an experiment or benchmark must update every
reference; these tests make the drift visible immediately.
"""

import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestCliRegistry:
    def test_every_cli_experiment_module_imports_and_runs(self):
        from repro.__main__ import EXPERIMENTS, RUN_ORDER

        for name in RUN_ORDER:
            mod_name, _desc = EXPERIMENTS[name]
            module = importlib.import_module(mod_name)
            assert callable(getattr(module, "run", None)), mod_name
            assert callable(getattr(module, "main", None)), mod_name

    def test_every_experiment_module_is_in_the_cli(self):
        from repro.__main__ import EXPERIMENTS

        registered = {mod for mod, _ in EXPERIMENTS.values()}
        exp_dir = REPO / "src" / "repro" / "experiments"
        for path in exp_dir.glob("*.py"):
            if path.stem in ("__init__", "common"):
                continue
            assert f"repro.experiments.{path.stem}" in registered, (
                f"experiment module {path.stem} missing from the CLI registry"
            )


class TestDesignIndex:
    def test_every_bench_target_in_design_exists(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (REPO / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed_in_design(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in design, (
                f"{path.name} not referenced in DESIGN.md's experiment index"
            )

    def test_design_module_references_resolve(self):
        design = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for mod in set(re.findall(r"`(repro\.[a-z_.]+)`", design)):
            importlib.import_module(mod)


class TestReadme:
    def test_readme_examples_exist_and_compile(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        examples = set(re.findall(r"examples/(\w+\.py)", readme))
        assert len(examples) >= 3, "README must advertise >= 3 examples"
        for name in examples:
            path = REPO / "examples" / name
            assert path.exists(), name
            compile(path.read_text(encoding="utf-8"), str(path), "exec")

    def test_readme_bench_table_matches_files(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for target in set(re.findall(r"`(bench_\w+\.py)`", readme)):
            assert (REPO / "benchmarks" / target).exists(), target


class TestExperimentsDoc:
    def test_every_experiment_md_bench_exists(self):
        text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for target in set(re.findall(r"`(bench_\w+\.py)`", text)):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/ALGORITHMS.md", "docs/SIMULATOR.md",
                     "docs/FAULTS.md", "docs/OBSERVABILITY.md"):
            assert (REPO / name).exists(), name


class TestPublicApi:
    def test_root_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_exports_resolve(self):
        for pkg in ("repro.core", "repro.dht", "repro.sim",
                    "repro.workloads", "repro.baselines", "repro.analysis"):
            module = importlib.import_module(pkg)
            for name in getattr(module, "__all__", []):
                assert getattr(module, name, None) is not None, (pkg, name)

    def test_public_items_have_docstrings(self):
        """Deliverable (e): doc comments on every public item."""
        for pkg in ("repro", "repro.core", "repro.dht", "repro.sim",
                    "repro.workloads", "repro.baselines", "repro.analysis"):
            module = importlib.import_module(pkg)
            assert module.__doc__, pkg
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if callable(obj) or isinstance(obj, type):
                    assert obj.__doc__, f"{pkg}.{name} lacks a docstring"


class TestConfigSurface:
    def test_every_config_field_is_read_under_src(self):
        """A ``HyperSubConfig`` field nothing reads is a switch that
        switches nothing: every field name must occur as an attribute
        access somewhere under ``src/repro/`` outside ``core/config.py``."""
        import ast
        import dataclasses

        from repro.core.config import HyperSubConfig

        src = REPO / "src" / "repro"
        read = set()
        for path in src.rglob("*.py"):
            if path == src / "core" / "config.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
        unread = {f.name for f in dataclasses.fields(HyperSubConfig)} - read
        assert not unread, f"config fields read nowhere under src/: {sorted(unread)}"

    #: fields only tests set; each must leave once a caller outside
    #: ``tests/`` sets it, and a new test-only knob fails the build
    TEST_ONLY_FIELDS = {
        "migration_max_acceptors": "acceptor count k, open question of ROADMAP item 7c",
    }

    def test_every_config_field_is_set_outside_tests(self):
        """Every ``HyperSubConfig`` field is passed by keyword to
        ``HyperSubConfig(...)`` -- or is a key of a config dict (a dict
        literal, ``dict(...)`` or ``.update(...)`` whose keys are all
        config fields) -- somewhere under ``src/repro/``, ``benchmarks/``
        or ``examples/``, except the named test-only fields."""
        import ast
        import dataclasses

        from repro.core.config import HyperSubConfig

        fields = {f.name for f in dataclasses.fields(HyperSubConfig)}
        paths = [
            p
            for top in ("src/repro", "benchmarks", "examples")
            for p in (REPO / top).rglob("*.py")
        ]
        set_outside = set()
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                    keys = {kw.arg for kw in node.keywords if kw.arg}
                    if name == "HyperSubConfig":
                        set_outside |= keys
                    elif name in ("dict", "update") and keys and keys <= fields:
                        set_outside |= keys
                elif isinstance(node, ast.Dict):
                    keys = {
                        k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    }
                    if keys and len(keys) == len(node.keys) and keys <= fields:
                        set_outside |= keys
        assert set(self.TEST_ONLY_FIELDS) == fields - set_outside


class TestWireFormatOwners:
    """Each packet kind of the node is built at exactly one place
    (docs/ALGORITHMS.md, "Wire formats"), so a format change -- or a
    serialiser for real sockets -- has one site to land on."""

    #: ``ps_event``: the forward step's two emit loops (the best-effort
    #: handler's fan-out and the general loop's ``Message(...)``), the
    #: self-addressed builder and the retransmit
    MAX_SITES = {"ps_event": 4}

    @staticmethod
    def node_modules():
        """The source files of every pub/sub class ``HyperSubChordNode``
        is assembled from, read off its MRO: the ``repro.core`` ones
        (the overlay and network classes below them speak ``chord_*`` /
        ``dht_*``, and the network writes the storm filler)."""
        import inspect

        from repro.core.node import HyperSubChordNode

        return sorted(
            {
                pathlib.Path(inspect.getsourcefile(cls))
                for cls in HyperSubChordNode.__mro__
                if cls.__module__.startswith("repro.core.")
            }
        )

    @classmethod
    def construction_sites(cls):
        """``{kind: ["module:line", ...]}`` over every call in the node's
        modules that is handed a ``"ps_*"`` literal, handler
        registration aside."""
        import ast

        sites = {}
        for path in cls.node_modules():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                if getattr(node.func, "attr", None) == "register_handler":
                    continue
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("ps_")
                    ):
                        sites.setdefault(arg.value, []).append(
                            f"{path.name}:{node.lineno}"
                        )
        return sites

    def test_the_node_is_assembled_from_its_modules(self):
        names = {path.name for path in self.node_modules()}
        assert {"node.py", "transport.py", "replication.py", "loadbalance.py"} <= names

    def test_each_kind_has_one_construction_site(self):
        sites = self.construction_sites()
        handled = set()
        for path in self.node_modules():
            source = path.read_text(encoding="utf-8")
            handled |= set(re.findall(r'register_handler\("(ps_\w+)"', source))
        # every kind the node handles is also written by the node, except
        # the storm filler the fault injector sends
        assert handled - set(sites) == {"ps_storm"}
        assert set(sites) <= handled
        for kind, where in sorted(sites.items()):
            assert len(where) <= self.MAX_SITES.get(kind, 1), (
                f"{kind} is constructed at {where}"
            )


class TestNoTestOnlyCode:
    """Every function, method and class defined under ``src/repro/`` has
    a use of its own kind somewhere under ``src/``, ``benchmarks/`` or
    ``examples/`` outside its own body, or it is code only the tests
    run.  A method (a definition in a class body) is used through an
    attribute token, or a word inside a string literal of
    ``benchmarks/e2e/layers.py``, the one file that patches methods by
    name (elsewhere a word in a string -- a message, a dict key -- keeps
    nothing alive); anything
    else -- a module-level function or class, a nested function --
    through a bare name, an import, an ``__all__`` entry, or
    ``module.name`` on a module the file imports.  So a method and a
    module-level function that share a name cannot keep each other
    alive.  Comments and docstrings do not count: a sentence about a
    function keeps nothing alive.  Dunders are skipped."""

    #: definitions kept although nothing outside ``tests/`` uses them
    ALLOWED = {
        "clear_cache": (
            "experiments.common: the test-isolation hook for the in-process memo"
        ),
        "index_size": (
            "CoveringStore: core/covering.py stays importable for the e2e layer list"
        ),
        "join_node": (
            "HyperSubSystem: live joins, which EXPERIMENTS.md C1 verifies "
            "through tests/test_core_joins.py"
        ),
        "to_spec": (
            "FaultSchedule: the inverse the chaos tests check from_spec against"
        ),
        "pending": (
            "Simulator: the heap-plus-lane size docs/SIMULATOR.md defines; "
            "tests/test_sim_engine.py pins cancelled stubs and lane backlog with it"
        ),
        "cdf": (
            "Distribution: the (x, F(x)) form of a figure's CDF for plotting; "
            "the text tables print percentiles instead"
        ),
    }

    @staticmethod
    def is_module(package, name):
        """Does ``from package import name`` bind a module of this repo?"""
        if not package:
            return False
        base = REPO / "src" / pathlib.Path(*package.split("."), name)
        return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()

    #: the one file whose string literals name methods (it patches them)
    PATCHER = REPO / "benchmarks" / "e2e" / "layers.py"

    @classmethod
    def uses(cls, tree, patcher=False):
        """``(line, name, kind)`` for every use in ``tree``: kind
        ``"attr"`` for an attribute token or, in the ``patcher`` file,
        a word inside a string literal that is not a docstring, another
        bare string statement or an ``__all__`` entry; ``"bare"`` for a
        name token, an imported name, an ``__all__`` entry, or the
        attribute of a module the file imports.  Comments yield
        nothing."""
        import ast

        modules = set()
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    out.add((node.lineno, alias.name, "bare"))
                    if cls.is_module(node.module, alias.name):
                        modules.add(alias.asname or alias.name)
        bare = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
        }
        exported = {
            id(elt)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in ast.walk(node.value)
        }
        word = re.compile(r"[A-Za-z_]\w*")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add((node.lineno, node.id, "bare"))
            elif isinstance(node, ast.Attribute):
                out.add((node.lineno, node.attr, "attr"))
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    out.add((node.lineno, node.attr, "bare"))
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in bare
            ):
                if id(node) in exported:
                    out.add((node.lineno, node.value, "bare"))
                elif patcher:
                    out |= {(node.lineno, w, "attr") for w in word.findall(node.value)}
        return out

    @staticmethod
    def definitions(tree):
        """``(node, kind)`` for every function and class definition:
        ``"attr"`` for one in a class body, else ``"bare"``."""
        import ast

        out = []

        def visit(parent, kind):
            for child in ast.iter_child_nodes(parent):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    out.append((child, kind))
                    visit(child, "attr" if isinstance(child, ast.ClassDef) else "bare")
                else:
                    visit(child, kind)

        visit(tree, "bare")
        return out

    def unused_definitions(self):
        """``(path, line, name)`` of every non-dunder definition under
        ``src/repro/`` with no use of its kind outside its own body."""
        import ast

        used_at = {}
        defs = []
        for top in ("src", "benchmarks", "examples"):
            for path in sorted((REPO / top).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for lineno, name, kind in self.uses(tree, path == self.PATCHER):
                    used_at.setdefault((name, kind), []).append((path, lineno))
                if path.is_relative_to(REPO / "src" / "repro"):
                    defs += [(path, node, kind) for node, kind in self.definitions(tree)]
        unused = []
        for path, node, kind in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            used = any(
                other != path or not node.lineno <= lineno <= node.end_lineno
                for other, lineno in used_at.get((name, kind), ())
            )
            if not used:
                unused.append((path, node.lineno, name))
        return unused

    def test_every_definition_is_named_outside_tests(self):
        found = self.unused_definitions()
        unused = [
            f"{path.relative_to(REPO)}:{line} {name}"
            for path, line, name in found
            if name not in self.ALLOWED
        ]
        assert not unused, "defined but only tests use it: " + ", ".join(unused)
        names = [name for _path, _line, name in found]
        stale = {name for name in self.ALLOWED if names.count(name) != 1}
        assert not stale, f"allowlisted names no longer unused once: {sorted(stale)}"


class TestOneJudge:
    """Whether a run was right is decided in ``repro/oracle.py`` and
    nowhere else under ``src/`` (docs/FAULTS.md, "How a run is judged"):
    a second brute-force loop is a second strength of check."""

    def test_no_private_judge_under_src(self):
        import ast

        src = REPO / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "matches"
                    and rel != "oracle.py"
                ):
                    offenders.append(f"{rel}:{node.lineno} calls .matches(")
                if (
                    isinstance(node, ast.Assign)
                    and rel.startswith("experiments/")
                    and any(
                        getattr(t, "attr", None) == "on_deliver"
                        for t in node.targets
                    )
                ):
                    offenders.append(f"{rel}:{node.lineno} assigns on_deliver")
        assert not offenders, "judge through repro.oracle: " + "; ".join(offenders)

    def test_delivery_order_is_checked_only_by_the_judge(self):
        """No function, method or parameter outside ``repro/oracle.py``
        is named like an ordering check: FIFO and causal order are the
        judge's call."""
        import ast
        import re

        checker = re.compile(r"(fifo|causal)_order|ordering_violations|check_ordering")
        src = REPO / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            if rel == "oracle.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = getattr(node, "name", None) or getattr(node, "arg", None)
                if isinstance(name, str) and checker.search(name):
                    offenders.append(f"{rel}:{node.lineno} {name}")
        assert not offenders, "order is judged in repro.oracle: " + "; ".join(offenders)


def modules_importing(module):
    """``path:line`` of every import of ``module`` under ``src/repro/``."""
    import ast

    src = REPO / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        package = ["repro", *path.relative_to(src).parent.parts]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from .covering import`` / ``from . import covering``
                # resolve against the importing module's package
                parts = package[: len(package) - node.level + 1] if node.level else []
                base = ".".join(parts + ([node.module] if node.module else []))
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            if module in names:
                offenders.append(f"{rel}:{node.lineno}")
    return offenders


class TestCoveringRetired:
    """Covering is store-level only: ``CoveringStore`` stays for the
    benchmarks that name it, but nothing on the pub/sub path builds it
    (docs/MATCHING.md, "Covering (retired)").  ``GridIndex`` and
    ``BandIndex`` are in the same state: no config selects them and
    nothing under ``src/repro/`` times them."""

    def test_no_module_under_src_imports_covering(self):
        offenders = modules_importing("repro.core.covering")
        assert not offenders, "imports repro.core.covering: " + ", ".join(offenders)

    def test_no_module_under_src_imports_indexing(self):
        offenders = modules_importing("repro.core.indexing")
        assert not offenders, "imports repro.core.indexing: " + ", ".join(offenders)
