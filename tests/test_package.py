"""Package-level tests: exception hierarchy, public exports, metadata,
the modules the CLI reaches, the one pricing chain, and the serving
engine's code size."""

import ast
import inspect
import io
import pathlib
import tokenize

import pytest

import repro
from repro import errors

#: The ``src/repro`` modules outside the CLI's import closure, each with
#: what keeps it.
UNREACHED_BY_CLI = {
    "repro.core.dual_task":
        "docs/PAPER_MAP.md: the concurrent host task (DualTaskModel)",
    "repro.core.library":
        "docs/PAPER_MAP.md: library vs single-kernel offload "
        "(LibraryPlanner)",
    "repro.core.sensor":
        "docs/PAPER_MAP.md: Figure 1's sensor paths (SensorPipeline)",
    "repro.power.pmu":
        "docs/PAPER_MAP.md: the performance monitoring unit "
        "(PerformanceMonitor)",
    "repro.pulp.executor":
        "the DES twin: benchmarks/test_extensions.py::"
        "test_des_executor_validation, tests/test_cross_validation.py",
    "repro.experiments.sensitivity": "benchmarks/test_sensitivity.py",
    "repro.experiments.mcu_grid":
        "benchmarks/test_extensions.py::test_mcu_efficiency_grid",
    "repro.experiments.cycle_breakdown": "benchmarks/test_ablations.py",
    "repro.kernels.data":
        "the fixture of the semantic kernel checks in "
        "tests/test_kernels_data.py",
}

#: The ``src/repro`` modules that may characterize a kernel by hand, each
#: with why: build its program, lower it on the host, run the OpenMP
#: model or derive its activity.  Every other module reads the memoized
#: stages of ``repro.core.pricing``.
CHARACTERIZERS = {
    "repro.core.pricing": "the memoized stages",
    "repro.core.system": "the HeterogeneousSystem.offload oracle the "
                         "stages are differential-tested against",
    "repro.pulp.executor": "the DES twin's analytic side",
    "repro.runtime.omp": "speedup_vs_single's 1-thread runtime",
    "repro.power.activity": "the canned matmul() activity vector",
}

#: Code lines (see :func:`code_lines`) ``src/repro/serve/`` may hold:
#: the count it was left at.  Lower it as ``serve/`` shrinks toward
#: ROADMAP item 5's 2 068; raising it is an explicit edit, noted in
#: CHANGES.md.
SERVE_CODE_LINES = 2454

#: Tokens that hold no code: comments, line structure, indentation.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def code_lines(source):
    """Non-blank lines holding a token other than a comment or a
    docstring (tokenize + ast): the count CHANGES.md and ROADMAP.md
    quote.  A multi-line token counts every line it spans."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def characterizing_calls(source):
    """Line numbers of the calls in *source* that characterize a kernel
    by hand: ``.build_program()``, ``.run_on_host()``,
    ``ActivityProfile.compute()`` and ``DeviceOpenMp()``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            hit = func.id == "DeviceOpenMp"
        elif isinstance(func, ast.Attribute):
            hit = func.attr in ("build_program", "run_on_host") or (
                func.attr == "compute" and isinstance(func.value, ast.Name)
                and func.value.id == "ActivityProfile")
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def module_files(src, package):
    """Dotted module name -> source file, for every module of *package*
    under the directory *src*."""
    files = {}
    for path in (src / package).rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def imported_names(name, path):
    """Every dotted name the module *name* imports, at any depth, with
    relative imports resolved; ``from pkg import x`` yields ``pkg`` and
    ``pkg.x``, since *x* may be a submodule."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def import_closure(files, roots):
    """The modules of *files* that importing *roots* can load: a module
    loads its parent packages first, then everything it imports."""
    reached = set()
    todo = list(roots)
    while todo:
        parts = todo.pop().split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in files and prefix not in reached:
                reached.add(prefix)
                todo.extend(imported_names(prefix, files[prefix]))
    return reached


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name, obj in inspect.getmembers(errors, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == "repro.errors":
                assert issubclass(obj, errors.ReproError), name

    def test_catching_base_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.ProtocolError("x")
        with pytest.raises(errors.ReproError):
            raise errors.KernelError("x")

    def test_subsystem_relationships(self):
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.OperatingPointError, errors.PowerModelError)
        assert issubclass(errors.BudgetError, errors.PowerModelError)
        assert issubclass(errors.ProtocolError, errors.LinkError)
        assert issubclass(errors.LoweringError, errors.IsaError)
        assert issubclass(errors.OffloadError, errors.RuntimeModelError)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_facade_importable_from_top_level(self):
        from repro import (
            HeterogeneousSystem,
            MatmulKernel,
            PulpPowerModel,
            Stm32L476,
            mhz,
        )
        assert HeterogeneousSystem is not None
        assert mhz(1) == 1e6

    def test_kernel_count_stable(self):
        assert len(repro.all_kernels()) == 10

    def test_subpackage_docstrings(self):
        import repro.core
        import repro.isa
        import repro.kernels
        import repro.link
        import repro.machine
        import repro.mcu
        import repro.power
        import repro.pulp
        import repro.runtime
        import repro.sim
        for module in (repro.core, repro.isa, repro.kernels, repro.link,
                       repro.machine, repro.mcu, repro.power, repro.pulp,
                       repro.runtime, repro.sim):
            assert module.__doc__ and len(module.__doc__) > 40, module


class TestCliReachability:
    def test_unreached_modules_are_exactly_the_allowlist(self):
        # src/ imports nothing by computed name, so the static closure
        # is exact.
        files = module_files(pathlib.Path(repro.__file__).parents[1],
                             "repro")
        unreached = set(files) - import_closure(
            files, ["repro.cli", "repro.__main__"])
        unlisted = sorted(unreached - set(UNREACHED_BY_CLI))
        stale = sorted(set(UNREACHED_BY_CLI) - unreached)
        assert not unlisted and not stale, (
            f"unreached, not allowlisted: {unlisted}; "
            f"allowlisted, but reached or gone: {stale}")

    def test_closure_follows_every_import_form(self, tmp_path):
        sources = {
            "pkg/__init__.py": "from pkg.top import x\n",
            "pkg/top.py": "",
            "pkg/cli.py": ("def run():\n"
                           "    from . import lazy\n"
                           "    from .sub import mod\n"),
            "pkg/lazy.py": "import pkg.deep.leaf\n",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "from ..rel import y\nfrom . import sibling\n",
            "pkg/sub/sibling.py": "",
            "pkg/rel.py": "",
            "pkg/deep/__init__.py": "",
            "pkg/deep/leaf.py": "",
            "pkg/orphan.py": "import pkg.top\n",
        }
        for name, text in sources.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        files = module_files(tmp_path, "pkg")
        assert set(files) - import_closure(files, ["pkg.cli"]) \
            == {"pkg.orphan"}


class TestOnePricingChain:
    def test_only_the_allowlist_characterizes_a_kernel(self):
        files = module_files(pathlib.Path(repro.__file__).parents[1],
                             "repro")
        found = {}
        for name, path in files.items():
            lines = characterizing_calls(path.read_text(encoding="utf-8"))
            if lines:
                found[name] = lines
        unlisted = {name: lines for name, lines in found.items()
                    if name not in CHARACTERIZERS}
        stale = sorted(set(CHARACTERIZERS) - set(found))
        assert not unlisted and not stale, (
            f"characterize by hand, not allowlisted (read "
            f"repro.core.pricing instead): {unlisted}; allowlisted, but "
            f"no such call: {stale}")

    def test_scan_finds_every_form(self):
        source = ("kernel.build_program()\n"
                  "system.run_on_host(kernel)\n"
                  "ActivityProfile.compute(4, 0.5)\n"
                  "DeviceOpenMp(target, 4)\n"
                  "ActivityProfile.idle()\n"
                  "pricing.program(kernel)\n"
                  "def build_program(self): pass\n")
        assert characterizing_calls(source) == [1, 2, 3, 4]


class TestCodeSize:
    def test_serve_stays_within_its_ceiling(self):
        serve = pathlib.Path(repro.__file__).parent / "serve"
        count = sum(code_lines(path.read_text(encoding="utf-8"))
                    for path in serve.rglob("*.py"))
        assert count <= SERVE_CODE_LINES, (
            f"src/repro/serve/ holds {count} code lines, above its "
            f"ceiling of {SERVE_CODE_LINES}")

    def test_counts_code_but_no_comment_docstring_or_blank(self):
        source = ('"""Module docstring."""\n'
                  "\n"
                  "# a comment\n"
                  "x = 1  # trailing comment\n"
                  "\n"
                  "def f():\n"
                  '    """Two-line\n'
                  '    docstring."""\n'
                  "    return '''a string\n"
                  "over two lines'''\n")
        # x = 1; def f(); and both lines the returned string spans.
        assert code_lines(source) == 4
