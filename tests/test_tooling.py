"""The test tooling itself: the pytest configuration, the declared test
dependencies and the benchmark's tracer."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kernelbridge as kb
from kernelbridge import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BENCH = TESTS.parent / "bench"


def test_a_failing_hypothesis_test_fails_normally(tmp_path):
    # with warnings as errors, a deprecation warning raised while hypothesis
    # reports a failure used to become an INTERNALERROR that stopped the run
    (tmp_path / "test_inner.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_after():
            pass
    """))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_inner.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
    assert "1 failed, 1 passed" in out


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def project_table() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(PYPROJECT.read_text())["project"]


def package_names(requirements) -> set[str]:
    """Import names of requirement strings such as ``"numpy>=2.0"``."""
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def third_party_imports(files, local: set[str]) -> set[str]:
    imported = set().union(*map(imported_top_level_modules, files))
    third_party = imported - set(sys.stdlib_module_names) - local - {"__future__"}
    assert third_party, "no third-party import found: the scan is broken"
    return third_party


def test_every_third_party_test_import_is_declared():
    project = project_table()
    declared = package_names(project["dependencies"] + project["optional-dependencies"]["test"])
    local = {"kernelbridge"} | {path.stem for path in TESTS.glob("*.py")}
    assert sorted(third_party_imports(TESTS.glob("*.py"), local) - declared) == []


def test_runtime_dependencies_are_exactly_the_package_imports():
    # an undeclared import fails, and so does a dependency that nothing imports
    imported = third_party_imports(SRC.rglob("*.py"), {"kernelbridge"})
    assert imported == package_names(project_table()["dependencies"]) == {"numpy"}



def bool_tests(node) -> list:
    """The ``isinstance(..., bool)`` calls under an ast node."""
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
            and any(getattr(name, "id", None) == "bool" for name in ast.walk(call.args[-1]))]


def test_one_reader_decides_what_a_valid_scalar_is():
    # the modules' own scalar checks disagreed (True, "2" and NaN passed some):
    # only measures imports numbers, and only its two readers test for a bool
    importers, everywhere, in_readers = set(), [], []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "numbers" in imported_top_level_modules(path):
            importers.add(path.name)
        everywhere += [(path.name, call.lineno) for call in bool_tests(tree)]
        if path.name == "measures.py":
            in_readers += [(path.name, call.lineno) for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and node.name in ("_number", "_count") for call in bool_tests(node)]
    assert importers == {"measures.py"}
    assert len(in_readers) == 2 and sorted(everywhere) == sorted(in_readers)


#: where a np.asarray, np.array or .astype to float may stand: the array reader,
#: and conversions of what the library itself computes (profile and kernel
#: values, the tables it writes)
FLOAT_CONVERSIONS = {("measures.py", "_reals"), ("profiles.py", "_evaluate"),
                     ("io.py", "_write_table")}


def converts_to_float(call) -> bool:
    """Whether an ast call is ``asarray``, ``array`` or ``astype`` to float."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    dtypes = [kw.value for kw in call.keywords if kw.arg == "dtype"]
    if name == "astype":
        dtypes += call.args[:1]
    return name in ("asarray", "array", "astype") and any(
        ast.unparse(dtype) in ("float", "np.float64", "numpy.float64") for dtype in dtypes)


def float_conversions(tree) -> list[str]:
    """The scopes (``Class.method``, ``function.closure`` or a module-level
    name) of the float conversions in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not scope:
            scope = ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        if isinstance(node, ast.Call) and converts_to_float(node):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_reader_decides_what_a_valid_array_is():
    # the modules read arrays by two rules: from_dict rejected "1" and True,
    # every np.asarray(..., dtype=float) took both and dropped 1+5j's imaginary part
    found = {(path.name, scope) for path in SRC.rglob("*.py")
             for scope in float_conversions(ast.parse(path.read_text(), filename=str(path)))}
    assert found == FLOAT_CONVERSIONS


#: where numpy's float warnings may be turned off, or a value that is not finite
#: raise: the overflow rule; the scalar and array readers, a probe grid's span
#: (its double must be finite) and the --grid flag; a profile's value (an
#: EvaluationError naming its argument); alpha, whose integral past the float
#: range is inf on purpose; and the mask of the lags whose products resolve
OVERFLOW_CHECKS = {("measures.py", "_in_range"), ("measures.py", "_number"),
                   ("measures.py", "_numbers"), ("profiles.py", "probe_grid"),
                   ("cli.py", "_grid"), ("profiles.py", "_evaluate"),
                   ("measures.py", "GammaMeasure.alpha"), ("spectral.py", "_resolved")}


def own_nodes(function):
    """The ast nodes of a function's decorators and body, not of the classes or
    functions it defines."""
    stack = [*function.decorator_list, *function.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def overflow_checks(tree) -> list[str]:
    """The scopes of the functions in a module that name np.errstate, or that
    test a value with isfinite, isinf or isnan and raise."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.FunctionDef):
            nodes = list(own_nodes(node))
            names = {getattr(n, "attr", getattr(n, "id", None)) for n in nodes}
            if "errstate" in names or names & {"isfinite", "isinf", "isnan"} \
                    and any(isinstance(n, ast.Raise) for n in nodes):
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_one_rule_decides_what_a_value_past_the_float_range_is():
    # eight hand-written checks worded five ways, and none at five more sites: a
    # zero-atom average and an rff estimate past the float range exited 0 with inf
    found = {(path.name, scope) for path in SRC.rglob("*.py")
             for scope in overflow_checks(ast.parse(path.read_text(), filename=str(path)))}
    assert found == OVERFLOW_CHECKS


#: where a value may be scaled by a power of two (frexp or ldexp): the one scaling
#: rule, and the sites that quantize rather than scale (the 26-bit head of an exact
#: product, the bin width) or split a quotient into mantissas and exponents (the
#: constant-law bins of spectral_from_gamma)
POWER_OF_TWO_SCALINGS = {("measures.py", "_scaled"), ("spectral.py", "_head"),
                         ("measures.py", "_bin_width"), ("spectral.py", "spectral_from_gamma")}


def scopes_calling(matches) -> set[tuple[str, str]]:
    """(module, scope) of every call in src/ that ``matches``; a scope is a module-level
    function or ``Class.method``, closures included."""
    found = set()

    def visit(path, node, scope, in_class):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (in_class or not scope):
            scope, in_class = (f"{scope}.{node.name}" if scope else node.name,
                               isinstance(node, ast.ClassDef))
        if isinstance(node, ast.Call) and matches(node):
            found.add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(path, child, scope, in_class)

    for path in SRC.rglob("*.py"):
        visit(path, ast.parse(path.read_text(), filename=str(path)), "", False)
    return found


def test_one_rule_scales_values_by_a_power_of_two():
    # five sites kept the float range each its own way (an exponent above one,
    # halved samples, halved terms, two eigensolves, one pre-scaled): each mend
    # found the next site unmended
    assert scopes_calling(lambda call: getattr(call.func, "attr", getattr(
        call.func, "id", None)) in ("frexp", "ldexp")) == POWER_OF_TWO_SCALINGS


#: where a tolerance may have an absolute floor: the inversion's noise floor
#: CLAMP_RTOL max(|k(0)|, 1e-300), whose relative part falls below the rounding
#: quantum of the subnormal density of a kernel of k(0) ~1e-319
ABSOLUTE_FLOORS = {("spectral.py", "bochner_inversion")}


def test_each_tolerance_is_relative():
    # two checks hid an absolute floor behind their relative tolerance, the bound
    # max(4 k0, 1) and the largest entry max(|A|, 1e-300): each gave another verdict
    # at small scales
    assert scopes_calling(lambda call: getattr(call.func, "id", None) in ("max", "min") and any(
        isinstance(arg, ast.Constant) and isinstance(arg.value, float) for arg in call.args)
    ) == ABSOLUTE_FLOORS


def test_the_benchmark_tracer_finds_every_name_it_patches(tmp_path):
    # a traced benchmark run exits 1 when the tracer meets a library name that
    # is gone, or when cli stops calling a patched name through its own
    # attribute (the layer's metric reads NaN): the commands of the
    # spectral-chain, sample-calculus and feature-map workloads are checked here
    spec = importlib.util.spec_from_file_location("tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    measure = kb.gaussian_measure(n_bins=16)
    kb.io.write_json(tmp_path / "mu.json", measure.to_dict())
    kb.io.write_json(tmp_path / "prod.json", {"factors": [measure.to_dict()] * 3})
    (tmp_path / "d2.csv").write_text("0,1,4\n1,0,1\n4,1,0\n")  # (x - y)^2 of 0, 1, 2
    spectral_chain = ["invert --kernel cauchy -o inverted.json", "gamma mu.json -o gamma.json",
                      "gamma gamma.json --k0 1 -o back.json", "screw gamma.json -o screw.csv",
                      "synth mu.json -o k.csv", "bound-check gamma.json --k0 1"]
    sample_calculus = ["check-nd d2.csv", "nd-to-psd d2.csv -o centered.csv",
                       "check-psd centered.csv", "embed d2.csv -o coords.csv"]
    tracer = tracing.Tracer()
    try:
        tracer.install(kb)
        # only a class may gain a name, one it inherits (from_dict, to_dict)
        added = [(owner, attr) for owner, attr, old in tracer._saved if old is tracing._MISSING]
        assert all(isinstance(owner, type) and any(attr in vars(base)
                                                   for base in owner.__mro__[1:])
                   for owner, attr in added), added
        for command in spectral_chain + sample_calculus:
            argv = [str(tmp_path / word) if "." in word else word for word in command.split()]
            assert cli.main(argv) == 0, command
        for d, measure_file in ((1, "mu.json"), (3, "prod.json")):
            kb.io.write_matrix_csv(tmp_path / "pairs.csv", [[0.5] * 2 * d])
            assert cli.main([
                "rff", str(tmp_path / measure_file), "-m", "64", "--seed", "1",
                "--pairs", str(tmp_path / "pairs.csv"), "--errors-out",
                str(tmp_path / "errors.csv"), "-o", str(tmp_path / "sample.json")]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"spectral.bochner_inversion", "spectral.atom_at_zero",
            "spectral.bochner_synthesis", "spectral.gamma_from_spectral",
            "spectral.spectral_from_gamma", "spectral.screw_synthesis",
            "spectral.int_bound_integral", "measures.from_dict", "measures.to_dict",
            "io.read_json", "io.write_json", "io.dumps_json", "io.write_profile_csv"} <= names
    assert {"gram.is_negative_definite", "gram.nd_to_psd", "gram.is_positive_definite",
            "gram.euclidean_embedding", "io.read_matrix_csv", "io.write_matrix_csv"} <= names
    assert {"features.sample_frequencies", "features.sample_product_frequencies",
            "features.approximate_kernel", "product.product_synthesis"} <= names


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults as Linux reports them")
def test_approximate_kernel_reuses_its_memory():
    # each (4, 4096) chunk allocated four 128 KiB arrays that the allocator handed
    # back to the system: ~12,000 page faults per call of 500 pairs, and timings
    # that moved with allocator history
    script = textwrap.dedent("""
        import resource
        import numpy as np
        import kernelbridge as kb
        product = kb.ProductSpectralMeasure(factors=(kb.gaussian_measure(),) * 3)
        sample = kb.sample_product_frequencies(product, m=4096, seed=1)
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(-3, 3, (500, 3)), rng.uniform(-3, 3, (500, 3))
        kb.approximate_kernel(sample, xs, ys)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        kb.approximate_kernel(sample, xs, ys)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300, check=True)
    assert int(run.stdout) < 1000


def test_records_holding_arrays_compare_by_identity():
    # a generated __eq__ compares the arrays elementwise and raised ValueError on
    # two equal records, and the generated __hash__ raised TypeError
    holding_arrays = set()
    for info in pkgutil.iter_modules(kb.__path__):
        module = importlib.import_module(f"kernelbridge.{info.name}")
        for record in vars(module).values():
            if (dataclasses.is_dataclass(record) and record.__module__ == module.__name__
                    and any(f.type == "np.ndarray" for f in dataclasses.fields(record))):
                holding_arrays.add(record.__name__)
                assert record.__dataclass_params__.eq is False, record.__name__
    assert {"FrequencySample", "GramMatrix", "DefinitenessVerdict",
            "EmbeddingResult"} <= holding_arrays


def test_every_error_takes_its_readings_by_one_rule():
    # only the base reads keyword readings, and only NotHilbertianError (a float
    # cast) and UnboundedMetricError (its message) wrap it
    errors = [value for value in vars(kb.exceptions).values()
              if isinstance(value, type) and issubclass(value, kb.KernelBridgeError)]
    assert sorted(error.__name__ for error in errors if "__init__" in vars(error)) == [
        "KernelBridgeError", "NotHilbertianError", "UnboundedMetricError"]
    assert [error.__name__ for error in errors if "diagnostic" in vars(error)] == [
        "KernelBridgeError"]
    assert kb.EvaluationError("e").argument is None
    assert kb.EigenSolverError("e").diagnostics == {}
    assert kb.EvaluationError("e", argument=2.0).diagnostic() == {
        "error": "KernelBridgeError", "message": "e", "argument": 2.0}


def test_the_inversion_config_holds_only_what_invert_sets():
    # a setting that no caller sets is a configuration that nothing uses: the
    # noise floor and the residual grid were three such fields
    tree = ast.parse((SRC / "kernelbridge" / "cli.py").read_text())
    command = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "cmd_invert")
    call = next(node for node in ast.walk(command) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "InversionConfig")
    assert [f.name for f in dataclasses.fields(kb.InversionConfig)] == [
        keyword.arg for keyword in call.keywords]
