"""The package's public names: everything ``ocsg.__all__`` lists exists,
and the solver modules define no verification code."""

import ast
from pathlib import Path

import ocsg


def test_every_exported_name_resolves():
    missing = [name for name in ocsg.__all__ if not hasattr(ocsg, name)]
    assert missing == []
    assert len(set(ocsg.__all__)) == len(ocsg.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ocsg import *", namespace)
    assert set(ocsg.__all__) <= set(namespace)


def test_counter_reward_view_stays_in_the_tests():
    # Solvers read counter games as parsed; the reward view of a counter
    # game is a test reference in tests/grids.py.
    assert "oc_to_reward_ssg" not in ocsg.__all__
    assert not hasattr(ocsg.model, "oc_to_reward_ssg")


# The reference analyses that ``ocsg.certify`` holds, which no solve calls.
MOVED_TO_CERTIFY = frozenset({
    "BsccAnalysis",
    "bscc_decompose",
    "strongly_connected_components",
    "_check_bscc",
    "_require_chain",
    "stationary_law",
    "analyze_bscc",
    "potential",
    "reach_probabilities",
    "chain_tail_value",
    "product_with_strategy",
})

# The references that left ``ocsg.certify`` for ``tests/grids.py`` (or, for
# the solve with a certificate, ``linsolve.factor`` plus
# ``grids.fraction_certificate``), since no ``src/`` path called them.
MOVED_TO_TESTS = frozenset({"solve_linear_system", "expected_mean_payoff", "procedure_mp", "absorbing"})

SOLVER_MODULES = ("model", "linsolve", "chain", "mdp", "ssg", "termination", "reduce", "cli")


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(ocsg.__file__).parent / f"{module}.py").read_text())


def _ocsg_imports(tree: ast.Module) -> set[str]:
    """The ``ocsg`` modules that ``tree`` imports, by name within the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("ocsg.") for alias in node.names if alias.name.startswith("ocsg.")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "ocsg" and not node.module.startswith("ocsg."):
                continue
            module = node.module.removeprefix("ocsg").lstrip(".") if node.level == 0 else node.module
            names |= {module} if module else {alias.name for alias in node.names}
    return names


def _defined(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def test_solver_modules_hold_only_the_solve():
    # A reader of a solver module sees only what a solve runs: the
    # verification code lives in ``ocsg.certify``, which only ``oracle``
    # (and the tests) import.
    for module in SOLVER_MODULES:
        tree = _tree(module)
        assert _defined(tree) & MOVED_TO_CERTIFY == set(), module
        assert "certify" not in _ocsg_imports(tree), module
    assert MOVED_TO_CERTIFY <= {node.name for node in _tree("certify").body if hasattr(node, "name")}
    assert "certify" in _ocsg_imports(_tree("oracle"))


def test_verification_modules_import_no_solver():
    # A check that calls ``mdp`` tests nothing that ``mdp`` gets wrong, so
    # ``certify`` and ``oracle`` stand on the chain kernels alone, and the
    # references that ran the solver live in ``tests/grids.py``.
    assert _ocsg_imports(_tree("certify")) == {"chain", "linsolve", "model"}
    assert _ocsg_imports(_tree("oracle")) == {"certify", "model"}
    for path in Path(ocsg.__file__).parent.glob("*.py"):
        assert _defined(ast.parse(path.read_text())) & MOVED_TO_TESTS == set(), path.name
