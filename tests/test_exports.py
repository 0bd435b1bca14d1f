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
    "solve_linear_system",
    "expected_mean_payoff",
    "procedure_mp",
    "absorbing",
    "product_with_strategy",
})

SOLVER_MODULES = ("model", "linsolve", "chain", "mdp", "ssg", "termination", "reduce", "cli")


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(ocsg.__file__).parent / f"{module}.py").read_text())


def _imports_certify(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "ocsg.certify" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("certify", "ocsg.certify"):
                return True
            if node.module in (None, "ocsg") and any(alias.name == "certify" for alias in node.names):
                return True
    return False


def test_solver_modules_hold_only_the_solve():
    # A reader of a solver module sees only what a solve runs: the
    # verification code lives in ``ocsg.certify``, which only ``oracle``
    # (and the tests) import.
    for module in SOLVER_MODULES:
        tree = _tree(module)
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        assert defined & MOVED_TO_CERTIFY == set(), module
        assert not _imports_certify(tree), module
    assert MOVED_TO_CERTIFY <= {node.name for node in _tree("certify").body if hasattr(node, "name")}
    assert _imports_certify(_tree("oracle"))
