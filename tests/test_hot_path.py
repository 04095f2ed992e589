"""``fit``'s per-iteration path calls no numpy module-level reduction wrapper.

On the small arrays of one outer iteration, ``np.all``, ``np.sum`` and the
like cost more in dispatch than the ndarray methods that run the same ufunc
reduction, and a one-dimensional ``@`` costs more than ``ndarray.dot``, which
runs the same BLAS ``ddot``.  This test reads the solver's source, so a
wrapper that creeps back into one of these functions fails it.
"""

import ast
import pathlib

from mmclust import solver

# every function a fit runs once or more per outer iteration
PER_ITERATION = {
    "CPWeights.__post_init__",
    "ClusterIndicator.__post_init__",
    "objective",
    "_row_norms",
    "_conjugate_gradient",
    "update_cluster_weights",
    "nearest_orthonormal",
    "fit",
    "update_view_weights",
    "compute_embedding",
    "apply_H",
    "_apply_H_tail",
}
WRAPPERS = {"all", "any", "sum", "max", "min"}


def solver_functions():
    tree = ast.parse(pathlib.Path(solver.__file__).read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def test_per_iteration_functions_call_no_reduction_wrapper():
    functions = solver_functions()
    assert PER_ITERATION <= functions.keys(), PER_ITERATION - functions.keys()
    offenders = []
    for name in sorted(PER_ITERATION):
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                and node.func.attr in WRAPPERS
            ):
                offenders.append(f"{name}:{node.lineno}: np.{node.func.attr}")
    assert not offenders, offenders


def test_conjugate_gradient_takes_inner_products_with_dot():
    # every product in the CG loop is a vector inner product
    cg = solver_functions()["_conjugate_gradient"]
    matmuls = [
        node.lineno
        for node in ast.walk(cg)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not matmuls, f"'@' on lines {matmuls}"
