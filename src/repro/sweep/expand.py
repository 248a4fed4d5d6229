"""Grid expansion: a :class:`~repro.sweep.spec.SweepSpec` into cells.

Expansion is deterministic end to end, which is what makes resume and
``--max-cells`` meaningful:

* kernels expand in spec order, axes in sorted-name order, values in
  declaration order -- the cartesian product enumerates like an
  odometer, so the same spec always yields the same cell sequence;
* filters only ever remove cells (pruning is monotone: adding a filter
  can never introduce a cell);
* ``max_cells`` keeps the first N surviving cells of that fixed order,
  so re-expanding a truncated spec reproduces exactly the same subset.
"""

from __future__ import annotations

import ast
import itertools
import operator
from typing import Any, Callable, Sequence

from repro.sweep.spec import SweepCell, SweepSpec, make_cell

#: Variables a filter expression may reference besides the axis names.
FILTER_BUILTINS = ("kernel", "size", "min", "max", "abs")

_CALLS = {"min": min, "max": max, "abs": abs}
_ARITH = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
}
_COMPARE = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}
#: Every node a filter may contain; ``**`` and attribute access are absent.
_ALLOWED = (
    ast.Expression,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.BinOp,
    *_ARITH,
    ast.Compare,
    *_COMPARE,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.Call,
)


def _refused(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) not in (int, float, str)
    if isinstance(node, ast.Call):
        callee = node.func.id if isinstance(node.func, ast.Name) else None
        return bool(node.keywords) or callee not in _CALLS
    return not isinstance(node, _ALLOWED)


def _number(value: Any) -> int | float:
    if not isinstance(value, (int, float)):
        raise TypeError(f"arithmetic takes numbers, not {type(value).__name__}")
    return value


def _evaluate(node: ast.AST, variables: dict[str, Any]) -> Any:
    """Python's value of a checked filter node, computed by walking it."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise NameError(f"name {node.id!r} is not defined")
        return variables[node.id]
    if isinstance(node, ast.BoolOp):  # short-circuits, yielding an operand
        for operand in node.values:
            value = _evaluate(operand, variables)
            if bool(value) != isinstance(node.op, ast.And):
                break
        return value
    if isinstance(node, ast.UnaryOp):
        value = _evaluate(node.operand, variables)
        return not value if isinstance(node.op, ast.Not) else -_number(value)
    if isinstance(node, ast.BinOp):
        left, right = (_number(_evaluate(n, variables)) for n in (node.left, node.right))
        return _ARITH[type(node.op)](left, right)
    if isinstance(node, ast.Compare):
        left = _evaluate(node.left, variables)
        for op, operand in zip(node.ops, node.comparators):
            right = _evaluate(operand, variables)
            if not _COMPARE[type(op)](left, right):
                return False
            left = right
        return True
    return _CALLS[node.func.id](*(_evaluate(arg, variables) for arg in node.args))


def compile_filter(expr: str) -> Callable[[dict[str, Any]], bool]:
    """A predicate over cell variables from a boolean expression.

    The expression sees each axis name, ``kernel`` and ``size`` as
    variables plus ``min``/``max``/``abs`` -- nothing else, so specs stay
    declarative: ``"jobs * chunk_size <= 64"``,
    ``"not (kernel == 'chain' and jobs == 1)"``.  The grammar is
    comparisons, ``and``/``or``/``not``, unary minus, ``+ - * / // %``
    between numbers, and int, float and str constants.  The expression is
    parsed and walked, never evaluated by Python: a syntax error or any
    other construct raises :class:`ValueError` at compile time, naming the
    refused node; referencing a name the cell does not define raises
    :class:`ValueError` at evaluation time.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    # the parser reports over-deep input as RecursionError or MemoryError
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ValueError(f"bad filter expression {expr!r}: {getattr(exc, 'msg', exc)}") from None
    for node in ast.walk(tree):
        if _refused(node):
            raise ValueError(
                f"bad filter expression {expr!r}: {type(node).__name__} is not allowed "
                "(filters use comparisons, and/or/not, + - * / // % on numbers, "
                "int/float/str constants, cell names and min/max/abs)"
            )

    def predicate(variables: dict[str, Any]) -> bool:
        try:
            return bool(_evaluate(tree.body, variables))
        except NameError as exc:
            raise ValueError(
                f"filter {expr!r} references an unknown name: {exc}; "
                f"cells define {', '.join(sorted(variables))}"
            ) from None
        except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise ValueError(f"filter {expr!r} failed on a cell: {exc}") from exc

    return predicate


def expand(spec: SweepSpec, extra_filters: Sequence[str] = ()) -> list[SweepCell]:
    """Every cell of the sweep, in the deterministic enumeration order.

    ``extra_filters`` (CLI ``--filter``) compose with the spec's own;
    a cell must satisfy all of them to survive.  ``max_cells``
    truncation happens last.
    """
    predicates = [compile_filter(f) for f in [*spec.filters, *extra_filters]]
    cells: list[SweepCell] = []
    for kernel in spec.kernels:
        axes = spec.axes_for(kernel)
        names = sorted(axes)
        for values in itertools.product(*(axes[name] for name in names)):
            assignment = dict(zip(names, values))
            cell = make_cell(kernel, spec.size, assignment, spec.base)
            variables = {"kernel": cell.kernel, "size": cell.size, **assignment}
            if all(p(variables) for p in predicates):
                cells.append(cell)
    if spec.max_cells is not None:
        cells = cells[: spec.max_cells]
    return cells
