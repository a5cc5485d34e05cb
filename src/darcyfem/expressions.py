"""A small, safe expression grammar for user-defined problem data.

Grammar (evaluated with numpy broadcasting over point arrays):

    expr    := number | 'x' | 'y' | 'pi' | 'e'
             | expr ('+'|'-'|'*'|'/'|'**') expr | ('+'|'-') expr
             | fn '(' expr {',' expr} ')'
    fn      := sin | cos | exp | sqrt | abs | where
    where(cond, a, b) selects a where cond holds, b elsewhere; cond is a
    single comparison (expr ('<'|'<='|'>'|'>=') expr), which is how
    piecewise-on-halfplane data is written, e.g. "where(y <= 1, -2, 0)".

Expressions are parsed and compiled once, at problem-load time.
"""

from __future__ import annotations

import ast

import numpy as np


class ExpressionError(ValueError):
    """Raised when an expression falls outside the supported grammar."""


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "where": np.where,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)
_COMPARES = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _check(node: ast.AST, src: str, in_where: bool = False) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, src)
    elif isinstance(node, ast.Constant):
        # bool is an int, but True is not a number of the grammar
        if isinstance(node.value, bool) or \
                not isinstance(node.value, (int, float)):
            raise ExpressionError(f"unsupported constant {node.value!r} in {src!r}")
    elif isinstance(node, ast.Name):
        if node.id not in ("x", "y") and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r} in {src!r}")
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            raise ExpressionError(f"unsupported operator in {src!r}")
        _check(node.left, src)
        _check(node.right, src)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _UNARYOPS):
            raise ExpressionError(f"unsupported unary operator in {src!r}")
        _check(node.operand, src)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unsupported function call in {src!r}")
        if node.keywords:
            raise ExpressionError(f"keyword arguments are not supported in {src!r}")
        if node.func.id == "where":
            if len(node.args) != 3:
                raise ExpressionError(f"where() takes exactly three arguments in {src!r}")
            _check(node.args[0], src, in_where=True)
            _check(node.args[1], src)
            _check(node.args[2], src)
        else:
            if len(node.args) != 1:
                raise ExpressionError(
                    f"{node.func.id}() takes exactly one argument in {src!r}")
            _check(node.args[0], src)
    elif isinstance(node, ast.Compare):
        if not in_where:
            raise ExpressionError(
                f"comparisons are only allowed as the condition of where() in {src!r}")
        if len(node.ops) != 1 or not isinstance(node.ops[0], _COMPARES):
            raise ExpressionError(f"unsupported comparison in {src!r}")
        _check(node.left, src)
        _check(node.comparators[0], src)
    else:
        raise ExpressionError(
            f"unsupported syntax ({type(node).__name__}) in {src!r}")


def compile_expression(src: str):
    """Compile an expression string to a vectorized function of (x, y)."""
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc.msg}") from None
    _check(tree, src)
    code = compile(tree, "<problem expression>", "eval")
    env = {"__builtins__": {}}
    env.update(_FUNCTIONS)
    env.update(_CONSTANTS)

    def fn(x, y):
        # A nan or inf result is the caller's to refuse, with context; numpy's
        # warning would only print ahead of that error.
        with np.errstate(all="ignore"):
            return eval(code, env, {"x": x, "y": y})

    return fn
