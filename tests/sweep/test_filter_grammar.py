"""The sweep-filter grammar: filters are parsed and walked, never evaluated
by Python, so a filter from a spec file or a ``POST /jobs`` body can only
compare and do arithmetic on the cell's values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import SweepSpec, expand
from repro.sweep.expand import compile_filter

CELL = {"kernel": "grm", "size": "small", "jobs": 2, "chunk_size": 0}


@pytest.mark.parametrize(
    "expr",
    [
        "jobs * chunk_size <= 64",
        "not (kernel == 'chain' and jobs == 1)",
        "(chunk_size or jobs) * 2 == 4",
        "1 < jobs < 3",
        "min(jobs, 3) + max(1, chunk_size) - abs(-2) == 1",
        "jobs // 2 % 2 == 1",
        "jobs / 4 > 0.4",
        "-jobs < 0",
        "kernel != 'grm' or size == 'small'",
        "jobs and chunk_size",
    ],
)
def test_the_grammar_means_what_python_means(expr):
    scope = {"min": min, "max": max, "abs": abs, **CELL}
    expected = bool(eval(expr, {"__builtins__": {}}, scope))  # noqa: S307 - trusted literals
    assert compile_filter(expr)(CELL) is expected


@pytest.mark.parametrize(
    "expr, node",
    [
        ("jobs ** 2 > 1", "Pow"),
        ("().__class__", "Attribute"),
        ("kernel[0] == 'g'", "Subscript"),
        ("open('x')", "Call"),
        ("min(jobs, key=abs) > 1", "Call"),
        ("jobs is 1", "Is"),
        ("jobs in (1, 2)", "In"),
        ("+jobs", "UAdd"),
        ("jobs if kernel else 1", "IfExp"),
        ("True", "Constant"),
        ("[c for c in 'ab']", "ListComp"),
        ("(lambda: 1)()", "Call"),
        ("f'{jobs}' == '2'", "JoinedStr"),
    ],
)
def test_everything_else_is_refused_at_compile_time(expr, node):
    with pytest.raises(ValueError, match=f"{node} is not allowed"):
        compile_filter(expr)


@pytest.mark.parametrize("expr", ["'x' * 10000000000 == kernel", "kernel + 'x' == 'grmx'"])
def test_arithmetic_on_strings_is_refused(expr):
    with pytest.raises(ValueError, match="takes numbers"):
        compile_filter(expr)(CELL)


def test_a_spec_compiles_its_filters_before_any_cell(tmp_path):
    marker = tmp_path / "filter-ran"
    escape = (
        "[c for c in ().__class__.__base__.__subclasses__() if c.__name__ == '_wrap_close']"
        f"[0].__init__.__globals__['__builtins__']['open']({str(marker)!r}, 'w').close() is None"
    )
    with pytest.raises(ValueError, match="is not allowed"):
        expand(SweepSpec(kernels=["grm"], filters=[escape]))
    assert not marker.exists()


TOKENS = [
    "jobs", "chunk_size", "kernel", "size", "threads", "0", "2", "1.5", "'grm'", "''",
    "+", "-", "*", "/", "//", "%", "**", "==", "!=", "<", ">=", "and", "or", "not",
    "(", ")", "min(", "max(", "abs(", ",", ".", "__class__", "[", "]", "lambda", ":",
]


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=40) | st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join))
def test_any_text_compiles_to_a_total_predicate_or_a_value_error(expr):
    try:
        predicate = compile_filter(expr)
    except ValueError:
        return
    try:
        assert isinstance(predicate(CELL), bool)
    except ValueError:
        pass
