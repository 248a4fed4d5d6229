"""Property tests for grid expansion.

The properties the sweep driver leans on: cell count equals the
product of axis lengths, filters prune monotonically, and ``max_cells``
truncates the same deterministic enumeration every time.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import SweepSpec, expand
from repro.sweep.expand import compile_filter

KERNELS = ["grm", "kmer-cnt", "chain"]

# unique values per axis: duplicate values would collapse two grid
# points into identical cells, which cells_by_id treats as an error
axis_values = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=4, unique=True
)
axes_strategy = st.dictionaries(
    st.sampled_from(["jobs", "chunk_size", "retries"]),
    axis_values,
    min_size=1,
    max_size=3,
)
kernels_strategy = st.lists(
    st.sampled_from(KERNELS), min_size=1, max_size=3, unique=True
)


@settings(max_examples=30, deadline=None)
@given(kernels=kernels_strategy, axes=axes_strategy)
def test_cell_count_is_the_product_of_axis_lengths(kernels, axes):
    spec = SweepSpec(kernels=kernels, axes=axes)
    cells = expand(spec)
    per_kernel = math.prod(len(v) for v in axes.values())
    assert len(cells) == len(kernels) * per_kernel
    # and every cell is distinct under the shared config digest
    assert len({c.cell_id for c in cells}) == len(cells)


@settings(max_examples=30, deadline=None)
@given(kernels=kernels_strategy, axes=axes_strategy, bound=st.integers(0, 64))
def test_filters_prune_monotonically(kernels, axes, bound):
    spec = SweepSpec(kernels=kernels, axes=axes)
    unfiltered = {c.cell_id for c in expand(spec)}
    axis = sorted(axes)[0]
    filtered = expand(spec, extra_filters=[f"{axis} <= {bound}"])
    assert {c.cell_id for c in filtered} <= unfiltered
    # stacking another filter can only shrink the set further
    narrower = expand(spec, extra_filters=[f"{axis} <= {bound}", f"{axis} <= {bound - 1}"])
    assert {c.cell_id for c in narrower} <= {c.cell_id for c in filtered}


@settings(max_examples=30, deadline=None)
@given(kernels=kernels_strategy, axes=axes_strategy, n=st.integers(1, 8))
def test_max_cells_truncates_the_deterministic_order(kernels, axes, n):
    full = expand(SweepSpec(kernels=kernels, axes=axes))
    truncated = expand(SweepSpec(kernels=kernels, axes=axes, max_cells=n))
    assert truncated == full[:n]
    # re-expansion reproduces the same sequence exactly
    assert expand(SweepSpec(kernels=kernels, axes=axes)) == full


def test_expansion_order_is_an_odometer():
    spec = SweepSpec(
        kernels=["grm", "chain"], axes={"jobs": [1, 2], "chunk_size": [8, 4]}
    )
    cells = expand(spec)
    # kernels in spec order, axes sorted by name, values in declaration order
    assert [(c.kernel, c.config_dict["chunk_size"], c.config_dict["jobs"]) for c in cells] == [
        ("grm", 8, 1),
        ("grm", 8, 2),
        ("grm", 4, 1),
        ("grm", 4, 2),
        ("chain", 8, 1),
        ("chain", 8, 2),
        ("chain", 4, 1),
        ("chain", 4, 2),
    ]


def test_filters_see_kernel_and_size():
    spec = SweepSpec(
        kernels=["grm", "chain"],
        axes={"jobs": [1, 2]},
        filters=["not (kernel == 'chain' and jobs == 1)"],
    )
    cells = expand(spec)
    assert all(not (c.kernel == "chain" and c.config_dict["jobs"] == 1) for c in cells)
    assert len(cells) == 3


def test_filter_syntax_error_is_a_value_error():
    with pytest.raises(ValueError, match="bad filter expression"):
        compile_filter("jobs <=")


def test_filter_unknown_name_is_a_value_error():
    predicate = compile_filter("threads > 1")
    with pytest.raises(ValueError, match="unknown name"):
        predicate({"kernel": "grm", "size": "small", "jobs": 1})


def test_filter_has_no_builtins():
    with pytest.raises(ValueError):
        predicate = compile_filter("__import__('os').getpid() > 0")
        predicate({"kernel": "grm", "size": "small", "jobs": 1})
