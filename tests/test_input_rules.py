"""The package root's two input rules, `integer_in` and `positive_length`, as
every library entry point applies them to its integer and length arguments."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybrown import brownian as bm
from polybrown import REFERENCE, SchemeKind, harness, igbm, levy
from polybrown import orthopoly as op

X = np.linspace(-1.0, 1.0, 7)
T = np.linspace(0.0, 1.0, 7)
W = np.linspace(-1.0, 1.0, 8).reshape(8, 1)


def _integer(argument, lo, hi, call):
    """A row for an integer argument in [lo, hi] (hi None: no upper bound):
    bools, floats and integers outside it are refused; an integer inside is
    tried as a Python int, as its decimal string, the CLI's spelling, and as
    each NumPy integer type that holds it."""
    refused = st.booleans() | st.floats() | st.integers(max_value=lo - 1)
    if hi is not None:
        refused |= st.integers(min_value=hi + 1)
    spellings = lambda v: [v, str(v), *(t(v) for t in (np.uint64, np.int64, np.uint16) if v <= np.iinfo(t).max)]
    return argument, refused, st.integers(lo, lo + 60 if hi is None else hi).map(spellings), call


def _length(argument, call):
    """A row for a length argument: NaN, zero and negative lengths are refused."""
    accepted = st.floats(1e-3, 10.0).map(lambda v: [v, np.float64(v)])
    return argument, st.just(math.nan) | st.floats(max_value=0.0), accepted, call


ROWS = [
    _integer("seed", 0, 2**64 - 1, lambda v: harness.path_generator(v, 1, 25, 3)),
    _integer("domain", 0, 2**16 - 1, lambda v: harness.path_generator(7, v, 25, 3)),
    _integer("level", 0, 2**16 - 1, lambda v: harness.path_generator(7, 1, v, 3)),
    _integer("index", 0, 2**32 - 1, lambda v: harness.path_generator(7, 1, 25, v)),
    _integer("n_intervals", 1, None, lambda v: harness.path_increments(7, 1, 25, range(2), v, [1.0, 0.5])),
    _integer("degree", 1, None, bm.kl_scale),
    _integer("degree", 1, None, lambda v: bm.sample_kl_batch(v, 3, np.random.default_rng(0))),
    _integer("count", 0, None, lambda v: bm.sample_kl_batch(3, v, np.random.default_rng(0))),
    _integer("n", 1, None, lambda v: bm.coarsen_arrays(W, W, [v, 0])),
    _integer("k", 0, None, lambda v: op.legendre_eval(v, X)),
    _integer("k", 2, None, lambda v: op.jacobi_m1m1_eval_legendre(v, X)),
    _integer("k", 2, None, lambda v: op.jacobi_m1m1_eval_recurrence(v, X)),
    _integer("k", 1, None, lambda v: op.basis_e_eval(v, T)),
    _integer("n", 1, op.MAX_DEGREE, op.gauss_legendre),
    _integer("k", 1, None, op.eigenvalue),
    _length("length", lambda v: levy.cond_mean_L(0.3, 0.2, v)),
    _length("length", lambda v: levy.cond_var_L(0.3, 0.2, v)),
    _length("length", lambda v: levy.triple_integrals_from_whl(0.3, 0.2, 0.1, v)),
    _length("length", bm.pair_scale),
    _length("length", lambda v: bm.sample_pair(v, np.random.default_rng(0))),
    _length("h", lambda v: igbm.simulate(SchemeKind.LOG_ODE, REFERENCE, W, W, h=v)),
]


def _bytes(result):
    """The bytes of every value a call gives: a stream's first draws, a generator's first item."""
    if isinstance(result, np.random.Generator):
        result = result.standard_normal(4)
    if isinstance(result, types.GeneratorType):
        result = next(result)
    if isinstance(result, tuple):
        return b"".join(map(_bytes, result))
    return np.asarray(result, dtype=float).tobytes()


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.sampled_from(ROWS), st.data())
def test_each_entry_point_applies_the_root_rules(row, data):
    # a value outside the rule is refused naming the argument; the spellings
    # of one value inside it give one result, to the bit
    argument, refused, accepted, call = row
    bad = data.draw(refused, label="refused")
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        _bytes(call(bad))
    results = [_bytes(call(value)) for value in data.draw(accepted, label="accepted")]
    assert results[1:] == results[:-1]


@pytest.mark.parametrize(
    "call, argument",
    [
        (lambda: harness.path_generator(1.5, 1, 0, 0), "seed"),  # was seed 1's stream
        (lambda: harness.path_generator(True, 1, 0, 0), "seed"),  # was seed 1's stream too
        (lambda: op.eigenvalue(1.5), "k"),  # was 1 / (1.5 * 2.5)
        (lambda: op.eigenvalue(np.array([1.5, 2.0])), "k"),
        (lambda: op.basis_e_eval(True, T), "k"),  # was e_1
        (lambda: op.gauss_legendre(True), "n"),  # was the 1-node rule
        (lambda: bm.sample_kl_batch(3, -1, np.random.default_rng(0)), "count"),  # was NumPy's negative dimensions
    ],
    ids=["float seed", "bool seed", "float k", "float k array", "bool basis index", "bool node count", "negative count"],
)
def test_inputs_the_rules_refuse(call, argument):
    with pytest.raises(ValueError, match=rf"^{argument}: expected an integer|^{argument}: expected {argument} >= "):
        call()


def test_eigenvalue_arrays_are_checked_by_their_least_element():
    assert op.eigenvalue(np.arange(1, 4)).tobytes() == np.array([op.eigenvalue(k) for k in (1, 2, 3)]).tobytes()
    assert op.eigenvalue(np.arange(1, 1)).size == 0  # the empty draw of a degree-1 path
    with pytest.raises(ValueError, match=r"^k: expected k >= 1, got np.int64\(0\)$"):
        op.eigenvalue(np.arange(0, 3))
