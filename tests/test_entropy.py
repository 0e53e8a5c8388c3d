"""Entropy family: frozen values, deformed-log identities, expansion structure."""

import copy
import itertools
import math
import pickle
import re
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entrogup import entropy
from entrogup.entropy import (
    ProbVector,
    log_minus,
    log_plus,
    renyi,
    s_minus,
    s_minus_equiprob_expansion,
    s_plus,
    s_plus_equiprob_expansion,
    shannon,
    tsallis,
)
from entrogup.maxent import maxent_distribution

# independent evaluations (mpmath, 50 digits, rounded to double)
SHANNON_QUARTER = 0.5623351446188083  # -(0.25 ln 0.25 + 0.75 ln 0.75)
S_PLUS_HALF = 0.5857864376269049  # 2 - sqrt(2)
S_MINUS_HALF = 0.8284271247461903  # 2 sqrt(2) - 2
S_PLUS_UNIFORM4 = 1.1715728752538097  # 4 (1 - 4^(-1/4))
S_PLUS_PARTIAL3_OMEGA4 = 1.1738199084932006


# the most states that take the float route; one more takes the array route
N = entropy._FLOAT_ROUTE_MAX


def uniform(omega):
    return ProbVector.uniform(omega)


# --------------------------------------------------------------------------
# the per-level formulas that the array expressions replaced: the reference


def shannon_loop(probs):
    return -math.fsum(p * math.log(p) for p in probs) + 0.0


def s_plus_loop(probs):
    return math.fsum(-math.expm1(p * math.log(p)) for p in probs)


def s_minus_loop(probs):
    return math.fsum(math.expm1(-p * math.log(p)) for p in probs)


def tsallis_loop(probs, q):
    return (1.0 - math.fsum(p**q for p in probs)) / (q - 1.0)


def renyi_loop(probs, q):
    return math.log(math.fsum(p**q for p in probs)) / (1.0 - q) + 0.0


def deficit_loop(probs, q):
    """|q - 1| tsallis, term by term: p**min(q, 1) * -expm1(|q - 1| ln p)."""
    return math.fsum(p ** min(q, 1.0) * -math.expm1(abs(q - 1.0) * math.log(p)) for p in probs)


def close(reference, abs=0.0):
    return pytest.approx(reference, rel=1e-14, abs=abs)


def gibbs_like(n):
    """Seeded normalized weights exp(-x), x in [0, 30]: 13 decades of p."""
    x = np.sort(np.random.default_rng([5, n]).uniform(0.0, 30.0, n))
    weights = [math.exp(-v) for v in x.tolist()]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


@pytest.mark.parametrize("n", [1, 2, 500, 5000, N, N + 1])
def test_entropies_match_per_level_formulas(n):
    # numpy's log/expm1/pow differ from math's by at most 1 ulp on some
    # elements.  In the S+- terms, of size up to 1/e, that stays below an
    # absolute eps per level; the other sums keep rel 1e-14.
    probs = gibbs_like(n)
    dist = ProbVector(probs)
    per_level = n * np.finfo(float).eps
    assert shannon(dist) == close(shannon_loop(probs))
    assert s_plus(dist) == close(s_plus_loop(probs), abs=per_level)
    assert s_minus(dist) == close(s_minus_loop(probs), abs=per_level)
    for q in (0.5, 2.0, 3.7):
        assert tsallis(dist, q) == close(tsallis_loop(probs, q))
        assert renyi(dist, q) == close(renyi_loop(probs, q))
    if n <= N:
        # the float route evaluates the per-level formulas themselves
        assert shannon(dist) == shannon_loop(probs)
        assert s_plus(dist) == s_plus_loop(probs)
        assert s_minus(dist) == s_minus_loop(probs)
        for q in (0.5, 3.7):
            assert tsallis(dist, q) == deficit_loop(probs, q) / abs(q - 1.0) + 0.0


@pytest.mark.parametrize("container", [tuple, list, np.array])
def test_probvector_input_containers(container):
    for n in (N, N + 1, 500):
        probs = gibbs_like(n)
        pv = ProbVector(container(probs))
        assert pv == ProbVector(probs)
        assert type(pv.probs) is tuple and all(type(p) is float for p in pv.probs)
        assert pv.probs == probs
        assert (pv._array is None) == (n <= N)


def test_probvector_takes_numpy_floats_on_the_float_route():
    # numpy's float64 is a float, converted with float() as a Python float is
    for n in (2, N, N + 1):
        probs = gibbs_like(n)
        pv = ProbVector(list(np.array(probs)))
        assert type(pv.probs) is tuple and all(type(p) is float for p in pv.probs)
        assert pv.probs == probs
        assert (pv._array is None) == (n <= N)
        for fn in (shannon, s_plus, s_minus):
            assert fn(pv).hex() == fn(ProbVector(probs)).hex()


def test_probvector_keeps_its_own_copy():
    # on both routes, of an array or a list changed after construction
    for probs in ((0.25, 0.75), gibbs_like(N + 1)):
        for source in (np.array(probs), list(probs)):
            pv = ProbVector(source)
            source[0] = 0.5
            assert pv.probs == probs
            assert s_plus(pv) == s_plus(ProbVector(probs))


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("n", [N + 1, 4000])
def test_array_route_builds_the_tuple_on_first_read(n):
    array = np.array(gibbs_like(n))
    pv = ProbVector(array)
    assert "probs" not in vars(pv)
    assert len(pv) == n and type(len(pv)) is int
    for fn in (shannon, s_plus, s_minus):
        fn(pv)
    assert "probs" not in vars(pv)
    assert type(pv.probs) is tuple and all(type(p) is float for p in pv.probs)
    assert hexes(pv.probs) == hexes(array.tolist())
    assert vars(pv)["probs"] is pv.probs  # built once
    # the float route builds it on construction, and has no array
    small = ProbVector(gibbs_like(N))
    assert "probs" in vars(small) and small._array is None


@pytest.mark.parametrize("n", [N + 1, 4000])
def test_lazy_tuple_reads_agree_with_the_tuple(n):
    probs = gibbs_like(n)
    reference = ProbVector(probs)
    reference.probs
    reads = [
        lambda pv: pv == reference,
        lambda pv: hash(pv) == hash(reference),
        lambda pv: repr(pv) == repr(reference) == f"ProbVector(probs={probs!r})",
        lambda pv: list(pv) == list(probs),
        lambda pv: (pv[0], pv[n // 2], pv[-1]) == (probs[0], probs[n // 2], probs[-1]),
        lambda pv: copy.copy(pv) == reference and copy.copy(pv).probs == probs,
        lambda pv: pickle.loads(pickle.dumps(pv)).probs == probs,
    ]
    for read in reads:
        pv = ProbVector(np.array(probs))
        assert "probs" not in vars(pv)
        assert read(pv)
        assert pv.probs == probs


def test_maxent_distribution_leaves_the_tuple_unbuilt():
    levels = np.linspace(0.0, 20.0, 200).tolist()
    for kind in ("boltzmann", "plus", "minus"):
        dist = maxent_distribution(levels, 1.0, kind)
        assert dist._array is not None and "probs" not in vars(dist)


def spectrum_like(n, kind):
    rng = np.random.default_rng([6, n])
    energies = [0.0, *np.sort(rng.uniform(0.0, rng.uniform(3.0, 60.0), n - 1)).tolist()]
    return maxent_distribution(energies, 1.0, kind)


# the per-entropy numpy formulas that one shared p ln p pass replaced
PLOGP_REFERENCE = {
    shannon: lambda p: -entropy._fsum(p * np.log(p)),
    s_plus: lambda p: entropy._fsum(-np.expm1(p * np.log(p))),
    s_minus: lambda p: entropy._fsum(np.expm1(-p * np.log(p))),
}


@pytest.mark.parametrize("n", [N + 1, 100, 500, 2000, 4000])
def test_shared_plogp_keeps_the_per_entropy_bits(n):
    dists = [ProbVector(gibbs_like(n))]
    dists += [spectrum_like(n, kind) for kind in ("plus", "minus", "boltzmann")]
    for dist in dists:
        expected = {fn: ref(dist._array).hex() for fn, ref in PLOGP_REFERENCE.items()}
        for order in itertools.permutations(PLOGP_REFERENCE):
            fresh = ProbVector(dist._array)
            assert {fn: fn(fresh).hex() for fn in order} == expected


def test_shared_plogp_is_a_private_read_only_cache():
    probs = gibbs_like(500)
    pv = ProbVector(probs)
    assert "_plogp" not in vars(pv)
    shannon(pv)
    terms = vars(pv)["_plogp"]
    s_plus(pv)
    s_minus(pv)
    assert vars(pv)["_plogp"] is terms and not terms.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        terms[0] = 0.0
    fresh = ProbVector(probs)
    assert pv == fresh and hash(pv) == hash(fresh)
    assert repr(pv) == repr(fresh) and "_plogp" not in repr(pv)
    assert pickle.dumps(pv) == pickle.dumps(fresh)
    assert "_plogp" not in vars(pickle.loads(pickle.dumps(pv)))
    # the float route sums its terms without it
    small = ProbVector(gibbs_like(N))
    shannon(small)
    assert "_plogp" not in vars(small)


REFUSALS = [
    ((0.5, float("nan"), 0.5), r"must lie in \(0, 1\], got nan"),
    ((0.5, 0.0, 0.5), r"must lie in \(0, 1\], got 0\.0"),
    ((0.25, 1.5, -0.75), r"must lie in \(0, 1\], got 1\.5"),  # the first one named
    ((0.5, float("inf")), r"must lie in \(0, 1\], got inf"),
    ((0.5, 0.5 + 2e-12), r"sum to 1\.000000000002.*, not 1"),
    ((), "at least one state"),
]


def split_last(probs, n):
    """``probs`` with its last entry split into equal parts, ``n`` entries in all."""
    parts = n - len(probs) + 1
    return probs[:-1] + (probs[-1] / parts,) * parts


# each refusal on both routes too: N states (float route) and N + 1 (array route)
@pytest.mark.parametrize("container", [tuple, list, np.array])
@pytest.mark.parametrize(
    "probs, message",
    REFUSALS + [(split_last(p, n), m) for p, m in REFUSALS if p for n in (N, N + 1)],
)
def test_probvector_refusals(container, probs, message):
    with pytest.raises(ValueError, match=message):
        ProbVector(container(probs))


def test_probvector_range_ends_on_both_routes():
    # the array route tests the range by its min and max: the least
    # subnormal and exactly 1 are inside it
    for n in (N, N + 1):
        probs = (1.0,) + (5e-324,) * (n - 1)
        assert ProbVector(np.array(probs)).probs == probs


def test_probvector_names_the_exact_sum():
    # ten 0.1s add up to 0.9999999999999999 left to right, exactly to 1 + 5.6e-17
    probs = (0.1,) * 9 + (0.1 + 3e-12,)
    for states in (probs, split_last(probs, N + 1)):
        with pytest.raises(ValueError, match=r"sum to 1\.000000000003, not 1$"):
            ProbVector(states)


def test_probvector_refuses_non_1d_input():
    for probs in (((0.5, 0.5),), np.array([[0.5], [0.5]]), np.float64(1.0),
                  [np.array([0.5]), np.array([0.5])], np.full((N, 1), 1.0 / N)):
        with pytest.raises(ValueError, match="1-D"):
            ProbVector(probs)


def test_probvector_validation():
    with pytest.raises(ValueError):
        ProbVector(())
    with pytest.raises(ValueError, match="at least one state"):
        ProbVector(range(0))  # numpy converts it: the array route
    with pytest.raises(ValueError):
        ProbVector((0.5, 0.6))
    with pytest.raises(ValueError):
        ProbVector((1.5, -0.5))
    with pytest.raises(ValueError):
        ProbVector((0.0, 1.0))
    pv = ProbVector((0.25, 0.75))
    assert len(pv) == 2
    assert pv[1] == 0.75
    assert list(pv) == [0.25, 0.75]


def test_uniform_constructor():
    pv = uniform(4)
    assert pv.probs == (0.25,) * 4
    assert uniform(np.int64(4)) == pv
    with pytest.raises(ValueError, match="at least one state"):
        ProbVector.uniform(0)
    for bad in (2.5, 4.0, True, "4", None):
        with pytest.raises(ValueError, match="must be an integer"):
            ProbVector.uniform(bad)


@pytest.mark.parametrize("omega", [10**12, 10**20, np.int64(2**62)])
def test_uniform_refuses_counts_above_bound_before_allocating(omega):
    # 10**12 states would need ~80 TB; the refusal comes before any allocation
    with pytest.raises(ValueError, match=r"must lie in \[1, 1048576\]"):
        ProbVector.uniform(omega)


@pytest.mark.parametrize("omega", [N + 1, 1 << 20])
def test_uniform_array_keeps_the_tuple_bits(omega):
    pv = ProbVector.uniform(omega)
    from_tuple = ProbVector((1.0 / omega,) * omega)
    assert pv._array.tobytes() == from_tuple._array.tobytes()
    assert not pv._array.flags.writeable
    assert [fn(pv).hex() for fn in (shannon, s_plus, s_minus)] == [
        fn(from_tuple).hex() for fn in (shannon, s_plus, s_minus)
    ]
    if omega == N + 1:
        assert pv == from_tuple and pv.probs == (1.0 / omega,) * omega


# --------------------------------------------------------------------------
# _float_array: np.array(values, dtype=float), bit for bit and error for error


def conversion(convert, values):
    """What ``convert(values)`` returns (dtype, shape and bytes) or raises
    (type and message), and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = convert(values)
        except Exception as exc:
            result = (type(exc), str(exc))
        else:
            result = (out.dtype, out.shape, out.tobytes(), out.flags.writeable)
    return result, [(w.category, str(w.message)) for w in caught]


class OldNumpyArray:
    """A 1-element array as numpy 1.25-2.2 treat one: ``float()`` gives its
    value with a DeprecationWarning, ``np.array`` nests it."""

    def __init__(self, value):
        self.value = value

    def __array__(self, dtype=None, copy=None):
        return np.array([self.value], dtype=dtype)

    def __float__(self):
        warnings.warn("Conversion of an array with ndim > 0 to a scalar is deprecated",
                      DeprecationWarning, stacklevel=2)
        return self.value


ENTRIES = {
    "float": 0.3,
    "negative zero": -0.0,
    "nan": math.nan,
    "int": 3,
    "int past 2**53": 2**53 + 1,
    "int past int64": -(2**63) - 1,
    "bool": True,
    "10**400": 10**400,
    "np.float64": np.float64(0.1),
    "np.float32": np.float32(0.1),
    "np.int64": np.int64(2**62 + 1),
    "Fraction": Fraction(1, 3),
    "Decimal": Decimal("0.1"),
    "0-d array": np.array(0.25),
    "numeric string": "0.5",
    "None": None,
    "complex": 1 + 2j,
    "np.complex128": np.complex128(1 + 2j),
    "nested list": [0.5],
    "1-element array": np.array([0.5]),
    "deprecated 1-element array": OldNumpyArray(0.5),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@pytest.mark.parametrize("n", [N + 1, 4000])
@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("layout", ["one", "all"])
def test_float_array_is_np_array(entry, n, container, layout, monkeypatch):
    if isinstance(entry, OldNumpyArray):
        # the numpy it models has float() take a 1-element array
        monkeypatch.setattr(entropy, "_float_takes_arrays", lambda: True)
    values = np.random.default_rng(n).random(n).tolist()
    if layout == "all":
        values = [entry] * n
    else:
        values[n // 2] = entry
    values = container(values)
    expected = conversion(lambda v: np.array(v, dtype=float), values)
    assert conversion(entropy._float_array, values) == expected


def test_float_array_packs_plain_numbers_without_numpy_discovery(monkeypatch):
    # the pack runs where float() refuses a 1-element array, as on numpy 2.3+
    monkeypatch.setattr(entropy, "_float_takes_arrays", lambda: False)
    values = [0.5, 1, True, np.float64(0.25)] * 50
    with mock.patch.object(np, "array", wraps=np.array) as spy:
        out = entropy._float_array(values)
    assert not spy.called
    assert out.tobytes() == np.array(values, dtype=float).tobytes()
    assert entropy._float_array([]).shape == (0,)


def test_float_array_leaves_lists_to_numpy_where_float_takes_arrays(monkeypatch):
    # numpy 1.25-2.2: the pack could tell a 1-element array entry only under
    # a process-wide warnings filter, so numpy converts every list
    monkeypatch.setattr(entropy, "_float_takes_arrays", lambda: True)
    values = [0.5, 1, True, np.float64(0.25)] * 50
    with mock.patch("struct.pack_into") as pack, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = entropy._float_array(values)
    assert not pack.called
    assert out.tobytes() == np.array(values, dtype=float).tobytes()


def test_float_array_refuses_a_deprecated_1_element_array_entry(monkeypatch):
    # numpy 1.25-2.2 convert such an entry with float() and a warning; the
    # conversion must nest it, or the distribution would pass as 1-D
    monkeypatch.setattr(entropy, "_float_takes_arrays", lambda: True)
    probs = [OldNumpyArray(0.5), OldNumpyArray(0.5)] * (N + 1)
    assert entropy._float_array(probs).shape == (2 * N + 2, 1)
    with pytest.raises(ValueError, match="1-D"):
        ProbVector(probs)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_float_array_leaves_other_threads_warnings_alone():
    # the conversion sets no warnings filter on any numpy, so a warning in
    # another thread stays a warning while it runs
    float_takes_arrays = True
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            float(np.array([0.5]))
    except TypeError:
        float_takes_arrays = False
    assert entropy._float_takes_arrays() is float_takes_arrays
    values = np.random.default_rng(5).random(2000).tolist()
    expected = np.array(values).tobytes()
    stop, raised, warned = threading.Event(), [], [0]

    def warn():
        while not stop.is_set():
            try:
                warnings.warn("from another thread", UserWarning)
            except Exception as exc:
                raised.append(exc)
            warned[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=warn)
    try:
        thread.start()
        for _ in range(300):
            assert entropy._float_array(values).tobytes() == expected
    finally:
        stop.set()
        thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert warned[0] > 0 and raised == []


@pytest.mark.parametrize("source", [
    np.linspace(0.0, 1.0, N + 1),
    np.linspace(0.0, 1.0, N + 1, dtype=np.float32),
    np.arange(N + 1),
])
def test_float_array_copies_an_ndarray(source):
    source.flags.writeable = False
    out = entropy._float_array(source)
    assert out.dtype == float and out.flags.writeable
    assert not np.shares_memory(out, source)
    assert out.tobytes() == np.array(source, dtype=float).tobytes()


# --------------------------------------------------------------------------
# the array route's sum check: one numpy sum decides it where Higham's bound
# settles it, the exact sum everywhere else


def exact_refusal(array):
    """The array route's message for ``array`` from its range test and its
    exact sum alone, or None where it is a distribution."""
    outside = array[~((array > 0.0) & (array <= 1.0))]
    if outside.size:
        return f"probabilities must lie in (0, 1], got {float(outside[0])!r}"
    total = math.fsum(array.tolist())
    if abs(total - 1.0) > entropy._SUM_TOL:
        return f"probabilities sum to {total!r}, not 1"
    return None


def assert_exact_decision(array):
    message = exact_refusal(array)
    if message is None:
        assert ProbVector(array)._array.tobytes() == array.tobytes()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProbVector(array)


def sum_edges():
    """The last accepted sum and the first refused one, above 1 and below."""
    edges = []
    for away in (2.0, 0.0):
        inside = 1.0
        while abs(math.nextafter(inside, away) - 1.0) <= entropy._SUM_TOL:
            inside = math.nextafter(inside, away)
        edges += [inside, math.nextafter(inside, away)]
    return edges


def summing_to(total, n):
    """``n`` positive doubles whose exact sum is ``total``: n - 1 equal powers
    of 2 make up a quarter to a half, the last entry the rest."""
    part = 2.0 ** -((n - 1).bit_length() + 1)
    array = np.full(n, part)
    array[-1] = total - (n - 1) * part
    assert math.fsum(array.tolist()) == total
    return array


def test_sum_edges_are_one_ulp_apart_around_the_tolerance():
    above, refused_above, below, refused_below = sum_edges()
    assert above - 1.0 <= entropy._SUM_TOL < refused_above - 1.0
    assert 1.0 - below <= entropy._SUM_TOL < 1.0 - refused_below
    assert refused_above == math.nextafter(above, 2.0)
    assert refused_below == math.nextafter(below, 0.0)


@pytest.mark.parametrize("total", sum_edges())
@pytest.mark.parametrize("n", [N + 1, 4000, 1 << 20])
def test_sum_check_decides_at_the_tolerance_as_the_exact_sum(n, total):
    assert_exact_decision(summing_to(total, n))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.0, 1.5])
@pytest.mark.parametrize("n", [N + 1, 4000, 1 << 20])
def test_sum_check_leaves_range_refusals_as_they_were(n, bad):
    array = np.full(n, 1.0 / n)
    array[n // 3] = bad
    assert_exact_decision(array)


@given(st.integers(0, 2**32 - 1), st.integers(N + 1, 5000),
       st.floats(-4e-12, 4e-12), st.sampled_from([0.0, 1.0, 30.0, 700.0]))
@settings(max_examples=200, deadline=None)
def test_sum_check_decides_as_the_exact_sum(seed, n, offset, spread):
    rng = np.random.default_rng(seed)
    weights = np.exp(-np.sort(rng.uniform(0.0, spread, n)))
    assert_exact_decision(weights / weights.sum() * (1.0 + offset))


def test_sum_check_takes_no_exact_sum_for_a_maxent_distribution(monkeypatch):
    # maxent normalizes with its own _fsum; entropy's is the sum check's
    exact = mock.Mock(wraps=entropy._fsum)
    monkeypatch.setattr(entropy, "_fsum", exact)
    levels = np.sort(np.random.default_rng(2000).uniform(0.0, 30.0, 2000)).tolist()
    for kind in ("plus", "minus", "boltzmann"):
        maxent_distribution(levels, 1.0, kind)
    assert not exact.called
    for total in sum_edges()[::2]:  # accepted, on the exact sum
        ProbVector(summing_to(total, 2000))
    assert exact.call_count == 2


def test_frozen_values():
    assert shannon(ProbVector((0.25, 0.75))) == pytest.approx(SHANNON_QUARTER, rel=1e-14)
    assert s_plus(ProbVector((0.5, 0.5))) == pytest.approx(S_PLUS_HALF, rel=1e-14)
    assert s_minus(ProbVector((0.5, 0.5))) == pytest.approx(S_MINUS_HALF, rel=1e-14)
    assert s_plus(uniform(4)) == pytest.approx(S_PLUS_UNIFORM4, rel=1e-14)
    assert shannon(uniform(4)) == pytest.approx(math.log(4.0), rel=1e-14)


def near_certain(n):
    """n states: n - 1 tiny ones around 1e-16 and one within ~n*1e-16 of 1."""
    tiny = [1e-16 * (1.0 + k / 1000.0) for k in range(n - 1)]
    return (*tiny, 1.0 - math.fsum(tiny))


@pytest.mark.parametrize(
    "probs",
    [(1.3519528702031037e-16, 0.9999999999999999), near_certain(N), near_certain(N + 1)],
    ids=["2", "N", "N+1"],
)
def test_deformed_entropies_near_certainty_match_mpmath(probs):
    # a state with p near 1: 1 - p**p would cancel to an error of an ulp of 1
    # (1.1% and 3.3% of the sums at 2 states)
    with mpmath.workdps(50):
        terms = [mpmath.mpf(p) ** mpmath.mpf(p) for p in probs]
        plus = float(mpmath.fsum(1 - t for t in terms))
        minus = float(mpmath.fsum(1 / t - 1 for t in terms))
    dist = ProbVector(probs)
    assert s_plus(dist) == close(plus)
    assert s_minus(dist) == close(minus)


NEAR_CERTAIN = {
    "2": (0.999999999, 1e-9),
    "2-delta": (1.3519528702031037e-16, 0.9999999999999999),
    "2-7e-15": (0.999999999999993, 7e-15),
    "N-7e-15": split_last((0.999999999999993, 7e-15), N),
    "N+1-7e-15": split_last((0.999999999999993, 7e-15), N + 1),
    "N-delta": near_certain(N),
    "N+1-delta": near_certain(N + 1),
}
SPREAD = {"N": gibbs_like(N), "500": gibbs_like(500)}


def check_tsallis_renyi_against_mpmath(probs, q):
    # The reference reads the entries as a normalized distribution: the gap
    # sum(p**q - p) leaves out the up to 1e-12 by which they may miss a sum
    # of 1, as tsallis and renyi do.  Where sum(p**q) < 1/2, renyi sums
    # (p/p_max)**q and so evaluates ln sum(p**q) itself.
    with mpmath.workdps(60):
        big_q = mpmath.mpf(q)
        gap = mpmath.fsum(mpmath.mpf(p) * (mpmath.mpf(p) ** (big_q - 1) - 1) for p in probs)
        power_sum = mpmath.fsum(mpmath.mpf(p) ** big_q for p in probs)
        reference_tsallis = float(-gap / (big_q - 1))
        if power_sum < 0.5:
            reference_renyi = float(mpmath.log(power_sum) / (1 - big_q))
        else:
            reference_renyi = float(mpmath.log1p(gap) / (1 - big_q))
    dist = ProbVector(probs)
    assert tsallis(dist, q) == close(reference_tsallis)
    assert renyi(dist, q) == close(reference_renyi)


@pytest.mark.parametrize("q", [1.0 - 1e-7, 1.0 + 1e-7, 0.7, 1.3])
@pytest.mark.parametrize(
    "probs", [*NEAR_CERTAIN.values(), *SPREAD.values()], ids=[*NEAR_CERTAIN, *SPREAD]
)
def test_tsallis_renyi_near_q_one_match_mpmath(probs, q):
    # 1 - sum(p**q) divides its rounding error by q - 1: at q = 1 + 1e-7 on
    # (0.999999999, 1e-9) that put tsallis 2.9% and renyi 1.8% off
    check_tsallis_renyi_against_mpmath(probs, q)


@pytest.mark.parametrize("q", [0.01, 0.3, 1.5, 2.0, 3.7, 10.0, 1000.0])
@pytest.mark.parametrize(
    "probs", [*NEAR_CERTAIN.values(), *SPREAD.values()], ids=[*NEAR_CERTAIN, *SPREAD]
)
def test_tsallis_renyi_away_from_q_one_match_mpmath(probs, q):
    # 1 - sum(p**q) cancels on near-certain inputs at every q: on
    # (0.999999999999993, 7e-15) at q = 1.5 it put tsallis 0.6% off
    check_tsallis_renyi_against_mpmath(probs, q)


def test_delta_distribution_gives_zero():
    for delta in (ProbVector((1.0,)), ProbVector(np.ones(1))):
        for fn in (shannon, s_plus, s_minus):
            value = fn(delta)
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0  # plain zero, not -0.0
        for q in (0.3, 0.9, 2.0):
            for fn in (tsallis, renyi):
                value = fn(delta, q)
                assert value == 0.0
                assert math.copysign(1.0, value) == 1.0


prob_vectors = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
    ).map(lambda w: ProbVector(tuple(x / math.fsum(w) for x in w)))
)


@given(prob_vectors)
@settings(max_examples=200)
def test_entropies_from_deformed_logs(pv):
    # S_+/- equal minus the escort-free average of the matching deformed log
    lhs_plus = -math.fsum(p * log_plus(p) for p in pv.probs)
    lhs_minus = -math.fsum(p * log_minus(p) for p in pv.probs)
    assert lhs_plus == pytest.approx(s_plus(pv), rel=1e-12, abs=1e-12)
    assert lhs_minus == pytest.approx(s_minus(pv), rel=1e-12, abs=1e-12)


@given(prob_vectors)
@settings(max_examples=200)
def test_ordering_s_minus_above_shannon_above_s_plus(pv):
    assert s_minus(pv) >= shannon(pv) - 1e-12
    assert shannon(pv) >= s_plus(pv) - 1e-12


def test_deformed_logs_near_small_argument():
    # both deformed logs approach ln x as x -> 0+ in ratio (within 12% at 1e-3)
    x = 1e-3
    assert abs(log_plus(x) / math.log(x) - 1.0) < 0.12
    assert abs(log_minus(x) / math.log(x) - 1.0) < 0.12
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            log_plus(bad)
        with pytest.raises(ValueError):
            log_minus(bad)


def test_log_identity_at_one():
    assert log_plus(1.0) == 0.0
    assert log_minus(1.0) == 0.0


def test_tsallis_renyi_values():
    two = uniform(2)
    assert tsallis(two, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert renyi(two, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)
    for bad_q in (1.0, 0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            tsallis(two, bad_q)
        with pytest.raises(ValueError):
            renyi(two, bad_q)


@pytest.mark.parametrize("omega", [1, 2, 3, 7, 64, N + 1])
def test_renyi_of_uniform_is_log_omega_at_every_q(omega):
    # p**q underflows to 0 at the large q, which ln(sum(p**q)) cannot take;
    # at q = 1e308, |q - 1| ln p overflows to -inf, on the array route too
    for q in (0.5, 2.0, 1000.0, 2000.0, 1e308):
        assert renyi(uniform(omega), q) == close(math.log(omega))


def test_renyi_at_large_q_tends_to_min_entropy():
    assert renyi(ProbVector((0.25, 0.75)), 1e308) == close(-math.log(0.75))


def renyi_by_deficit(dist, q):
    """renyi with its route picked by the summed _deficit alone."""
    deficit = entropy._deficit(dist, q)
    if q < 1.0 or deficit <= 0.5:
        return math.log1p(math.copysign(deficit, 1.0 - q)) / (1.0 - q) + 0.0
    p_max = max(dist.probs)
    scaled = entropy._sum_terms(dist, lambda p, m: (p / p_max) ** q)
    return q / (1.0 - q) * math.log(p_max) + math.log(scaled) / (1.0 - q) + 0.0


def seeded_distribution(seed):
    """One of 48 seeded inputs on both routes: Dirichlet weights from near
    uniform to near certain, and uniform ones, where sum(p**q) equals the
    p_max bound."""
    n = (2, 3, 4, 8, 16, N, N + 1, 300)[seed % 8]
    if seed % 6 == 5:
        return uniform(n)
    concentration = (0.05, 0.3, 1.0, 5.0, 50.0)[seed % 5]
    weights = np.random.default_rng([7, seed]).dirichlet([concentration] * n)
    weights = np.maximum(weights, 1e-300).tolist()
    total = math.fsum(weights)
    return ProbVector(tuple(w / total for w in weights))


RENYI_Q = (0.5, 1.0 + 1e-7, 1.01, 1.3, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 100.0, 1e308)


@pytest.mark.parametrize("seed", range(48))
def test_renyi_routes_from_p_max_as_the_deficit_does(seed):
    # above q = 1, a p_max**(q - 1) below 1/2 (less _SUM_TOL) skips the
    # deficit sum; the value keeps its bits at every q, and at the q where
    # that bound crosses 1/2 (sum(p**q) itself, for the uniform inputs)
    dist = seeded_distribution(seed)
    p_max = max(dist.probs)
    edge = 1.0 + math.log(0.5) / math.log(p_max) if p_max < 1.0 else 2.0
    for q in (*RENYI_Q, *(edge * (1.0 + k * 1e-6) for k in range(-3, 4))):
        assert renyi(dist, q) == renyi_by_deficit(dist, q), q


def test_renyi_skips_the_deficit_where_p_max_bounds_the_sum():
    calls = []
    deficit = entropy._deficit

    def counted(*args):
        calls.append(args)
        return deficit(*args)

    with mock.patch.object(entropy, "_deficit", counted):
        renyi(uniform(N), 2.0)  # p_max = 1/N
        assert calls == []
        renyi(uniform(2), 2.0)  # sum(p**2) = 1/2 exactly: the deficit decides
        renyi(uniform(N), 0.5)  # below q = 1 the deficit is the entropy
    assert len(calls) == 2


@given(prob_vectors)
@settings(max_examples=100)
def test_tsallis_renyi_shannon_limit(pv):
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        assert tsallis(pv, q) == pytest.approx(shannon(pv), abs=1e-5)
        assert renyi(pv, q) == pytest.approx(shannon(pv), abs=1e-5)


def test_equiprob_expansion_values():
    assert s_plus_equiprob_expansion(4, 1) == pytest.approx(math.log(4.0), rel=1e-14)
    assert s_plus_equiprob_expansion(4, 3) == pytest.approx(
        S_PLUS_PARTIAL3_OMEGA4, rel=1e-14
    )
    s = math.log(4.0)
    assert s_minus_equiprob_expansion(4, 2) == pytest.approx(
        s + 0.5 * s * s * math.exp(-s), rel=1e-14
    )
    with pytest.raises(ValueError):
        s_plus_equiprob_expansion(4, 4)
    with pytest.raises(ValueError):
        s_plus_equiprob_expansion(1, 2)
    assert s_minus_equiprob_expansion(np.int64(4), 2) == s_minus_equiprob_expansion(4, 2)
    # the integer check of ProbVector.uniform, before the omega >= 2 test
    for expansion in (s_plus_equiprob_expansion, s_minus_equiprob_expansion):
        for bad in (math.nan, math.inf, 4.5, 4.0, True, "4", None):
            with pytest.raises(ValueError, match="must be an integer"):
                expansion(bad, 1)
        # nterms gets the same check: 2.0 used to slice (TypeError), True took 1
        assert expansion(4, np.int64(2)) == expansion(4, 2)
        for bad in (2.0, True, "2", None):
            with pytest.raises(ValueError, match="nterms must be an integer"):
                expansion(4, bad)


def test_expansion_error_shrinks_and_alternates():
    for omega in range(3, 65):
        exact = s_plus(uniform(omega))
        errors = [
            s_plus_equiprob_expansion(omega, n) - exact for n in (1, 2, 3)
        ]
        sizes = [abs(e) for e in errors]
        assert sizes[0] > sizes[1] > sizes[2]
        # alternating structure: overshoot, undershoot, overshoot
        assert errors[0] > 0 > errors[1]
        assert errors[2] > 0

        exact_minus = s_minus(uniform(omega))
        minus_sizes = [
            abs(s_minus_equiprob_expansion(omega, n) - exact_minus) for n in (1, 2, 3)
        ]
        assert minus_sizes[0] > minus_sizes[1] > minus_sizes[2]


def test_schur_concavity_two_states():
    # moving (p, 1-p) toward (1/2, 1/2) never decreases either entropy
    steps = [0.01 * k for k in range(1, 51)]
    for fn in (s_plus, s_minus):
        values = [fn(ProbVector((p, 1.0 - p))) for p in steps]
        assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))


@given(st.integers(min_value=2, max_value=200))
@settings(max_examples=50)
def test_uniform_entropies_grow_with_omega(omega):
    assert s_plus(uniform(omega + 1)) > s_plus(uniform(omega))
    assert s_minus(uniform(omega + 1)) > s_minus(uniform(omega))


# --------------------------------------------------------------------------
# the exact-sum kernel against math.fsum over the list, its reference


def fsum_outcome(fsum, values):
    """The float (hex keeps the sign of zero and NaN) or the exception."""
    try:
        return fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def assert_fsum_matches(values):
    reference = fsum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert fsum_outcome(entropy._fsum, values) == reference


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@given(arrays(np.float64, st.integers(0, 3000), elements=finite_doubles))
@example(np.array([]))
@example(np.array([-0.0]))
@example(np.array([-0.0, -0.0, -0.0]))
@example(np.array([-0.0, 0.0]))
@example(np.array([1.0, -1.0]))
@example(np.array([5e-324, -5e-324, -0.0]))
@example(np.array([1.0, 2.0**-53, 2.0**-105]))  # half-even tie across partials
@example(np.array([np.finfo(float).max, np.finfo(float).max, -np.finfo(float).max]))
@example(np.array([np.finfo(float).max, -np.finfo(float).max, np.finfo(float).max]))
@settings(max_examples=300, deadline=None)
def test_fsum_kernel_equals_math_fsum_on_finite_doubles(values):
    assert_fsum_matches(values)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3000),
    st.sampled_from(["bits", "subnormal", "probs", "gibbs", "plogp"]),
)
@settings(max_examples=300, deadline=None)
def test_fsum_kernel_equals_math_fsum_on_seeded_arrays(seed, n, shape):
    rng = np.random.default_rng(seed)
    if shape == "bits":  # every finite double alike, mixed signs, any binade
        raw = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n,
                           dtype=np.int64, endpoint=True)
        values = raw.view(np.float64)
        values = values[np.isfinite(values)]
    elif shape == "subnormal":  # exponent field 0 or 1, mixed signs
        raw = rng.integers(0, 1 << 53, n, dtype=np.int64)
        values = raw.view(np.float64) * rng.choice([-1.0, 1.0], n)
    elif shape == "probs":
        weights = rng.random(n)
        values = weights / weights.sum() if n else weights
    else:
        x = np.sort(rng.uniform(0.0, 700.0 * rng.random(), n))
        values = np.exp(-x) / math.fsum(np.exp(-x).tolist()) if n else x
        if shape == "plogp":
            values = values * np.log(values)
    assert_fsum_matches(values)


@pytest.mark.parametrize(
    "values",
    [
        [math.inf],
        [-math.inf, 1.0],
        [math.nan, 1.0],
        [1.0, math.inf, -math.inf],
        [1e308, math.inf, 1e308],
        [1e308, 1e308, math.inf],
        [1e308, 1e308, -1e308],
        [1e308, -1e308, 1e308],
        [1e300] * 3000,
        [2.0**967] * 500,  # a sum of ~2**976, still summed in numpy
        [2.0**967] * 600 + [-(2.0**967)] * 600,
    ],
)
def test_fsum_kernel_non_finite_and_overflow_like_math_fsum(values):
    assert_fsum_matches(np.array(values))


@given(arrays(np.float64, st.integers(0, 50), elements=st.floats()))
@settings(max_examples=200, deadline=None)
def test_fsum_kernel_any_doubles_like_math_fsum(values):
    assert_fsum_matches(values)


@given(
    arrays(np.float64, st.integers(0, 300), elements=finite_doubles),
    st.integers(1, 9),
)
@settings(max_examples=200, deadline=None)
def test_fsum_kernel_in_chunks(values, chunk):
    # arrays longer than 2**26 go to math.fsum itself
    with mock.patch.object(entropy, "_FSUM_MAX", chunk):
        assert_fsum_matches(values)
        assert_fsum_matches(1.0 / (1.0 + np.abs(values)))


def fsum_fallback(values):
    """``_fsum``'s outcome, and whether it passed the list to ``math.fsum``."""
    with mock.patch.object(math, "fsum", wraps=math.fsum) as spy:
        outcome = fsum_outcome(entropy._fsum, values)
    return outcome, any(isinstance(call.args[0], list) for call in spy.call_args_list)


def assert_fsum_fallback(values, falls_back=True):
    reference = fsum_outcome(lambda v: math.fsum(v.tolist()), values)
    assert fsum_fallback(values) == (reference, falls_back)


@pytest.mark.parametrize("n", [3, 4, 100, 1000, 4000])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fsum_kernel_near_ties_go_to_math_fsum(n, sign):
    # 1 + 2**-53 lies halfway between two doubles, and 2**-105 decides the
    # rounding; the filler cancels exactly, in pairs, whatever the order
    filler = np.random.default_rng(n).random((n - 3) // 2) * 2.0**-20
    values = np.concatenate([[1.0, 2.0**-53, sign * 2.0**-105], filler, -filler])
    if n % 2 == 0:
        values = np.append(values, 0.0)
    np.random.default_rng(n + 1).shuffle(values)
    assert_fsum_fallback(values)


@pytest.mark.parametrize("n", [2, 50, 2000])
def test_fsum_kernel_cancelling_sums_go_to_math_fsum(n):
    weights = np.random.default_rng(n).random(n)
    # a sum far below the bound on the low parts' rounding error, and an
    # exact sum of 0, whose sign math.fsum decides
    for values in (np.concatenate([weights, [1e-300], -weights]),
                   np.concatenate([weights, -weights]),
                   np.concatenate([-weights, weights, [-0.0]])):
        assert_fsum_fallback(values)


@pytest.mark.parametrize("values", [[1.0, -1.0], [5e-324, -5e-324], [-1e-310, 1e-310, -0.0]])
def test_fsum_kernel_exact_zero_goes_to_math_fsum(values):
    assert_fsum_fallback(np.array(values))


def test_fsum_kernel_seldom_goes_to_math_fsum_on_spectra():
    # Gibbs weights and p ln p terms of 500-4000 levels, as a spectrum builds
    fallbacks = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.0, 700.0 * rng.random(), int(rng.integers(500, 4001))))
        weights = np.exp(-x) / math.fsum(np.exp(-x).tolist())
        for values in (weights, weights * np.log(weights)):
            reference = math.fsum(values.tolist()).hex()
            outcome, fell_back = fsum_fallback(values)
            assert outcome == reference
            fallbacks += fell_back
    assert fallbacks <= 3


@pytest.mark.parametrize("n", [1, 2, 3, 500, 4000, 65536])
def test_fsum_kernel_guard_at_the_largest_value(n):
    # sigma = 2**(e + n.bit_length() + 1) for max|v| < 2**e must stay finite:
    # the largest max|v| below the guard is summed in numpy, the next double
    # goes to math.fsum.  The rest, finer by 2**20 and negative, keeps the
    # sum in big's binade and away from a tie between two doubles.
    top = 1023 - n.bit_length() - 1
    rest = -np.random.default_rng(n).random(n - 1) * 2.0**-20
    for big, falls_back in ((np.nextafter(2.0**top, 0.0), False), (2.0**top, True)):
        values = np.concatenate([[big], rest * big])
        assert_fsum_fallback(values, falls_back)
        assert_fsum_fallback(-values, falls_back)


@pytest.mark.parametrize("n", [1, 2, 3, 500, 4000])
def test_fsum_kernel_all_subnormal(n):
    # the bound on the low parts' error underflows to 0, and the sum is exact
    rng = np.random.default_rng(n)
    values = rng.integers(1, 1 << 52, n, dtype=np.int64).view(np.float64)
    values = values * rng.choice([-1.0, 1.0], n)
    assert math.ldexp(n * n, math.frexp(np.abs(values).max())[1] + n.bit_length() - 104) == 0.0
    total = math.fsum(values.tolist())
    assert_fsum_fallback(values, total == 0.0)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 5e-324],
        [-0.0, -5e-324],
        [-0.0, -0.0, -5e-324, 5e-324],
        [0.0, -5e-324, -0.0, 5e-324],
        [-0.0] * 100 + [2.2250738585072e-308],
        [-2.2250738585072014e-308, -0.0, 4.9e-324, 0.0] * 50,
        [-0.0, 1e-320, -1e-320, -0.0, 3e-323],
    ],
)
def test_fsum_kernel_signed_zeros_and_subnormals(values):
    assert_fsum_matches(np.array(values))
