"""Property-based tests for fingerprint canonicalisation and cache keys.

The fingerprint is the one thing the result cache cannot get wrong: two
equal values must always map to one key, any perturbation must move the
key, and the mapping must be identical across processes (``hash()`` is
salted per process; fingerprints must not be).  Hypothesis explores the
input space; a subprocess with a different ``PYTHONHASHSEED`` checks the
cross-process contract on real samples.
"""

import enum
import subprocess
import sys
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import SqliteStore, fingerprint, stable_hash
from repro.runner.fingerprint import _canon


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass
class Op:
    freq: float
    mode: Colour
    tag: str = ""


# -- strategies over everything _canon accepts ------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),     # NaN != NaN: equality is meaningless
    st.text(max_size=20),
    st.binary(max_size=20),
    st.sampled_from(Colour),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.frozensets(st.integers(), max_size=4),
        st.builds(Op, freq=st.floats(allow_nan=False),
                  mode=st.sampled_from(Colour), tag=st.text(max_size=8)),
    ),
    max_leaves=12,
)


class TestCanonicalisation:
    @given(values)
    def test_deterministic(self, value):
        assert fingerprint(value) == fingerprint(value)

    @given(values)
    def test_equal_after_round_trip_rebuild(self, value):
        """A structurally rebuilt copy fingerprints identically."""
        def rebuild(obj):
            if isinstance(obj, tuple):
                return tuple(rebuild(x) for x in obj)
            if isinstance(obj, list):
                return [rebuild(x) for x in obj]
            if isinstance(obj, dict):
                # reversed insertion order: canonical form must not care
                return {k: rebuild(v)
                        for k, v in reversed(list(obj.items()))}
            if isinstance(obj, frozenset):
                return frozenset(rebuild(x) for x in obj)
            if isinstance(obj, Op):
                return Op(freq=obj.freq, mode=obj.mode, tag=obj.tag)
            return obj
        assert fingerprint(rebuild(value)) == fingerprint(value)

    @given(st.dictionaries(st.text(max_size=8), st.integers(),
                           min_size=2, max_size=6))
    def test_dict_order_irrelevant(self, d):
        shuffled = dict(sorted(d.items(), reverse=True))
        assert fingerprint(shuffled) == fingerprint(d)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_int_with_same_value_differ(self, x):
        """1.0 and 1 are different cache keys (different arithmetic)."""
        if x == int(x) and abs(x) < 2 ** 53:
            assert fingerprint(x) != fingerprint(int(x))

    @given(st.booleans())
    def test_bool_int_differ(self, b):
        assert fingerprint(b) != fingerprint(int(b))

    @given(values, values)
    def test_distinct_values_distinct_keys(self, a, b):
        """Contrapositive of key stability: different canonical forms
        never collide on the full digest (SHA-256 collisions would)."""
        if _canon(a) != _canon(b):
            assert fingerprint(a) != fingerprint(b)
        else:
            assert fingerprint(a) == fingerprint(b)

    @given(st.lists(st.integers(), min_size=1, max_size=6),
           st.integers(0, 5), st.integers())
    def test_perturbation_moves_the_key(self, xs, pos, delta):
        if delta == 0:
            return
        mutated = list(xs)
        mutated[pos % len(xs)] += delta
        assert fingerprint(mutated) != fingerprint(xs)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_nextafter_perturbation_moves_the_key(self, x):
        import math

        bumped = math.nextafter(x, float("inf"))
        if bumped != x:
            assert fingerprint(bumped) != fingerprint(x)

    @given(st.tuples(st.integers(), st.text(max_size=5)),
           st.tuples(st.integers(), st.text(max_size=5)))
    def test_stable_hash_parts_not_concatenated(self, a, b):
        """("ab","c") and ("a","bc") must not collide: parts are framed,
        not joined."""
        if (str(a[0]) + a[1]) == (str(b[0]) + b[1]) and a != b:
            assert stable_hash(*a) != stable_hash(*b)


#: Samples whose fingerprints must agree between interpreters.  The
#: expression is evaluated both here and in the subprocess, so the two
#: sides canonicalise literally the same values.
_CORPUS = (
    "[None, True, False, 0, 1, -1, 2 ** 64, 0.0, -0.0, 1.5, "
    "float('inf'), '', 'freq', b'\\x00\\xff', Colour.RED, "
    "{'b': 2, 'a': 1}, {'a': 1, 'b': 2}, [1, [2, [3]]], "
    "(1.0, Colour.BLUE), frozenset({3, 1, 2}), {True: 't', 1.5: 'f'}, "
    "Op(freq=1e6, mode=Colour.RED, tag='x')]"
)


class TestCrossProcessStability:
    def test_corpus_matches_under_different_hash_seeds(self):
        """Fingerprints computed in a fresh interpreter with a different
        ``PYTHONHASHSEED`` (differently salted ``hash()``, different
        dict/set iteration characteristics) must match ours."""
        import os

        ours = [fingerprint(v) for v in eval(_CORPUS)]
        src = os.path.dirname(repro_path())
        tests = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        code = (
            "import sys\n"
            "sys.path.insert(0, {src!r})\n"
            "sys.path.insert(0, {tests!r})\n"
            "from repro.runner import fingerprint\n"
            "from runner.test_fingerprint_properties import Colour, Op, "
            "_CORPUS\n"
            "print('\\n'.join(fingerprint(v) for v in eval(_CORPUS)))\n"
        ).format(src=src, tests=tests)
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("PYTHONPATH", None)
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, env=env, check=True)
            assert out.stdout.split() == ours


def repro_path():
    import repro

    return repro.__path__[0]


class TestCacheKeyProperties:
    @given(st.text(min_size=1, max_size=10),
           st.lists(st.floats(allow_nan=False), max_size=4))
    def test_key_for_is_a_function_of_content(self, tmp_path_factory, ns, point):
        tmp = tmp_path_factory.mktemp("cache")
        a = SqliteStore(tmp / "a" / "store.sqlite")
        b = SqliteStore(tmp / "b" / "store.sqlite")
        assert a.key_for(ns, point) == b.key_for(ns, point)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4),
           st.floats(allow_nan=False))
    def test_key_perturbation(self, tmp_path_factory, point, delta):
        cache = SqliteStore(tmp_path_factory.mktemp("cache") / "s.sqlite")
        mutated = list(point)
        mutated[0] = mutated[0] + delta
        if mutated != point:
            assert cache.key_for("ns", mutated) \
                != cache.key_for("ns", point)

    @given(values)
    @settings(max_examples=25)
    def test_put_lookup_round_trip(self, tmp_path_factory, value):
        cache = SqliteStore(tmp_path_factory.mktemp("cache") / "s.sqlite")
        key = cache.key_for("prop", value)
        found, _ = cache.lookup(key)
        assert not found
        cache.writeback(key, {"value": repr(value)})
        found, stored = cache.lookup(key)
        assert found
        assert stored == {"value": repr(value)}
        # a second store over the same file sees the entry
        reread = SqliteStore(cache.path)
        found, stored = reread.lookup(reread.key_for("prop", value))
        assert found
