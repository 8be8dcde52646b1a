"""Tests for seeded randomness plumbing."""

import numpy as np

from repro.util.rng import RandomSource, as_source


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42, "x").integers(0, 1000, size=10)
        b = RandomSource(42, "x").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = RandomSource(42, "x").integers(0, 10 ** 9)
        b = RandomSource(42, "y").integers(0, 10 ** 9)
        assert a != b

    def test_children_are_independent_but_deterministic(self):
        root = RandomSource(7)
        c1 = root.child("a").integers(0, 10 ** 9, size=5)
        c2 = RandomSource(7).child("a").integers(0, 10 ** 9, size=5)
        assert np.array_equal(c1, c2)

    def test_child_label_nests(self):
        child = RandomSource(7, "root").child("x").child("y")
        assert child.label == "root/x/y"

    def test_signs_are_plus_minus_one(self):
        signs = RandomSource(3).signs(1000)
        assert set(np.unique(signs)) <= {-1, 1}
        # roughly balanced
        assert abs(signs.sum()) < 200

    def test_default_seed_is_stable(self):
        assert RandomSource(None).seed == RandomSource(None).seed

    def test_source_that_never_draws_builds_no_generator(self):
        root = RandomSource(7, "root")
        child = root.child("a").child("b")
        assert root._gen is None and child._gen is None

    def test_draws_follow_the_lineage_whenever_the_first_comes(self):
        def reference(source):
            return np.random.default_rng(RandomSource._mix(source.seed, source.label))

        at_once = RandomSource(11, "x")
        assert np.array_equal(
            at_once.integers(0, 10 ** 9, size=8),
            reference(at_once).integers(0, 10 ** 9, size=8),
        )
        late = RandomSource(11, "x")
        grandchild = late.child("a").child("b")
        assert np.array_equal(
            late.random(size=4), reference(late).random(size=4)
        )
        assert np.array_equal(
            grandchild.signs(16),
            reference(grandchild).integers(0, 2, size=16) * 2 - 1,
        )


class TestAsSource:
    def test_accepts_int(self):
        src = as_source(5, "lbl")
        assert isinstance(src, RandomSource)

    def test_accepts_source_and_forks(self):
        root = RandomSource(5)
        child = as_source(root, "lbl")
        assert child.label.endswith("lbl")
        # forking must not disturb the parent's stream
        before = root.integers(0, 10 ** 9)
        root2 = RandomSource(5)
        as_source(root2, "lbl")
        after = root2.integers(0, 10 ** 9)
        assert before == after

    def test_none_gives_default(self):
        assert isinstance(as_source(None, "lbl"), RandomSource)
