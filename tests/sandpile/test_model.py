"""Tests for initial sandpile configurations."""

import pytest

from repro.common.errors import ConfigurationError
from repro.sandpile.model import center_pile, max_stable, random_uniform, sparse_random, uniform


class TestCenterPile:
    def test_all_grains_in_center(self):
        g = center_pile(9, 9, 1000)
        assert g.total_grains() == 1000
        assert g.interior[4, 4] == 1000
        assert (g.interior != 0).sum() == 1

    def test_even_dims_center(self):
        g = center_pile(8, 8, 10)
        assert g.interior[4, 4] == 10

    def test_paper_default(self):
        g = center_pile(128, 128)
        assert g.total_grains() == 25_000

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            center_pile(4, 4, -1)


class TestUniform:
    def test_fig1b_default(self):
        g = uniform(128, 128)
        assert (g.interior == 4).all()
        assert not g.is_stable()

    def test_total(self):
        assert uniform(10, 10, 3).total_grains() == 300

    def test_max_stable_is_stable(self):
        g = max_stable(6, 6)
        assert g.is_stable()
        assert (g.interior == 3).all()


class TestSparseRandom:
    def test_pile_count_and_total(self):
        g = sparse_random(64, 64, n_piles=10, pile_grains=100, seed=1)
        assert g.total_grains() == 1000
        assert (g.interior > 0).sum() <= 10  # coincident piles may stack

    def test_coincident_piles_stack(self):
        # with a 1x1 grid every pile lands on the same cell
        g = sparse_random(1, 1, n_piles=5, pile_grains=10, seed=0)
        assert g.interior[0, 0] == 50

    def test_deterministic(self):
        a = sparse_random(32, 32, seed=3)
        b = sparse_random(32, 32, seed=3)
        assert a == b

    def test_seed_matters(self):
        a = sparse_random(32, 32, seed=3)
        b = sparse_random(32, 32, seed=4)
        assert a != b

    def test_zero_piles(self):
        assert sparse_random(8, 8, n_piles=0).total_grains() == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            sparse_random(8, 8, n_piles=-1)


class TestRandomUniform:
    def test_range(self):
        g = random_uniform(16, 16, max_grains=5, seed=0)
        assert g.interior.min() >= 0
        assert g.interior.max() <= 5

    def test_deterministic(self):
        assert random_uniform(8, 8, seed=2) == random_uniform(8, 8, seed=2)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            random_uniform(4, 4, max_grains=-1)
