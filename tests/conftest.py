import pytest

from psl2units.finite_fields import PrimePower, build_setup
from psl2units.orbits import build_orbits
from psl2units.projective import make_generators


def _context(l, r, p):
    setup = build_setup(PrimePower.make(l, r))
    gens = make_generators(setup, p)
    tab = build_orbits(gens)
    return gens, tab


_CONTEXTS = {}


def cached_context(l, r, p):
    """``_context`` built once per session, for hypothesis tests, which
    take no function-scoped fixtures."""
    if (l, r, p) not in _CONTEXTS:
        _CONTEXTS[l, r, p] = _context(l, r, p)
    return _CONTEXTS[l, r, p]


@pytest.fixture(scope="session")
def ctx13():
    return _context(13, 1, 7)


@pytest.fixture(scope="session")
def ctx16():
    return _context(2, 4, 17)


@pytest.fixture(scope="session")
def ctx25():
    return _context(5, 2, 13)


@pytest.fixture(scope="session")
def ctx27():
    return _context(3, 3, 7)


@pytest.fixture(scope="session")
def ctx37():
    return _context(37, 1, 19)


def random_outside_dihedralizer(gens, rng):
    h = gens.group.random_element(rng)
    while gens.group.in_dihedralizer(h, gens.g):
        h = gens.group.random_element(rng)
    return h
