import pytest

from decompgen.corpus import REGISTRY, STRETCH
from decompgen.primes import generic_point, parse_prime, prime_spec


@pytest.fixture(scope="session")
def corpus():
    """Built-once corpus algebras keyed by registry name."""
    return {key: entry.algebra() for key, entry in REGISTRY.items()}


@pytest.fixture(scope="session")
def b3():
    return STRETCH["B3_Q"].algebra()


@pytest.fixture(scope="session")
def registry_points():
    """registry_points(key, A): the registry's points of the algebra A."""
    return _registry_points


def _registry_points(key, A):
    """The generic point and every prime the registry names for A."""
    facts = REGISTRY[key].facts
    yield generic_point(A.ring)
    for text in facts.get("excluded", []):
        yield prime_spec(A.ring, [A.ring.parse(text)])
    for kind in ("decmat", "trivial"):
        for text in facts.get(kind, {}):
            yield parse_prime(text, A.ring)
