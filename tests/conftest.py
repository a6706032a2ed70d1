import pytest

from l2mbqc import qsp


@pytest.fixture(scope="session")
def modp_angles():
    """Own-synthesized angle sets, shared across tests."""
    return {p: qsp.synthesize_mod_p(p, 0) for p in (3, 5, 7, 9)}


@pytest.fixture(scope="session")
def symmetric_angles():
    """Synthesized angles for the symmetric profiles the suite exercises."""
    profiles = {
        (0, 0, 1): 2,   # pairwise-AND, n=2
        (0, 1, 0): 2,   # complement of mod3 residue-1, n=2
        (0, 1, 1, 0): 3,
        (0, 1, 0, 0): 3,  # complement of mod3 residue-1, n=3
    }
    return {prof: qsp.synthesize_symmetric(list(prof), n)
            for prof, n in profiles.items()}
