import pytest

from spikelab import greens, linsolve


@pytest.fixture
def green_work(monkeypatch):
    """Counts of the Laplacian LUs ``greens`` makes ("lu") and of the
    triangular-solve calls on them ("solve").  The held factor is freed
    first, so the first Green solve factorizes under the count."""
    counts = {"lu": 0, "solve": 0}

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b):
            counts["solve"] += 1
            return self._lu.solve(b)

    def factorize(A):
        counts["lu"] += 1
        return Counted(linsolve.factorize(A))

    greens.release_factorization()
    monkeypatch.setattr(greens, "factorize", factorize)
    yield counts
    greens.release_factorization()
