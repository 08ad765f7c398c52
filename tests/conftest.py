import contextlib
import sys
import warnings
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports libcst, where it is installed, to explain a failing test, and that import
# warns DeprecationWarning; under `-W error` the warning would end the session in an INTERNALERROR
# instead of the falsifying example.  Imported once here with the warning ignored, it is not raised.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import libcst  # noqa: F401

from qdigest_auth import commitment
from qdigest_auth.digest import QDigest

@pytest.fixture
def cold_zero_folds():
    """An empty zero-fold memo for the test, as in a fresh process; the memo before it comes back after."""
    saved = dict(commitment._ZERO_FOLDS)
    commitment._ZERO_FOLDS.clear()
    yield
    commitment._ZERO_FOLDS.clear()
    commitment._ZERO_FOLDS.update(saved)


# The worked flows in the tests reuse the small reference digests below.

S1 = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 7, 8: 9}
S2 = {1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1}


@pytest.fixture
def s1():
    return dict(S1)


@pytest.fixture
def s2():
    return dict(S2)


@pytest.fixture
def example2_digest():
    """The worked authenticated-query example: n=15, k=5, sigma=8."""
    return QDigest(8, 5, {1: 1, 6: 2, 7: 2, 10: 4, 11: 6})


@pytest.fixture
def example2_freqs():
    """A frequency set whose k=5 build is exactly the worked example digest."""
    return {1: 1, 3: 4, 4: 6, 5: 1, 6: 1, 7: 1, 8: 1}
