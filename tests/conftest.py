"""Settings shared by every test module.

The property tests use one hypothesis profile: examples are derived from
each test rather than drawn at random, so every run of the suite checks the
same cases, and no example database is kept.  There is no per-example
deadline, since a loaded machine would turn it into a flake.  What
hypothesis still caches on disk (constants it reads from the source) goes
to a temporary directory removed at exit, not to ``.hypothesis/``.
"""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "opalg", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("opalg")

_STORAGE = tempfile.mkdtemp(prefix="opalg-hypothesis-")
atexit.register(shutil.rmtree, _STORAGE, ignore_errors=True)
set_hypothesis_home_dir(_STORAGE)
