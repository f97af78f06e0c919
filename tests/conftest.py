"""Shared test settings: one reproducible hypothesis profile.

No deadline, because a shared machine can change speed by 2x and trip
the 200 ms default; derandomized, with no example database, so every
run draws the same examples. Each property test also pins its draws
with ``@seed``, so that an edit to its body does not change which
examples it draws, as the derandomized default (a hash of the test's
source) would. Hypothesis still caches the constants it reads from
source files, at collection time; that cache goes to the system
temporary directory, so a test run writes no ``.hypothesis/``
directory into the checkout.
"""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ihkl", deadline=None, derandomize=True, database=None)
settings.load_profile("ihkl")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "ihkl-hypothesis"))
