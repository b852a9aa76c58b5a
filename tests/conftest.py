"""Session setup shared by the test modules."""

import tempfile

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the modules that use Hypothesis need it
    pass
else:
    # With no database Hypothesis still caches the constants it reads from
    # source files, while pytest collects; keep that cache out of the tree.
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
