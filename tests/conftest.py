"""Suite-wide set-up: a failing property test is reported like any other failure.

When a @given test fails, hypothesis' pytest plugin imports
hypothesis.extra._patching, whose imports (libcst, typing_inspect,
mypy_extensions) raise a DeprecationWarning.  Under filterwarnings = error that
warning is raised inside pytest's report hook, which stops the whole run with
INTERNALERROR.  Importing the module once here, with only DeprecationWarning
ignored, leaves it in the module cache, so the warning never fires during a
test; every other warning stays an error.  Hypothesis versions without the
module, or without libcst, skip the import.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
