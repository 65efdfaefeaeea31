"""Session set-up shared by every test module.

Hypothesis's failure report imports `libcst` where it is installed, and with
an old `mypy_extensions` that import warns.  Under `-W error` the warning is
raised inside the report hook, so a failing property test would show as an
INTERNALERROR instead of its falsifying example.  Importing `libcst` once
here, with only that warning ignored, leaves the report hook nothing to warn
about; every other warning still fails the run.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
