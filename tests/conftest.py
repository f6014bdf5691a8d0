"""Configuration shared by every test file.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write its patch.  That module imports
``libcst``, whose import emits a ``DeprecationWarning`` from
``mypy_extensions.TypedDict``; under ``-W error`` the session then stopped
with ``INTERNALERROR`` and named neither that failure nor any later test.
The module is imported once here, with ``DeprecationWarning`` ignored for
this import alone, so the plugin finds it loaded.  Without ``libcst`` the
import raises ``ImportError`` and the plugin skips its patch, as it does on
its own.  No warning filter is changed for any test.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
