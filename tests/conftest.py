"""Session-wide test setup.

When a hypothesis draw fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write an `@example` patch. That imports
`libcst`, whose `mypy_extensions.TypedDict` use warns `DeprecationWarning`, and
under `python -m pytest -W error` the warning is raised in the report hook: the
run ends in an INTERNALERROR and the falsifying example is never printed. A
`filterwarnings` entry in the pytest settings cannot help, since pytest puts
`-W` options ahead of it. Importing the module once here, with that warning
ignored, leaves it cached for the plugin.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):  # libcst is optional
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
