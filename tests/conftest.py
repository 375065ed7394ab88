import warnings

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# which imports libcst and through it mypy_extensions, whose TypedDict warns
# DeprecationWarning on import. Under filterwarnings = ["error"] that warning
# becomes an INTERNALERROR that loses the falsifying example and ends the
# session. Importing the writer here, with only that warning ignored, leaves
# the plugin's later import a cache hit; every other warning still fails.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional: the plugin then writes no patch
        pass
