"""Settings shared by every test module."""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # Property tests draw the same examples on every run, keep no example
    # database and have no per-example deadline, so a slow moment on a
    # loaded machine cannot fail them.
    settings.register_profile("reviewpulse", deadline=None, derandomize=True, database=None)
    settings.load_profile("reviewpulse")
