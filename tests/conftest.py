"""Test-session settings shared by every test module.

Hypothesis properties run derandomized: each property draws the same
examples on every run, seeded from the test itself, and no example database
is read or written, so a tier-1 run reaches the same lines each time. Each
property keeps its own max_examples.
"""

try:
    import hypothesis
except ImportError:  # the properties skip themselves without hypothesis
    hypothesis = None

if hypothesis is not None:
    hypothesis.settings.register_profile("ousym", derandomize=True,
                                         database=None)
    hypothesis.settings.load_profile("ousym")
