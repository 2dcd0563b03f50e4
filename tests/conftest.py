"""Shared pytest plumbing for the test suite."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Verdict lines queued by the end-to-end gate in test_acceptance.py; printed
# as a summary section so they survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def pytest_configure(config):
    # Even with database=None, hypothesis caches the constants it finds in
    # local modules under its home directory while collecting; keep that cache
    # out of the working tree.
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    config.hypothesis_home.cleanup()
