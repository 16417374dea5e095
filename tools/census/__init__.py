"""The dynamic census: every function of ``src/repro`` is entered by a
shipped command, or an allowlist entry says why not.

Run it from the repository root as ``PYTHONPATH=tools python -m census``.
"""
