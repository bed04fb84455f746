"""Checks that CI runs outside tier-1.

Each module is a whole-tool run or a larger input than tier-1's budget
allows, and calls the tier-1 test's helpers where one exists.  CI runs
each module by path in the job it guards; all of them at once:
``PYTHONPATH=src python -m pytest checks -q``.
"""
