"""The checkers of :mod:`repro.analysis`, one module per rule family.

Each checker is a function ``Project -> List[Finding]`` that reads the
parsed modules of :class:`~repro.analysis.project.Project` and reports
every violation of its rules.  The registry the runner iterates is
:data:`repro.analysis.runner.CHECKERS`; a new checker registers there.
"""
