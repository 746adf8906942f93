"""High-level XML decision problems (Section 8).

Every problem is reduced to (un)satisfiability of an Lµ formula built from the
XPath translation (Section 5.1) and the regular tree type translation
(Section 5.2), and dispatched to the symbolic solver of Section 7.  The
reduction lives in :mod:`repro.analysis.problems`; problems are asked through
:class:`repro.api.StaticAnalyzer` and :class:`repro.api.Query`.
"""
