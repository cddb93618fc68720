"""Targeted data subset selection via submodular mutual information."""

__version__ = "0.1.0"
