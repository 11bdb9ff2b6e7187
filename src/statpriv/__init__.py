"""Exact privacy accounting for finite product distributions under subsampling.

Each name is imported from its module, e.g. `from statpriv.dist import Pmf`;
importing the package loads no submodule.
"""

__version__ = "0.1.0"
