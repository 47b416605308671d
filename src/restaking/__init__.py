"""Elastic restaking network analysis.

Models networks of validators that pledge (possibly overlapping) stake to
services, evaluates attacks and slashing cascades, decides cryptoeconomic
security and robustness via exact symmetric-case algorithms, exhaustive
oracles, and mixed-integer programs, and analyzes the reward scheme that
steers validators toward a target restaking degree.

Each layer lives in its own module (``model``, ``files``, ``lp``, ``mip``,
``bruteforce``, ``symmetry``, ``incentives``, ``experiments``, ``cli``);
the package namespace re-exports the names of the README's example.
"""

from .mip import min_budget, mip_check
from .model import Network
from .symmetry import as_symmetric, max_budget

__version__ = "0.1.0"
