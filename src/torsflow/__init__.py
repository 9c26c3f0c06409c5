"""Reidemeister torsion and twisted cohomology of Bott-integral isoenergy 3-manifolds.

The package is organized bottom up:

* linalg: rank / null space / determinant decisions for dense complex matrices
* complexes: torsion of finite based cochain complexes and its additivity
* spectral: filtration spectral sequences with per-page torsions
* representation: unitary holonomy representations
* bott: the critical-block model of an isoenergy surface and its pipeline
* cw: twisted cochain complexes of CW complexes, the independent oracle
* cli / documents: the batch front end and its document format

Each module lists its public names in its own __all__; the package
exports all of them.
"""

from . import bott, complexes, cw, errors, linalg, representation, spectral
from .bott import *  # noqa: F401,F403
from .complexes import *  # noqa: F401,F403
from .cw import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .representation import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, linalg, complexes, spectral, representation, bott, cw)
    for name in module.__all__
]
