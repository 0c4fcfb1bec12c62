"""Central table of numeric defaults, and the one check of a named number.

Every tolerance or guard used by the library is named here once. The ones
``--set name=value`` can override are the fields of :class:`Settings`: each
field holds its default, a comment saying what it bounds, and the rule its
value must keep; every reader takes that one record and reads a field by its
``--set`` name. ``cli._settings`` is the one place a ``--set`` value becomes
library input: the ``Settings`` it builds checks each value, before any work
starts. :data:`VERIFY_TOL` is ``verify --tol``'s default and the demo's;
:data:`MAX_THREADS` bounds ``--threads``.

A named number is checked by :func:`_exact` (is it of its type?) and
:func:`_bound` (is it within its rule?): the settings, the CLI's count and
tolerance options and the orbit engine's and basin mapper's own arguments.
Each rule has one wording: ``must be >= n``, ``must be > n``, ``must be <=
n``, ``must be finite``, and ``finite and`` a lower bound joined to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

# Radius around an excluded point that still counts as excluded.
EPS_EXCL = 1e-9

# Basin mapping.
MAX_THREADS = 64          # most threads a basin grid is settled on (one per chunk)

# Linear analysis.
TOL_EIG = 1e-8            # |.|-1 band half-width for the unit class
TOL_RANK = 1e-8           # relative rank/residual tolerance (scaled by ||A||)

# Immersion diagnostics.
DELTA_SEP = 1e-3          # pairs farther apart than this are injectivity-relevant
DELTA_IMG = 1e-6          # ... and collide when their images are closer than this
VERIFY_TOL = 1e-8         # largest conjugacy residual a verify report calls ok

# Dictionary lifting.
GRID_SAMPLES = 512
RANDOM_SAMPLES = 512
SVD_COND_SWITCH = 1e8     # above this Gram condition, solve by SVD least squares
SINGULAR_COND = 1e14      # above this with ridge=0, refuse
MAX_DICT_ORDER = 32       # monomial degree / Fourier frequency cap
CATALOG_GUARD = 64        # sweep refuses catalogs larger than this

DEFAULT_SEED = 42


def _exact(kind: type, name: str, value):
    """``value`` as ``kind`` (``int`` or ``float``), or a ``ValueError`` naming
    ``name`` where ``kind`` does not hold it exactly (``2.5`` as an integer,
    ``nan`` as one)."""
    try:
        exact = kind(value) == value
    except (TypeError, ValueError, OverflowError):     # int(nan), int(inf)
        exact = False
    if not exact:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


def _bound(name: str, value, low=None, high=None, *, above: bool = False,
           finite: bool = False):
    """``value``, or a ``ValueError`` naming ``name`` where it breaks its rule:
    ``finite``, at least ``low`` (above it, when ``above``), then at most
    ``high``. A NaN breaks every rule it is held to."""
    if not ((not finite or math.isfinite(value))
            and (low is None or (value > low if above else value >= low))):
        rule = ["finite"] if finite else []
        if low is not None:
            rule.append(f"{'>' if above else '>='} {low}")
        raise ValueError(f"{name} must be {' and '.join(rule)}, got {value}")
    if high is not None and not value <= high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _setting(default, low, *, above: bool = False, finite: bool = False):
    """A :class:`Settings` field: its default, and the rule of :func:`_bound`
    its value keeps."""
    return field(default=default, metadata={"bound": dict(low=low, above=above,
                                                          finite=finite)})


@dataclass(frozen=True)
class Settings:
    """Every ``--set NAME=VALUE`` setting, one field each, with its default.
    Each reader takes the record as ``cfg`` and reads the fields it needs by
    these names:

    * the clustering: ``tol_cluster`` and ``gap_factor``;
    * the witness search: ``witness_depth`` and ``witness_max_pairs``, and the
      basin settling fields, which settle its sequence points (it reads none
      of the estimator's);
    * the limit-set estimator: ``burn``, ``tail``, ``max_rounds``,
      ``max_period``, ``tol_settle``, ``gap_factor``, ``tol_fp``, ``r_div``
      (``r_div`` guards ``simulate`` too);
    * the basin settling: ``basin_burn``, ``basin_window``, ``escape_radius``.

    Each value is stored as its field's type. One the type does not hold
    exactly (``burn=2.5``, ``tol_fp=nan``), then one outside its field's rule,
    each checked in field order, is a ``ValueError``."""

    # Hausdorff scale separating distinct limit sets
    tol_cluster: float = _setting(1e-3, 0, above=True, finite=True)
    # shrinking-sequence length toward a boundary cell
    witness_depth: int = _setting(8, 1)
    # boundary pairs examined per witness search
    witness_max_pairs: int = _setting(64, 0)
    # transient steps discarded before windows are collected
    burn: int = _setting(500, 0)
    # window length (points per tail window)
    tail: int = _setting(500, 1)
    # extra windows tried before giving up on settling
    max_rounds: int = _setting(8, 0)
    # largest lag probed for periodic-orbit shape detection
    max_period: int = _setting(64, 0)
    # absolute floor for the window-to-window Hausdorff test
    tol_settle: float = _setting(1e-7, 0, finite=True)
    # settle tolerance also allows gap_factor * window resolution
    gap_factor: float = _setting(2.0, 0, finite=True)
    # diameter below which a cloud is called a fixed point
    tol_fp: float = _setting(1e-6, 0, finite=True)
    # divergence guard: iteration stops once any coordinate magnitude exceeds this
    r_div: float = _setting(1e12, 0, above=True, finite=True)
    # transient steps a grid orbit drops before its window
    basin_burn: int = _setting(500, 0)
    # trailing points that must all sit on the matched member
    basin_window: int = _setting(32, 1)
    # a grid orbit with a coordinate magnitude past this has escaped
    escape_radius: float = _setting(1e8, 0, above=True, finite=True)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _exact(type(f.default), f.name, getattr(self, f.name)))
        for f in fields(self):
            _bound(f.name, getattr(self, f.name), **f.metadata["bound"])
