"""Central table of numeric defaults.

Every tolerance or guard used by the library is named here once. The ones
``--set name=value`` can override are the fields of ``limits.Settings``, each
named as its constant here in lower case and defaulting to it; every reader
takes that one record and reads a field by its ``--set`` name.
``cli._settings`` is the one place a ``--set`` value becomes library input:
the ``Settings`` it builds checks each value, before any work starts.
:data:`VERIFY_TOL` is ``verify --tol``'s default and the demo's;
:data:`MAX_THREADS` bounds ``--threads``.
"""

from __future__ import annotations

# Divergence guard: iteration stops once any coordinate magnitude exceeds this.
R_DIV = 1e12
# Radius around an excluded point that still counts as excluded.
EPS_EXCL = 1e-9

# Limit-set estimation.
BURN = 500                # transient steps discarded before windows are collected
TAIL = 500                # window length (points per tail window)
MAX_ROUNDS = 8            # extra windows tried before giving up on settling
TOL_SETTLE = 1e-7         # absolute floor for the window-to-window Hausdorff test
GAP_FACTOR = 2.0          # settle tolerance also allows gap_factor * window resolution
TOL_FP = 1e-6             # diameter below which a cloud is called a fixed point
TOL_CLUSTER = 1e-3        # Hausdorff scale separating distinct limit sets
MAX_PERIOD = 64           # largest lag probed for periodic-orbit shape detection

# Basin mapping.
ESCAPE_RADIUS = 1e8       # a grid orbit with a coordinate magnitude past this has escaped
BASIN_BURN = 500
BASIN_WINDOW = 32         # trailing points that must all sit on the matched member
WITNESS_DEPTH = 8         # shrinking-sequence length toward a boundary cell
WITNESS_MAX_PAIRS = 64    # boundary pairs examined per witness search
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

