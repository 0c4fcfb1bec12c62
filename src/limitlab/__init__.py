"""limitlab: limit sets, basins of attraction, and linear-representation
diagnostics for discrete-time dynamical systems."""

from .catalog import (ExactImmersion, default_seeds, exact_immersion,
                      exact_immersions, get_system, list_systems)
from .dynamics import (BatchOrbit, DiscreteMap, DomainRegion, Trajectory,
                       iterate, iterate_batch, write_trajectory_csv)
from .errors import (CatalogGuardError, DomainError, IllConditionedError,
                     InvalidParamError, LimitLabError, MissingArtifactError,
                     NoExactImmersionError, NoInverseError, NotStableError,
                     SingularGramError, UnconvergedError, UnknownSystemError)
from .geometry import (diameter, directed_hausdorff, hausdorff, sampling_gap,
                       split_discrepancy)
from .immersion import (CollapseReport, ConjugacyReport, ConsistencyReport,
                        ImmersionMap, InjectivityReport, PushforwardReport,
                        collapse_report, conjugacy_residual, injectivity_probe,
                        omega_alpha_consistency, pushforward_check)
from .lifting import (Dictionary, FitReport, LearnedLift, TradeoffReport,
                      TradeoffRow, build_dictionary, fit_lift,
                      obstruction_sweep, training_pairs)
from .limits import (BasinMap, CatalogMember, ClosednessWitness, LimitSetCatalog,
                     LimitSetEstimate, Settings, basin_closedness_witness,
                     catalog_from_seeds, catalog_to_dict, cluster_limit_sets,
                     compute_basins, estimate_alpha, estimate_omega,
                     estimate_omega_batch, write_basin_csv)
from .linear import (GrowthClass, LinearSystem, SpectralSplit, classify_growth,
                     jordan_block_power, omega_nonempty_linear, spectral_split,
                     spectral_split_to_dict, stability_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
