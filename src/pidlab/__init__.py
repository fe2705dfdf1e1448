"""pidlab: valid-region inference for PID gains on a second-order plant."""

__version__ = "0.1.0"

from .evalkit import (ClassifiedGrid, Metrics, compute_metrics, ground_truth,
                      region_from_boundary)
from .mtl import (And, Atom, Eventually, Globally, Implies, Not, Or, Prev,
                  circle_lap_spec, eval_offline, eval_online, mode_spec,
                  parse_formula)
from .plant import (Mission, NoiseSpec, PidConfig, PlantModel, Trajectory,
                    brake_mission, circle_mission, hold_mission, reference_at,
                    return_home_mission, simulate)
from .search import (BoundaryLine, ParamSpace, boundary_from_csv,
                     boundary_to_csv, genetic_search, hill_climb,
                     identify_boundary, random_fuzz)
from .stability import (characteristic_roots, roots_stable, routh_stable,
                        theoretical_boundary)
from .validator import (LookupValidator, OracleComparison, OracleConfig,
                        RouthValidator, SimulationValidator, Validator, Verdict,
                        compare_oracles, query_count)
