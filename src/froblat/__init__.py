"""Exact arithmetic for Frobenius crystals on formal curves, quadratic
lattice densities, Eisenstein coefficients, and intersection budgets."""

from .padics import PAdicParams, PAdicScalar
from .series import (DecayProfile, MatSeries, TruncSeries,
                     column_valuation_profile, truncated_product)
from .crystals import (CASES, HILBERT_INERT_SG, HILBERT_INERT_SSP,
                       HILBERT_SPLIT, SIEGEL_SG, SIEGEL_SSP, CrystalModel,
                       FormalCurve, build_model, check_DR, check_DvR,
                       f_infinity, find_decaying_submodule, local_gram)
from .quadforms import (IntLattice, LocalLattice, hanke_density, kronecker,
                        local_density, sigma_s)
from .eisenstein import (EisResult, dirichlet_L2, q_L_hilbert, q_L_siegel,
                         q_positive_definite, ratio_bound)
from .enumeration import (build_T_set, cusp_deviation, prime_rep_count,
                          representation_counts, short_vectors,
                          square_rep_count)
from .budget import (BudgetInput, BudgetReport, alpha_const, alpha_variants,
                     derive_chain, eisenstein_budget, global_g, run_budget)

__version__ = "0.1.0"
