"""Revenue mechanisms for risk-averse sellers: simulation and verification.

Distributions are manipulated through their revenue curves in quantile space,
mechanisms are evaluated exactly where closed forms exist, and every
advertised approximation guarantee has a numerical check that reports its
observed margin.
"""
from .distributions import (Distribution, NotDifferentiableError,
                            RevenueCurveDistribution, SpecParseError, exponential,
                            irregular_example, left_triangle, make_distribution,
                            revenue_curve, uniform)
from .evaluation import (EvalResult, check_virtual_utility_identity, eval_mc,
                         eval_posted_exact, eval_second_price_exact, eval_vcg_exact,
                         evaluate, myerson_revenue, virtual_utility_identity_stats)
from .lemmas import (MHR_BOUND, FrontierResult, check_allocation_bound,
                     check_capped_binomial, check_capped_binomial_grid,
                     check_half_bound, check_half_bound_sweep,
                     check_hedge_limited, check_hedge_unlimited, check_mhr_bound,
                     check_tail, check_vcg_chain, check_vcg_discount,
                     frontier_search, gen_regular, posted_price_maximin,
                     run_selections)
from .mechanisms import (PostedPriceMechanism, VcgMechanism, allocation_probability,
                         batch_outcomes, batch_revenue, hedge_limited_price,
                         hedge_unlimited_price, parse_mechanism)
from .report import CSV_COLUMNS, LemmaReport, report_from_margin
from .utilities import (UtilityFunction, capped, check_virtual_utility_monotone,
                        default_family, linear, maximize_single_bidder,
                        optimal_reserve, parse_utilities, parse_utility, power,
                        virtual_utility_at_quantile)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Distribution", "NotDifferentiableError",
    "RevenueCurveDistribution", "SpecParseError", "exponential",
    "irregular_example", "left_triangle", "make_distribution", "revenue_curve",
    "uniform",
    "UtilityFunction", "capped", "default_family", "linear",
    "maximize_single_bidder", "optimal_reserve", "parse_utilities", "parse_utility",
    "power", "virtual_utility_at_quantile",
    "check_virtual_utility_monotone",
    "PostedPriceMechanism", "VcgMechanism", "allocation_probability",
    "batch_outcomes", "batch_revenue", "hedge_limited_price", "hedge_unlimited_price",
    "parse_mechanism",
    "EvalResult", "eval_mc", "eval_posted_exact",
    "eval_second_price_exact", "eval_vcg_exact", "evaluate", "myerson_revenue", "virtual_utility_identity_stats",
    "check_virtual_utility_identity",
    "MHR_BOUND", "FrontierResult", "check_allocation_bound",
    "check_capped_binomial", "check_capped_binomial_grid", "check_half_bound",
    "check_half_bound_sweep", "check_hedge_limited", "check_hedge_unlimited",
    "check_mhr_bound", "check_tail", "check_vcg_chain", "check_vcg_discount",
    "frontier_search", "gen_regular", "posted_price_maximin", "run_selections",
    "CSV_COLUMNS", "LemmaReport", "report_from_margin",
]
