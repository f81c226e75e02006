"""Boosted density estimation with representation-rate guarantees.

Fit a discrete density as an anchor with equalized group shares times a
product of bounded classifier tilts.  Leverage coefficients chosen per
round keep the group marginal provably close to uniform while each round
shrinks the KL divergence to the data, and every advertised bound ships
with a verifier.  The names below are the library surface README documents;
everything else is imported from its own module.
"""

from .schema import Attribute, AttributeSchema, Dataset
from .tabular import TabularDensity, fit_empirical, kl_divergence, representation_rate, statistical_rate
from .boosted import BoostedDensity, BoostRound, InitialDensity
from .tree import DecisionTreeClassifier, TreeConfig, estimate_wla, train_tree
from .engine import FitConfig, LeveragingScheme, fbde_fit, leverage, rr_lower_bound
from .guarantees import build_report, dc_from_rr, delta_bounds, kl_drop_bound, sr_from_rr, verify_eo
from .pipeline import CsvSpec, infer_csv_spec, load_csv, load_csv_with_schema

__version__ = "0.1.0"

__all__ = [
    "CsvSpec",
    "infer_csv_spec",
    "load_csv",
    "load_csv_with_schema",
    "Attribute",
    "AttributeSchema",
    "Dataset",
    "TabularDensity",
    "fit_empirical",
    "kl_divergence",
    "representation_rate",
    "statistical_rate",
    "InitialDensity",
    "BoostedDensity",
    "BoostRound",
    "DecisionTreeClassifier",
    "TreeConfig",
    "train_tree",
    "estimate_wla",
    "LeveragingScheme",
    "FitConfig",
    "fbde_fit",
    "leverage",
    "rr_lower_bound",
    "kl_drop_bound",
    "delta_bounds",
    "verify_eo",
    "sr_from_rr",
    "dc_from_rr",
    "build_report",
    "__version__",
]
