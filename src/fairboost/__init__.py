"""Boosted density estimation with representation-rate guarantees.

Fit a discrete density as an anchor with equalized group shares times a
product of bounded classifier tilts.  Leverage coefficients chosen per
round keep the group marginal provably close to uniform while each round
shrinks the KL divergence to the data, and every advertised bound ships
with a verifier.
"""

from .schema import Attribute, AttributeSchema, Dataset
from .tabular import (
    TabularDensity,
    discrimination_control,
    fit_empirical,
    kl_divergence,
    representation_rate,
    statistical_rate,
)
from .boosted import (
    BoostedDensity,
    BoostRound,
    ExpectationEstimate,
    InitialDensity,
)
from .tree import (
    FAIL,
    HBS,
    LBS,
    DecisionTreeClassifier,
    TreeConfig,
    WlaEstimate,
    estimate_wla,
    train_tree,
)
from .engine import (
    EXACT,
    RELATIVE,
    FitConfig,
    LeveragingScheme,
    TraceRow,
    fbde_fit,
    leverage,
    mollifier_size,
    rr_lower_bound,
)
from .guarantees import (
    DeltaBounds,
    EoReport,
    GuaranteeReport,
    KlDropBound,
    build_report,
    dc_from_rr,
    delta_bounds,
    eo_fnr_bound,
    exact_round_margins,
    gain_ratio,
    kl_drop_bound,
    margin_gain,
    sr_from_rr,
    verify_eo,
)
from .pipeline import (
    CsvSpec,
    MixtureParams,
    build_initial,
    generate_mixture,
    infer_csv_spec,
    kfold,
    load_csv,
    load_csv_with_schema,
    write_mixture_csv,
)
from .serialize import (
    build_manifest,
    load_model,
    load_trace,
    manifest_id,
    save_model,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeSchema",
    "Dataset",
    "TabularDensity",
    "fit_empirical",
    "representation_rate",
    "statistical_rate",
    "discrimination_control",
    "kl_divergence",
    "BoostedDensity",
    "BoostRound",
    "ExpectationEstimate",
    "InitialDensity",
    "DecisionTreeClassifier",
    "TreeConfig",
    "WlaEstimate",
    "estimate_wla",
    "FAIL",
    "HBS",
    "LBS",
    "train_tree",
    "FitConfig",
    "LeveragingScheme",
    "TraceRow",
    "fbde_fit",
    "EXACT",
    "RELATIVE",
    "leverage",
    "mollifier_size",
    "rr_lower_bound",
    "DeltaBounds",
    "EoReport",
    "GuaranteeReport",
    "KlDropBound",
    "build_report",
    "dc_from_rr",
    "delta_bounds",
    "eo_fnr_bound",
    "exact_round_margins",
    "gain_ratio",
    "kl_drop_bound",
    "margin_gain",
    "sr_from_rr",
    "verify_eo",
    "CsvSpec",
    "MixtureParams",
    "build_initial",
    "generate_mixture",
    "infer_csv_spec",
    "kfold",
    "load_csv",
    "load_csv_with_schema",
    "write_mixture_csv",
    "build_manifest",
    "load_model",
    "load_trace",
    "manifest_id",
    "save_model",
    "save_trace",
    "__version__",
]
