"""Demand forecasting and ordering decisions for perishable stock.

The package pairs a hybrid short-term demand model (seasonal-trend
decomposition plus gradient-boosted residual trees) with an age-aware FIFO
inventory simulation and a target/reorder ordering policy learned from data.
"""

__version__ = "0.1.0"

from .errors import ParameterError, SchemaError
from .timeseries import (
    Series,
    StlConfig,
    stl_decompose,
    stl_extend,
)
from .gbrt import (
    FeatureMatrix,
    GbrtConfig,
    train,
    predict,
    variable_importance,
)
from .forecast import (
    Dataset,
    DailyRecord,
    fit_hybrid,
    predict_daily,
    grid_search_cv,
    iterative_feature_selection,
    rmse,
    mape,
)
from .inventory import (
    AgeProfile,
    CostParams,
    step,
    simulate,
    brute_force_unit_sim,
    young_stock,
)
from .policy import (
    Schedule,
    PolicyParams,
    order_quantity,
    optimize_target,
    optimize_reorder,
    evaluate_strategy,
    aggregate_semiweekly,
)
from .datagen import CovariateSpec, GenConfig, generate
