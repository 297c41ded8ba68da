"""Hardware substrate models for the Ouroboros wafer-scale CIM system.

The hierarchy mirrors Fig. 2 of the paper: crossbar -> CIM core -> die ->
wafer, plus the mesh network-on-wafer, the intra-core H-tree, the energy /
area characterisation tables and the Murphy yield model.
"""

from .config import (
    CoreConfig,
    CrossbarConfig,
    DieConfig,
    WaferConfig,
    default_wafer_config,
    with_row_activation_ratio,
)
from .core import CIMCore, SfuCost
from .crossbar import (
    Crossbar,
    GemvCost,
    effective_sram_ratio,
    throughput_vs_activation_ratio,
)
from .die import CoreCoordinate, Die, DieCoordinate
from .energy import (
    DEFAULT_AREA_MODEL,
    DEFAULT_ENERGY_MODEL,
    CrossbarAreaModel,
    CrossbarEnergyModel,
    EnergyModel,
)
from .htree import (
    HTreeCost,
    HTreeNode,
    LeafAssignment,
    NodeOp,
    assignment_cost,
    build_tree,
    evaluate_tree,
)
from .noc import NoCConfig, NoCModel, TransferCost
from .wafer import Wafer
from .yieldmodel import DefectMap, expected_defective_cores, murphy_yield, sample_defect_map

__all__ = [
    "CrossbarConfig",
    "CoreConfig",
    "DieConfig",
    "WaferConfig",
    "default_wafer_config",
    "with_row_activation_ratio",
    "CIMCore",
    "SfuCost",
    "Crossbar",
    "GemvCost",
    "effective_sram_ratio",
    "throughput_vs_activation_ratio",
    "CoreCoordinate",
    "Die",
    "DieCoordinate",
    "EnergyModel",
    "CrossbarEnergyModel",
    "CrossbarAreaModel",
    "DEFAULT_ENERGY_MODEL",
    "DEFAULT_AREA_MODEL",
    "HTreeCost",
    "HTreeNode",
    "LeafAssignment",
    "NodeOp",
    "assignment_cost",
    "build_tree",
    "evaluate_tree",
    "NoCConfig",
    "NoCModel",
    "TransferCost",
    "Wafer",
    "DefectMap",
    "murphy_yield",
    "sample_defect_map",
    "expected_defective_cores",
]
