"""Exact synthesis and verification of CSS codes under diagonal gates."""

from .csscode import CssCode, encode_basis_state
from .cyclo import Cyclo
from .gates import (
    BlockProductGate,
    DiagonalGate,
    LocalDiag,
    QfdGate,
    block_gate,
    elementary_ckz,
    lift,
    pauli_coeff,
    qfd_gate,
    transversal_zrot,
)
from .gencoeff import (
    coefficient,
    induced_logical,
    is_preserved,
    split_values,
    trivial_row,
)
from .gf2 import BitMat, BitVec
from .synth import add_x, concatenate, dfs_switch, remove_z, half_support_remove_z

__all__ = [
    "BitMat",
    "BitVec",
    "BlockProductGate",
    "CssCode",
    "Cyclo",
    "DiagonalGate",
    "LocalDiag",
    "QfdGate",
    "add_x",
    "block_gate",
    "coefficient",
    "concatenate",
    "dfs_switch",
    "elementary_ckz",
    "encode_basis_state",
    "induced_logical",
    "is_preserved",
    "lift",
    "pauli_coeff",
    "qfd_gate",
    "remove_z",
    "split_values",
    "half_support_remove_z",
    "transversal_zrot",
    "trivial_row",
]

__version__ = "0.1.0"
