"""Logic-network substrate: networks, truth tables, Verilog I/O."""

from .logic_network import GateType, LogicNetwork, NetworkStats, Node
from .truth_table import TruthTable
from .simulation import (
    EXHAUSTIVE_LIMIT,
    EquivalenceResult,
    all_vectors,
    check_equivalence,
    exhaustive_words,
    output_signature,
    pack_vectors,
    random_vectors,
    random_words,
    unpack_vector,
)
from .transforms import decompose_to_aoig, prepare_for_layout, propagate_constants
from .verilog import (
    VerilogError,
    network_to_verilog,
    parse_verilog,
    read_verilog,
    write_verilog,
)
from .generators import DEFAULT_GATE_MIX, GeneratorSpec, generate_network, scaled_gate_count
from .analysis import NetworkProfile, format_profile, profile

__all__ = [
    "DEFAULT_GATE_MIX",
    "NetworkProfile",
    "format_profile",
    "profile",
    "EXHAUSTIVE_LIMIT",
    "EquivalenceResult",
    "GateType",
    "GeneratorSpec",
    "LogicNetwork",
    "NetworkStats",
    "Node",
    "TruthTable",
    "VerilogError",
    "all_vectors",
    "check_equivalence",
    "decompose_to_aoig",
    "exhaustive_words",
    "generate_network",
    "network_to_verilog",
    "output_signature",
    "pack_vectors",
    "parse_verilog",
    "prepare_for_layout",
    "propagate_constants",
    "random_vectors",
    "random_words",
    "unpack_vector",
    "read_verilog",
    "scaled_gate_count",
    "write_verilog",
]
