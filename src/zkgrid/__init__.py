"""zkgrid: quantized inference compiled to grid constraints, checked
exactly, with tensor commitments and escrow protocol simulators."""

from .arithmetize import (
    CircuitStats,
    CompileConfig,
    CompileError,
    WitnessError,
    assign_witness,
    compile,
    lookup_table,
)
from .checker import KERNEL, CheckError, Violation, check, check_parallel
from .circuit import (
    Assignment,
    CircuitLayout,
    Column,
    Copies,
    CopyConstraint,
    GateDef,
    LookupArg,
    LookupTable,
    builtin_gates,
)
from .commit import SpongeParams, VisibilityMode, commit_model_io, sponge_hash
from .field import DEFAULT_MODULUS, Field, FieldElement
from .interpreter import InferenceTrace, clip_and_scale, run_inference
from .model import (
    Layer,
    ModelFormatError,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    accumulator_bounds,
    load_model,
    save_model,
    shape_inference,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CheckError",
    "CircuitLayout",
    "CircuitStats",
    "Column",
    "CompileConfig",
    "CompileError",
    "Copies",
    "CopyConstraint",
    "DEFAULT_MODULUS",
    "Field",
    "FieldElement",
    "GateDef",
    "InferenceTrace",
    "KERNEL",
    "Layer",
    "LookupArg",
    "LookupTable",
    "ModelFormatError",
    "ModelGraph",
    "QuantParams",
    "QuantTensor",
    "ScaleFactor",
    "SpongeParams",
    "Violation",
    "VisibilityMode",
    "WitnessError",
    "accumulator_bounds",
    "assign_witness",
    "builtin_gates",
    "check",
    "check_parallel",
    "clip_and_scale",
    "commit_model_io",
    "compile",
    "load_model",
    "lookup_table",
    "run_inference",
    "save_model",
    "shape_inference",
    "sponge_hash",
]
