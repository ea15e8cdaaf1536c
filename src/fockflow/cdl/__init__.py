"""Circuit description language: lex, parse, compile."""

from .compiler import CompiledCircuit, compile_circuit, execute, rebin
from .lexer import KEYWORDS, LexError, Token, tokenize
from .parser import (
    BinDecl,
    CircuitSpecTree,
    ExchangeStmt,
    LabelRef,
    MeasureStmt,
    ModeAtom,
    ParseError,
    ParticleDecl,
    PhaseArg,
    PhaseStmt,
    Route,
    SemanticError,
    SorterStmt,
    SplitterStmt,
    parse,
    parse_source,
)

__all__ = [
    "BinDecl",
    "CircuitSpecTree",
    "CompiledCircuit",
    "ExchangeStmt",
    "KEYWORDS",
    "LabelRef",
    "LexError",
    "MeasureStmt",
    "ModeAtom",
    "ParseError",
    "ParticleDecl",
    "PhaseArg",
    "PhaseStmt",
    "Route",
    "SemanticError",
    "SorterStmt",
    "SplitterStmt",
    "Token",
    "compile_circuit",
    "execute",
    "parse",
    "parse_source",
    "rebin",
    "tokenize",
]
