"""Mini OpenCL-C frontend: run the paper's listings as source code."""

from repro.frontend.compiler import (
    CompiledAutorun,
    CompiledNDRange,
    CompiledProgram,
    CompiledSingleTask,
    compile_source,
    extract_profile,
    program_cache_clear,
    program_cache_info,
)
from repro.frontend.lexer import FrontendError, Token, tokenize
from repro.frontend.parser import parse

__all__ = [
    "CompiledAutorun",
    "CompiledNDRange",
    "CompiledProgram",
    "CompiledSingleTask",
    "compile_source",
    "extract_profile",
    "program_cache_clear",
    "program_cache_info",
    "FrontendError",
    "Token",
    "tokenize",
    "parse",
]
