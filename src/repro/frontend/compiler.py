"""The ClickINC frontend compiler: user program → IR program.

This module orchestrates the frontend passes (paper §4.2): template
expansion, loop unrolling, branch-to-predicate lowering, single-operand
splitting and SSA renaming, finishing with IR verification.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exceptions import LanguageError
from repro.frontend.expansion import expand_templates, unroll_loops
from repro.frontend.folding import ConstantEnv
from repro.frontend.lowering import Lowerer
from repro.ir.program import HeaderField, IRProgram
from repro.ir.verify import verify_program
from repro.lang.ast_nodes import Module
from repro.lang.parser import parse_program
from repro.lang.profile import Profile
from repro.lang.templates import get_template


class FrontendCompiler:
    """Compile parsed ClickINC modules into platform-independent IR.

    Parameters
    ----------
    verify:
        Run IR structural verification after lowering (default True).
    """

    def __init__(self, verify: bool = True) -> None:
        self.verify = verify

    def compile_module(
        self,
        module: Module,
        constants: Optional[Dict[str, object]] = None,
        header_fields: Optional[Dict[str, int]] = None,
        name: Optional[str] = None,
    ) -> IRProgram:
        """Lower *module* to an :class:`~repro.ir.program.IRProgram`."""
        program_name = name or module.name
        env = ConstantEnv(constants)
        program = IRProgram(program_name)
        for field_name, width in (header_fields or {}).items():
            program.declare_header_field(HeaderField(name=field_name, width=width))

        try:
            statements = expand_templates(module.body, env, program_name)
            statements = unroll_loops(statements, env)
            Lowerer(program, env).lower_statements(statements)
        except RecursionError as exc:
            # the passes recurse over the tree, so a nesting the parser
            # just accepted can still exhaust the stack here
            raise LanguageError(
                f"{program_name}: the program nests too deeply to compile"
            ) from exc

        if self.verify:
            verify_program(program)
        return program

    def compile_source(
        self,
        source: str,
        name: str = "user_program",
        constants: Optional[Dict[str, object]] = None,
        header_fields: Optional[Dict[str, int]] = None,
    ) -> IRProgram:
        """Parse and compile ClickINC *source* text."""
        module = parse_program(source, name=name, constants=constants)
        return self.compile_module(
            module, constants=constants, header_fields=header_fields, name=name
        )

    def compile_profile(self, profile: Profile, name: Optional[str] = None) -> IRProgram:
        """Render a template from *profile* and compile it."""
        template = get_template(profile.app)
        output = template.render(profile)
        program_name = name or f"{profile.app.lower()}_{profile.user}"
        return self.compile_source(
            output.source,
            name=program_name,
            constants=output.constants,
            header_fields=output.header_fields,
        )


def source_compile_key(source: str,
                       constants: Optional[Dict[str, object]] = None,
                       header_fields: Optional[Dict[str, int]] = None) -> str:
    """Stable, name-independent content key for a source compilation.

    Two :meth:`FrontendCompiler.compile_source` calls with equal keys produce
    IR programs that differ only in their name / ownership metadata, so the
    artifact cache can serve one under the other's name via
    :meth:`~repro.ir.program.IRProgram.rebrand`.
    """
    from repro.core.cache import canonical_json

    return canonical_json(
        ["source", source, dict(constants or {}), dict(header_fields or {})]
    )


def profile_compile_key(profile: Profile) -> str:
    """Stable, tenant-independent content key for a template compilation.

    The submitting user's id is excluded: template rendering depends only on
    the app id, the performance parameters, the traffic spec and the packet
    format, so two tenants instantiating the same template configuration
    share one compiled program.
    """
    from repro.core.cache import canonical_json

    payload = profile.to_dict()
    payload.pop("user", None)
    return canonical_json(["profile", payload])


def compile_source(source: str, name: str = "user_program",
                   constants: Optional[Dict[str, object]] = None,
                   header_fields: Optional[Dict[str, int]] = None) -> IRProgram:
    """Module-level convenience wrapper around :class:`FrontendCompiler`."""
    return FrontendCompiler().compile_source(
        source, name=name, constants=constants, header_fields=header_fields
    )


def compile_template(profile: Profile, name: Optional[str] = None) -> IRProgram:
    """Compile the template named by *profile* into IR."""
    return FrontendCompiler().compile_profile(profile, name=name)
