"""Template base class and registry.

A template turns a :class:`~repro.lang.profile.Profile` into ClickINC source
text plus the compile-time constants needed to unroll its loops.  Templates
are registered by their App id so the controller can look them up from a
profile alone.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Type

from repro.exceptions import ProfileError
from repro.lang.profile import Profile


@dataclass
class TemplateOutput:
    """The result of rendering a template: source text and its constants."""

    source: str
    constants: Dict[str, object]
    header_fields: Dict[str, int]


class Template(abc.ABC):
    """Base class for all INC program templates."""

    #: Template App id matching :data:`repro.lang.profile.KNOWN_APPS`.
    app_id: str = ""

    @abc.abstractmethod
    def render(self, profile: Profile) -> TemplateOutput:
        """Render the template into ClickINC source using *profile*."""

    def validate(self, profile: Profile) -> None:
        """Check *profile* targets this template and passes its own checks."""
        if profile.app != self.app_id:
            raise ProfileError(
                f"profile app {profile.app!r} does not match template {self.app_id!r}"
            )
        profile.validate_for_template()


class TemplateRegistry:
    """Registry mapping App ids to template classes."""

    _templates: Dict[str, Type[Template]] = {}

    @classmethod
    def register(cls, template_cls: Type[Template]) -> Type[Template]:
        if not template_cls.app_id:
            raise ValueError("template classes must define app_id")
        cls._templates[template_cls.app_id] = template_cls
        return template_cls

    @classmethod
    def get(cls, app_id: str) -> Template:
        try:
            return cls._templates[app_id]()
        except KeyError as exc:
            raise ProfileError(f"no template registered for app {app_id!r}") from exc


def get_template(app_id: str) -> Template:
    """Return a fresh template instance for *app_id*."""
    return TemplateRegistry.get(app_id)
