"""Service configuration: tenants + pool + cache, loadable from a file.

JSON always works.  YAML works when ``pyyaml`` happens to be installed —
the dependency is *optional* and gated at call time, matching the repo
rule that missing third-party packages degrade with an honest error
instead of an import-time crash.

Shape (JSON shown)::

    {
      "workers": 4,
      "cache_dir": "results-cache",
      "tenants": [
        {"name": "alice", "weight": 3, "max_active": 2, "max_queued": 16},
        {"name": "bob"}
      ]
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigurationError
from repro.serve.admission import TenantPolicy

__all__ = ["ServiceConfig", "load_config"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to build a :class:`~repro.serve.service.JobService`."""

    tenants: tuple[TenantPolicy, ...]
    workers: int = 2
    cache_dir: str | None = None
    #: keep pickled results in process memory in front of the durable layer
    memory_cache: bool = True

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("config needs at least one tenant")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ServiceConfig":
        """Build from a parsed config document (see module docs for shape)."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config root must be a mapping, got {type(doc).__name__}")
        unknown = set(doc) - {"tenants", "workers", "cache_dir", "memory_cache"}
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        raw_tenants = doc.get("tenants", [])
        tenants = []
        for row in raw_tenants:
            if not isinstance(row, dict):
                raise ConfigurationError(f"tenant entries must be mappings, got {row!r}")
            extra = set(row) - {"name", "weight", "max_active", "max_queued"}
            if extra:
                raise ConfigurationError(f"unknown tenant keys: {sorted(extra)}")
            tenants.append(TenantPolicy(**row))
        return cls(
            tenants=tuple(tenants),
            workers=int(doc.get("workers", 2)),
            cache_dir=doc.get("cache_dir"),
            memory_cache=bool(doc.get("memory_cache", True)),
        )


def load_config(path: str | os.PathLike) -> ServiceConfig:
    """Load a service config from a JSON (always) or YAML (gated) file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {p}: {exc}") from exc
    if p.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # noqa: F401 - optional dependency, gated here
        except ImportError as exc:
            raise ConfigurationError(
                f"{p.name} is YAML but pyyaml is not installed; use JSON instead"
            ) from exc
        doc = yaml.safe_load(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {p} is not valid JSON: {exc}") from exc
    return ServiceConfig.from_dict(doc)
