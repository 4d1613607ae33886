"""Run configuration and reproducibility manifest.

A run is configured by command-line flags, optionally backed by a flat
key=value config file; flags win. Every stage records what it read and
wrote in a manifest keyed by subcommand, with content digests instead of
timestamps, so identical config and inputs yield byte-identical artifacts
and manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .io import read_text, write_json

TOOL_VERSION = "0.1.0"


def load_config(path: str | Path) -> dict[str, tuple[str, int]]:
    """key=value lines as {key: (value, line number)}; blank lines and #-comments ignored."""
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not key:
            raise DataError(f"{path}:{lineno}: empty key")
        if key in values:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r} (first on line {values[key][1]})")
        values[key] = (value.strip(), lineno)
    return values


def config_hash(settings: dict) -> str:
    """Digest of the effective settings, independent of flag order."""
    canonical = "\n".join(f"{k}={settings[k]!r}" for k in sorted(settings))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config_hash: str
    tool_version: str = TOOL_VERSION
    inputs: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def add_input(self, path: str | Path) -> None:
        self.inputs[str(path)] = file_digest(path)

    def entry(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config_hash": self.config_hash,
            "inputs": dict(sorted(self.inputs.items())),
            "counts": dict(sorted(self.counts.items())),
            "warnings": list(self.warnings),
        }


def write_manifest(out_dir: str | Path, manifest: RunManifest) -> Path:
    """Merge this run's entry into <out_dir>/manifest.json under its command."""
    path = Path(out_dir) / "manifest.json"
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise DataError(f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(existing, dict):
            raise DataError(f"manifest {path} is not a JSON object")
    existing[manifest.command] = manifest.entry()
    write_json(path, existing)
    return path
