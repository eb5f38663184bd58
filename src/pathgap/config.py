"""Experiment configuration files: flat key=value with one section per command.

A config file looks like::

    [meta]
    schema_version = 1

    [simulate]
    manifold = sphere
    dim = 3
    ...

Values are kept as strings so a config round-trips losslessly through
read/write; the CLI layer owns the typed interpretation.  Any other
schema_version is refused; a file without [meta] reads as version 1.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


def _parser():
    """A parser that keeps key case (configparser lowercases keys).

    configparser is imported here, so a run without a config file never loads it.
    """
    import configparser

    cp = configparser.ConfigParser()
    cp.optionxform = str
    return cp


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one command, mirroring its flags."""

    command: str
    params: dict = field(default_factory=dict)

    def to_text(self) -> str:
        cp = _parser()
        cp["meta"] = {"schema_version": str(SCHEMA_VERSION)}
        cp[self.command] = {k: str(v) for k, v in self.params.items()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        cp = _parser()
        cp.read_string(text)
        version = int(cp.get("meta", "schema_version", fallback=str(SCHEMA_VERSION)))
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
        commands = [s for s in cp.sections() if s != "meta"]
        if len(commands) != 1:
            raise ValueError(f"config must contain exactly one command section, got {commands}")
        command = commands[0]
        return cls(command=command, params=dict(cp[command]))

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def read(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_text(fh.read())
