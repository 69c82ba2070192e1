"""Persisting experiment results as JSON documents.

Every experiment's results serialize to one sorted-key JSON document
(dataclasses flatten naturally, sets sort), so equal results give equal
bytes.  The DSE cache, ``repro learn`` and the harness's Table I record
(``benchmarks/results/table1.json``) are stored this way; the harness
compares a rerun with its record byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError

PathLike = Union[str, pathlib.Path]


def _flatten(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _flatten(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _flatten(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_flatten(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_flatten(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, pathlib.PurePath):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value"):  # enums
        return value.value
    raise ConfigurationError(
        f"cannot serialize {type(value).__name__} into a result store")


def save_results(results: Any, path: PathLike,
                 metadata: Optional[Dict[str, Any]] = None) -> None:
    """Serialize experiment *results* (dataclasses/lists/dicts) to JSON."""
    document = {
        "metadata": metadata or {},
        "results": _flatten(results),
    }
    pathlib.Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_results(path: PathLike) -> Dict[str, Any]:
    """Load a stored run: ``{"metadata": ..., "results": ...}``."""
    try:
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not JSON: {exc}")
    if not isinstance(document, dict) or "results" not in document:
        raise ConfigurationError(f"{path} is not a result store document")
    return document

