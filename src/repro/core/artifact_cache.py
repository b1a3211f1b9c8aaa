"""Glue between the pipeline stages and the content-addressed store.

One place owns how the cache is opened from a workflow config, how the
stages' *logical* keys are spelled (the derived-key table of
:class:`repro.cas.store.CASStore`), and the stage-in shape a granule
reader is handed.  Keeping the vocabulary here means the driver, the
pool workers, and the co-located site agents can never disagree about
what a cache entry means.

Key grammar (all digests are SHA-256 hex):

``granule:<instrument>:<seed>:<filename>``
    a download's content digest — the archive's deterministic granule,
    so any run of the same catalog query hits.
``tiles:<instrument>:<scene>:ts=..:ct=..:lf=..:in=<digests>``
    a preprocess output, keyed by the tiler parameters and the sorted
    digests of the *input* granule files — a changed input or knob can
    never replay a stale tile file.
``labels:ricc:<model file digest>:nc=..:by=RICC/AICCA:in=<tile file digest>``
    a labelled file, keyed by everything that decides its bytes: the
    model (by the content of its persisted file), the class count and
    attribution it stamps, and the digest of the tile file it labels.

This module deliberately imports nothing from the rest of
``repro.core`` — stages import it, never the reverse.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.cas import CASStore
from repro.util.digest import digest_file

__all__ = [
    "StageIn",
    "on_disk",
    "open_store",
    "granule_key",
    "tiles_key",
    "labels_key",
    "input_digest",
    "CLASSIFIED_BY",
]

# The attribution every labelled file's label column carries
# (``classified_by``), which the ``labels:`` key spells too.
CLASSIFIED_BY = "RICC/AICCA"

# ``DownloadStage.stage_in``'s shape, for the readers that hold it:
# (product -> path, product -> sha256 or None) -> product -> readable path.
StageIn = Callable[[Mapping[str, str], Optional[Mapping[str, str]]], Dict[str, str]]


def on_disk(
    paths: Mapping[str, str], digests: Optional[Mapping[str, str]] = None
) -> Dict[str, str]:
    """The stage-in of a reader built without a download stage: every
    granule must already be on disk."""
    for path in paths.values():
        if not os.path.exists(path):
            raise FileNotFoundError(f"granule {path} is not staged")
    return dict(paths)


def open_store(config: Any, chaos: Any = None) -> Optional[CASStore]:
    """The run's CAS, or ``None`` when caching is off.

    Durability follows the journal's knob: a test profile that skips
    fsyncs for speed skips them in the cache too.
    """
    if not getattr(config, "cache_enabled", False):
        return None
    return CASStore(
        config.cache_dir,
        budget_bytes=config.cache_budget_bytes,
        durable=bool(getattr(config, "journal_durable", True)),
        chaos=chaos,
    )


def granule_key(config: Any, filename: str) -> str:
    """Logical key of one archive granule's content."""
    return f"granule:{config.instrument}:{config.seed}:{filename}"


def tiles_key(
    instrument: str,
    scene_key: str,
    tile_size: int,
    cloud_threshold: float,
    max_land_fraction: float,
    input_digests: Sequence[str],
) -> str:
    """Logical key of one scene's preprocess output."""
    inputs = ",".join(sorted(input_digests))
    return (
        f"tiles:{instrument}:{scene_key}:ts={tile_size}:ct={cloud_threshold!r}"
        f":lf={max_land_fraction!r}:in={inputs}"
    )


def labels_key(model_digest: str, num_classes: int, tile_digest: str) -> str:
    """Logical key of one tile file's labelled output."""
    return (
        f"labels:ricc:{model_digest}:nc={num_classes}:by={CLASSIFIED_BY}"
        f":in={tile_digest}"
    )


def input_digest(path: str, journal: Any = None) -> str:
    """A file's digest, from the manifest when already observed."""
    if journal is not None:
        known = journal.expected_sha(path)
        if known:
            return known
    return digest_file(path)[0]
