"""Per-instrument x per-model branch derivation for fan-out plans.

One declarative config names ``archive.instruments`` and
``inference.models``; this module derives the per-branch configs every
execution surface shares — the local drivers, the sharded worker pool
(:mod:`repro.core.scaleout`), and the control-plane agents
(:mod:`repro.server.execution`) all call the same two pure functions,
so a branch's paths and knobs can never disagree across surfaces.

Layout under the root config's directories::

    staging/<instrument>/...            per-instrument granules
    preprocessed/<instrument>/...       per-instrument tile files
    transfer_out/<instrument>+<model>/  per-branch labelled files
    destination/<instrument>+<model>/   per-branch delivered corpus

The journal directory is *shared* across branches (one WAL per run);
collisions are avoided by branch-qualified journal keys (the model
node's ``model-<tag>`` key, the inference/shipment ``<tag>:`` key
prefix) and by the per-instrument granule/scene key namespaces.

A single-branch config (one instrument, one model) is the product of
size one whose tag is ``""``: it derives *nothing* — the pipeline runs
on the root paths under bare names, byte-identical to the pre-fan-out
layout.  This module is also the only place that spells or parses the
``base[@tag]`` name grammar shared by plan nodes, pool envelope kinds
and control-plane unit names.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Tuple

from repro.core.config import EOMLConfig
from repro.instruments.registry import get_instrument

__all__ = [
    "branch_tag",
    "expand_branches",
    "is_fanout",
    "instrument_config",
    "branch_config",
    "unit_name",
    "split_unit",
    "unit_slice",
    "key_prefix",
    "model_slot",
]


def branch_tag(instrument: str, model: str) -> str:
    """The canonical branch name: ``<instrument>+<model>``."""
    return f"{instrument}+{model}"


def expand_branches(config: EOMLConfig) -> List[Tuple[str, str]]:
    """Ordered (instrument, model) pairs — the product of the config's
    instrument and model lists, instruments-major."""
    return [(inst, model) for inst in config.instruments for model in config.models]


def is_fanout(config: EOMLConfig) -> bool:
    """True when the plan needs per-branch fan-out (more than one
    instrument x model combination)."""
    return len(config.instruments) > 1 or len(config.models) > 1


def instrument_config(config: EOMLConfig, instrument: str) -> EOMLConfig:
    """The per-instrument slice of a fan-out config.

    Staging/preprocessed/quarantine move into per-instrument
    subdirectories; products and tile size come from the instrument's
    own defaults unless this is the primary instrument (whose products
    and preprocess knobs the user configured directly).
    """
    if instrument not in config.instruments:
        raise ValueError(
            f"instrument {instrument!r} not in config.instruments {config.instruments}"
        )
    if not is_fanout(config):
        return config
    spec = get_instrument(instrument)
    primary = instrument == config.instruments[0]
    return dataclasses.replace(
        config,
        instruments=(instrument,),
        branch=instrument,
        staging=os.path.join(config.staging, instrument),
        preprocessed=os.path.join(config.preprocessed, instrument),
        quarantine=os.path.join(config.quarantine, instrument),
        products=(
            list(config.products) if primary else list(spec.default_products)
        ),
        tile_size=(config.tile_size if primary else spec.default_tile_size),
    )


def branch_config(config: EOMLConfig, instrument: str, model: str) -> EOMLConfig:
    """The full per-branch (instrument x model) slice.

    Extends :func:`instrument_config` with per-branch transfer-out and
    destination directories and pins the single model.  An explicit
    ``inference.model_path`` never applies to fan-out branches (it
    names *one* model file); each branch bootstraps its own model into
    the shared journal directory instead.
    """
    if model not in config.models:
        raise ValueError(f"model {model!r} not in config.models {config.models}")
    base = instrument_config(config, instrument)
    if not is_fanout(config):
        return base
    tag = branch_tag(instrument, model)
    return dataclasses.replace(
        base,
        models=(model,),
        branch=tag,
        model_path=None,
        transfer_out=os.path.join(config.transfer_out, tag),
        destination=os.path.join(config.destination, tag),
    )


def unit_name(base: str, tag: str) -> str:
    """``base@tag`` — or the bare ``base`` for the single branch's ``""``."""
    return f"{base}@{tag}" if tag else base


def split_unit(name: str) -> Tuple[str, str]:
    """Inverse of :func:`unit_name`: ``(base, tag)``."""
    base, _, tag = name.partition("@")
    return base, tag


def unit_slice(config: EOMLConfig, name: str) -> Tuple[str, str, EOMLConfig]:
    """``(base, tag, config slice)`` a node, envelope or unit runs under.

    An ``<instrument>+<model>`` tag selects the branch slice, a plain
    ``<instrument>`` tag the instrument slice, and ``""`` the root
    config — which is what both slices are for a single-branch config.
    """
    base, tag = split_unit(name)
    instrument, _, model = tag.partition("+")
    if model:
        return base, tag, branch_config(config, instrument, model)
    if instrument:
        return base, tag, instrument_config(config, instrument)
    return base, tag, config


def key_prefix(tag: str) -> str:
    """Journal-key namespace of a branch's inference/shipment items."""
    return f"{tag}:" if tag else ""


def model_slot(tag: str) -> Tuple[str, str]:
    """``(journal key, file name)`` of a branch's bootstrapped model.

    The single branch keeps the names it had before fan-out existed, so
    old run directories still resume.
    """
    return (f"model-{tag}", f"model_{tag}.npz") if tag else ("aicca-model", "model.npz")
