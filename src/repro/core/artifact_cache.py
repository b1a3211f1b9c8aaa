"""Glue between the pipeline stages and the content-addressed store.

One place owns how the cache is opened from a workflow config, how the
stages' *logical* keys are spelled (the derived-key table of
:class:`repro.cas.store.CASStore`), and how a coarse tile file gets its
full-fidelity second pass.  Keeping the vocabulary here means the
driver, the pool workers, and the co-located site agents can never
disagree about what a cache entry means.

Key grammar (all digests are SHA-256 hex):

``granule:<instrument>:<seed>:<filename>``
    a download's content digest — the archive's deterministic granule,
    so any run of the same catalog query hits.
``tiles:<instrument>:<scene>:ts=..:ct=..:lf=..:cs=..:in=<digests>``
    a preprocess output, keyed by the tiler parameters and the sorted
    digests of the *input* granule files — a changed input or knob can
    never replay a stale tile file.
``refined:<instrument>:<scene>:ts=..:pos=<digest>``
    a full-fidelity re-extraction for one set of low-margin tile
    positions (the progressive-fidelity ladder's second rung).
``labels:<model name>:<model file digest>:nc=..:by=..:rt=..:in=<tile file digest>``
    a labelled file, keyed by everything that decides its bytes: the
    model (by the content of its persisted file), the class count and
    attribution it stamps, the refinement threshold, and the digest of
    the tile file it labels.

This module deliberately imports nothing from the rest of
``repro.core`` — stages import it, never the reverse.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cas import CASStore
from repro.instruments.registry import get_instrument
from repro.instruments.tiling import FIDELITY_COARSE, extract_tiles
from repro.util.digest import digest_file

__all__ = [
    "StageIn",
    "on_disk",
    "open_store",
    "granule_key",
    "tiles_key",
    "labels_key",
    "input_digest",
    "parse_source_files",
    "TileRefiner",
]

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
    coarse_stride: int,
    input_digests: Sequence[str],
) -> str:
    """Logical key of one scene's preprocess output."""
    inputs = ",".join(sorted(input_digests))
    return (
        f"tiles:{instrument}:{scene_key}:ts={tile_size}:ct={cloud_threshold!r}"
        f":lf={max_land_fraction!r}:cs={coarse_stride}:in={inputs}"
    )


def labels_key(
    model_name: str,
    model_digest: str,
    num_classes: int,
    attribution: str,
    refine_threshold: Optional[float],
    tile_digest: str,
) -> str:
    """Logical key of one tile file's labelled output."""
    return (
        f"labels:{model_name}:{model_digest}:nc={num_classes}:by={attribution}"
        f":rt={refine_threshold!r}:in={tile_digest}"
    )


def input_digest(path: str, journal: Any = None) -> str:
    """A file's digest, from the manifest when already observed."""
    if journal is not None:
        known = journal.expected_sha(path)
        if known:
            return known
    return digest_file(path)[0]


def parse_source_files(attr: str) -> Dict[str, str]:
    """Decode the tile-file ``source_files`` attribute (prod=path;...)."""
    out: Dict[str, str] = {}
    for part in attr.split(";"):
        product, sep, path = part.partition("=")
        if sep and product and path:
            out[product] = path
    return out


def _attr_str(ds: Any, name: str) -> str:
    value = ds.get_attr(name, "")
    return value if isinstance(value, str) else ""


class _SceneFiles:
    """The ``path_for``/``key`` duck an :class:`Instrument` decodes.

    Mirrors :class:`repro.core.download.GranuleSet` without importing it
    (this module sits below the stages).
    """

    def __init__(self, key: str, paths: Dict[str, str]):
        self.key = key
        self.paths = paths

    def path_for(self, family: str) -> str:
        for product, path in self.paths.items():
            if product.endswith(family):
                return path
        raise KeyError(f"granule set {self.key} has no product family {family!r}")


class TileRefiner:
    """Full-fidelity second pass for low-margin coarse tiles.

    Given a coarse tile file (``fidelity="coarse"`` with stamped
    ``source_files``) and the indices whose classifier margin fell below
    the refinement threshold, re-extract exactly those grid positions
    from the original granules at full resolution.  The refined stack is
    its own CAS object (distinct from the coarse tile file), so a rerun
    refines from the store instead of re-reading the scene.

    Source granules are read through ``stage_in``: the download stage's
    stages in one that is not on disk (a warm run leaves granules in the
    store), and the default, :func:`on_disk`, requires them staged.
    Refinement is strictly best-effort: a granule that can not be had, a
    moved scene, or any extraction error returns ``None`` and the coarse
    labels stand — same contract as every other cache path.
    """

    def __init__(
        self,
        config: Any,
        cas: Optional[CASStore] = None,
        stage_in: StageIn = on_disk,
    ):
        self.config = config
        self.cas = cas
        self.stage_in = stage_in
        self.refined_tiles = 0
        self.refine_failures = 0

    def refine(self, ds: Any, indices: np.ndarray) -> Optional[np.ndarray]:
        """Full-fidelity radiances for ``indices``, or ``None``."""
        try:
            stack = self._refine(ds, indices)
        except Exception:  # noqa: BLE001 - refinement may never sink a file
            stack = None
        if stack is None:
            self.refine_failures += 1
        else:
            self.refined_tiles += int(len(indices))
        return stack

    def _refine(self, ds: Any, indices: np.ndarray) -> Optional[np.ndarray]:
        if _attr_str(ds, "fidelity") != FIDELITY_COARSE:
            return None
        paths = parse_source_files(_attr_str(ds, "source_files"))
        scene_key = _attr_str(ds, "source_granule")
        if not paths or not scene_key:
            return None
        rows = np.asarray(ds["tile_row"].data)[indices].tolist()
        cols = np.asarray(ds["tile_col"].data)[indices].tolist()
        positions: List[Tuple[int, int]] = [
            (int(r), int(c)) for r, c in zip(rows, cols)
        ]
        radiance = np.asarray(ds["radiance"].data)
        tile_size = int(radiance.shape[1])
        bands = int(radiance.shape[3])
        cached = self._load_cached(scene_key, tile_size, bands, positions)
        if cached is not None:
            return cached
        paths = self.stage_in(paths)
        scene = get_instrument(self.config.instrument).load_scene(
            _SceneFiles(scene_key, paths)
        )
        tiles = extract_tiles(
            radiance=scene.radiance,
            cloud_mask=scene.cloud_mask,
            land_mask=scene.land_mask,
            latitude=scene.latitude,
            longitude=scene.longitude,
            tile_size=tile_size,
            optical_thickness=scene.optical_thickness,
            cloud_top_pressure=scene.cloud_top_pressure,
            cloud_threshold=self.config.cloud_threshold,
            max_land_fraction=self.config.max_land_fraction,
            source=scene_key,
            only_positions=positions,
        )
        by_pos = {(tile.row, tile.col): tile.data for tile in tiles}
        if any(pos not in by_pos for pos in positions):
            return None
        stack = np.stack([by_pos[pos] for pos in positions]).astype(
            np.float32, copy=False
        )
        self._publish(scene_key, tile_size, positions, stack)
        return stack

    # -- the refined stack as its own CAS object ------------------------------

    def _refined_key(
        self, scene_key: str, tile_size: int, positions: Sequence[Tuple[int, int]]
    ) -> str:
        pos_digest = hashlib.sha256(repr(sorted(positions)).encode()).hexdigest()
        return (
            f"refined:{self.config.instrument}:{scene_key}"
            f":ts={tile_size}:pos={pos_digest}"
        )

    def _load_cached(
        self,
        scene_key: str,
        tile_size: int,
        bands: int,
        positions: Sequence[Tuple[int, int]],
    ) -> Optional[np.ndarray]:
        if self.cas is None:
            return None
        record = self.cas.get_key(self._refined_key(scene_key, tile_size, positions))
        if not record or not record.get("digest"):
            return None
        payload = self.cas.load_bytes(record["digest"])
        if payload is None:
            return None
        expected = len(positions) * tile_size * tile_size * bands * 4
        if len(payload) != expected:
            return None
        flat = np.frombuffer(payload, dtype="<f4")
        return flat.reshape(len(positions), tile_size, tile_size, bands).copy()

    def _publish(
        self,
        scene_key: str,
        tile_size: int,
        positions: Sequence[Tuple[int, int]],
        stack: np.ndarray,
    ) -> None:
        if self.cas is None:
            return
        payload = np.ascontiguousarray(stack, dtype="<f4").tobytes()
        digest = hashlib.sha256(payload).hexdigest()
        if self.cas.store_bytes(payload, digest) is not None:
            self.cas.put_key(
                self._refined_key(scene_key, tile_size, positions),
                {"digest": digest, "tiles": len(positions)},
            )
