"""Inputs of the end-to-end benchmark: replayed granules and a pre-trained model.

Two things the workflow consumes are far more expensive to *make* than the
five stages are to run, so neither is made inside a timed region:

* **Granules.**  ``LaadsArchive.fetch`` synthesises a paper-size scene in
  ~9 s; the five stages process it in under 1 s.  The corpus (the archive's
  holdings) is generated once per checkout with the real generator, stored
  with ``repro.netcdf.to_bytes`` under ``benchmarks/e2e/.cache``, and served
  back by :class:`ReplayArchive` (``fetch`` = read + ``from_bytes``).
* **The model.**  As in the paper the workflow labels with a pre-trained
  model.  Set-up trains a small one per ``--seed`` on a seeded subset of
  corpus tiles through the public ``repro.ricc`` API and saves it; every
  workload points ``inference.model_path`` at that file.

The corpus content is fixed by :data:`CORPUS_SEED`; ``--seed`` picks the
training subset and seeds the training, so each seed ships different labels
for the same amount of work (see README, "What the seed changes").
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, List, Tuple

import numpy as np

from repro import netcdf
from repro.core.download import GranuleSet
from repro.instruments.registry import register_instrument
from repro.instruments.tiling import extract_tiles
from repro.modis.archive import GranuleRef, LaadsArchive
from repro.modis.granule import GranuleId
from repro.modis.constants import MINI_SWATH, PAPER_SWATH, SwathSpec
from repro.modis.instrument import ModisInstrument
from repro.ricc import AICCAModel

CORPUS_SEED = 2022
START_DATE = dt.date(2022, 1, 1)
PRODUCTS = ModisInstrument.default_products
INSTRUMENT_NAME = "modis_replay"
TRAIN_TILES_FILE = "train_tiles.npy"
MANIFEST_FILE = "corpus.json"


@dataclass(frozen=True)
class Size:
    """One swath size: its corpus window and the model trained for it."""

    name: str
    swath: SwathSpec
    tile_size: int
    days: int
    per_day: int
    # Model set-up.  Paper-size training costs ~1.3 s per optimiser step
    # (12.6 M weights), so it gets one step; mini tiles are ~free.
    train_tiles: int
    train_epochs: int
    num_classes: int

    @property
    def end_date(self) -> dt.date:
        return START_DATE + dt.timedelta(days=self.days - 1)


SIZES: Dict[str, Size] = {
    "paper": Size("paper", PAPER_SWATH, 128, days=1, per_day=2,
                  train_tiles=8, train_epochs=1, num_classes=4),
    "mini": Size("mini", MINI_SWATH, 16, days=12, per_day=4,
                 train_tiles=384, train_epochs=8, num_classes=42),
}


class ReplayArchive(LaadsArchive):
    """A ``LaadsArchive`` whose ``fetch`` replays stored granule bytes.

    The catalog (``query``) is inherited, so refs, filenames and byte-size
    draws are exactly the generator's; only the content comes from disk.
    """

    def __init__(self, pool_dir: str, swath: SwathSpec, seed: int = CORPUS_SEED):
        super().__init__(seed=seed, swath=swath)
        self.pool_dir = pool_dir

    def fetch(self, ref: GranuleRef, bands=None) -> netcdf.Dataset:
        if bands is not None:
            raise ValueError("the replay corpus stores the default band set only")
        with open(os.path.join(self.pool_dir, ref.filename + ".nc"), "rb") as handle:
            return netcdf.from_bytes(handle.read())


class ReplayInstrument(ModisInstrument):
    """MODIS served from the corpus, for drivers that build their archive
    from the registry (site agents, pool workers)."""

    name = INSTRUMENT_NAME
    title = "MODIS replayed from the benchmark corpus"

    def __init__(self, pool_dir: str, swath: SwathSpec):
        self.pool_dir = pool_dir
        self.swath = swath

    def build_archive(self, seed: int = CORPUS_SEED) -> ReplayArchive:
        return ReplayArchive(self.pool_dir, self.swath, seed=seed)


def register_replay(pool_dir: str, size: Size) -> ReplayArchive:
    """Register ``modis_replay`` over ``pool_dir``; returns its archive."""
    instrument = register_instrument(ReplayInstrument(pool_dir, size.swath))
    return instrument.build_archive()


# -- building the corpus ------------------------------------------------------


def corpus_refs(size: Size) -> List[GranuleRef]:
    archive = LaadsArchive(seed=CORPUS_SEED, swath=size.swath)
    refs: List[GranuleRef] = []
    for product in PRODUCTS:
        refs.extend(
            archive.query(product, START_DATE, size.end_date,
                          max_per_day=size.per_day)
        )
    return refs


def corpus_dir(cache_root: str) -> str:
    spec = json.dumps(
        {
            "seed": CORPUS_SEED,
            "start": START_DATE.isoformat(),
            "sizes": {
                name: [s.swath.lines, s.swath.pixels, s.tile_size, s.days, s.per_day]
                for name, s in SIZES.items()
            },
        },
        sort_keys=True,
    )
    return os.path.join(cache_root, "corpus-" + hashlib.sha256(spec.encode()).hexdigest()[:12])


def _generate_one(task: Tuple[str, str, str]) -> Tuple[str, float]:
    """Worker body: synthesise one granule and store its NetCDF bytes."""
    import time

    size_name, filename, out_dir = task
    size = SIZES[size_name]
    archive = LaadsArchive(seed=CORPUS_SEED, swath=size.swath)
    ref = archive.granule_ref(GranuleId.parse(filename))
    started = time.perf_counter()
    dataset = archive.fetch(ref)
    seconds = time.perf_counter() - started
    with open(os.path.join(out_dir, filename + ".nc"), "wb") as handle:
        handle.write(netcdf.to_bytes(dataset))
    return filename, seconds


def _training_tiles(size: Size, pool_dir: str) -> np.ndarray:
    """Tiles of the leading scenes, through the public scene/tiling API."""
    instrument = ReplayInstrument(pool_dir, size.swath)
    by_scene: Dict[str, Dict[str, str]] = {}
    for ref in corpus_refs(size):
        by_scene.setdefault(ref.gid.scene_key, {})[ref.gid.product] = os.path.join(
            pool_dir, ref.filename + ".nc"
        )
    stacks: List[np.ndarray] = []
    have = 0
    for key in sorted(by_scene):
        scene = instrument.load_scene(GranuleSet(key=key, paths=by_scene[key]))
        tiles = extract_tiles(
            radiance=scene.radiance, cloud_mask=scene.cloud_mask,
            land_mask=scene.land_mask, latitude=scene.latitude,
            longitude=scene.longitude, tile_size=size.tile_size, source=key,
        )
        if tiles:
            stacks.append(np.stack([t.data for t in tiles]).astype(np.float32))
            have += len(tiles)
        if have >= 4 * size.train_tiles:
            break
    return np.concatenate(stacks)


def build_corpus(cache_root: str, processes: int) -> Dict[str, object]:
    """Generate every granule of every size; returns the build summary.

    Built under a temporary name and renamed into place, so a killed build
    never leaves a half corpus that a later run would trust.
    """
    final = corpus_dir(cache_root)
    temp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(temp, ignore_errors=True)
    tasks: List[Tuple[str, str, str]] = []
    for size in SIZES.values():
        pool_dir = os.path.join(temp, size.name)
        os.makedirs(pool_dir)
        tasks.extend((size.name, ref.filename, pool_dir) for ref in corpus_refs(size))
    # Longest first: paper MOD02 granules take ~5 s each, mini ones ~0.05 s.
    tasks.sort(key=lambda t: (t[0] != "paper", "021KM" not in t[1]))
    with ProcessPoolExecutor(processes, mp_context=get_context("spawn")) as pool:
        seconds = [spent for _name, spent in pool.map(_generate_one, tasks)]
    files: Dict[str, Dict[str, object]] = {}
    for size in SIZES.values():
        pool_dir = os.path.join(temp, size.name)
        np.save(os.path.join(pool_dir, TRAIN_TILES_FILE), _training_tiles(size, pool_dir))
        for name in sorted(os.listdir(pool_dir)):
            path = os.path.join(pool_dir, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            files[f"{size.name}/{name}"] = {
                "sha256": digest, "nbytes": os.path.getsize(path),
            }
    summary = {
        "corpus_seed": CORPUS_SEED,
        "generate_granule_s": sum(seconds),
        "granules": len(seconds),
        "files": files,
    }
    with open(os.path.join(temp, MANIFEST_FILE), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    try:
        os.rename(temp, final)
    except OSError:
        # Another run published the same corpus first; keep theirs.
        shutil.rmtree(temp, ignore_errors=True)
    return summary


def load_manifest(cache_root: str) -> Dict[str, object]:
    """The manifest of a complete corpus; raises ``FileNotFoundError`` if the
    corpus is absent and ``ValueError`` if a listed file is missing or short."""
    root = corpus_dir(cache_root)
    with open(os.path.join(root, MANIFEST_FILE), encoding="utf-8") as handle:
        manifest = json.load(handle)
    for relpath, entry in manifest["files"].items():
        path = os.path.join(root, relpath)
        if not os.path.isfile(path) or os.path.getsize(path) != entry["nbytes"]:
            raise ValueError(f"corpus file damaged: {path}")
    return manifest


# -- per-seed set-up -----------------------------------------------------------


def train_model(size: Size, pool_dir: str, seed: int, out_path: str) -> None:
    """Train and save this seed's model (the timed part of set-up)."""
    pool = np.load(os.path.join(pool_dir, TRAIN_TILES_FILE), mmap_mode="r")
    seed %= 2**32   # numpy seeds are non-negative; accept any integer --seed
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(pool.shape[0], size=min(size.train_tiles, pool.shape[0]),
                                replace=False))
    model, _history = AICCAModel.train(
        np.asarray(pool[chosen]),
        num_classes=size.num_classes,
        latent_dim=8,
        hidden=(64,),
        epochs=size.train_epochs,
        seed=seed,
    )
    model.save(out_path)
