"""repro: reproduction of the SC'24 multi-facility EO-ML workflow paper.

Top-level package. Subpackages:

- :mod:`repro.util`     — units, YAML subset, config schema, stats, logging
- :mod:`repro.sim`      — discrete-event simulation kernel
- :mod:`repro.netcdf`   — from-scratch NetCDF-3 classic writer/reader
- :mod:`repro.modis`    — synthetic MODIS products and LAADS archive
- :mod:`repro.net`      — network bandwidth/latency substrate
- :mod:`repro.hpc`      — cluster, Slurm-like scheduler, Lustre-like FS
- :mod:`repro.compute`  — Globus-Compute-like function service
- :mod:`repro.transfer` — Globus-Transfer-like data movement
- :mod:`repro.flows`    — Globus-Flows-like state-machine automation
- :mod:`repro.pexec`    — Parsl's simulated twin (HTEX over Slurm blocks)
- :mod:`repro.ricc`     — rotationally invariant cloud clustering + AICCA
- :mod:`repro.core`     — the five-stage EO-ML workflow
- :mod:`repro.analysis` — experiment drivers regenerating every figure/table
"""

__version__ = "1.0.0"
