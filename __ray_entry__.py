"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the proj_ray library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``     — flagship pages pipeline on sf0.001 (smoke check)
- ``queries()``   — one entry per implemented operator/pipeline
                    (SURVEY.md §2 inventory), each ``fn(sf_dir)``
- ``oracle_sql()``— DuckDB-runnable ANSI SQL per query where the op is
                    SQL-expressible; omitted => rows-only check
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: pages -> geoparse -> PIP -> reproject and tile of the
    matched points -> agg."""
    from proj_ray.pipelines.flagship import flagship_pipeline

    return flagship_pipeline("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from proj_ray.pipelines.queries import QUERIES

    return {name: q["fn"] for name, q in QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    from proj_ray.pipelines.queries import QUERIES

    return {name: q["sql"] for name, q in QUERIES.items()
            if q["sql"] is not None}
