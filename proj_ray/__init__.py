"""proj_ray — a Ray-Data-native geospatial data-processing engine.

Pure NumPy kernels live in ``proj_ray.kernels`` (no Ray imports);
Ray Data pipeline stages in ``proj_ray.stages``; sources/sinks in
``proj_ray.sources``; composed pipelines in ``proj_ray.pipelines``;
lineage/checkpoint state in ``proj_ray.state``.
"""

from .crs import CRS
from .transform import Transform, make_transform

__all__ = ["CRS", "Transform", "make_transform"]
__version__ = "0.1.0"
