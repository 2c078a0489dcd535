"""The master-equation engine: sparse Liouvillian on the closed support."""

from . import _lindblad_py

BACKEND = "sparse-liouvillian"

propagate = _lindblad_py.propagate
