"""Finite-model verification toolkit for sheaves on quantale-like sites.

Subpackages, bottom of the stack first:

- `finset`: finite sets and maps, equalizers, product sets, union-find
- `quantale`: finite quantales, validation, bundled families
- `moncat`: semicartesian monoidal instances, pseudo-pullbacks, the
  coherence suite
- `coverage`: covering families and `check_flavor`, the axiom check of
  all four flavors
- `presheaf`: presheaves on thin sites, Day convolution, sieves
- `sheaf`: the two sheaf checkers, gluing, the plus construction
- `reflect`: sheafification by orthogonal forcing, subobject lattices,
  the down-set quantale criterion
- `cli`: the `qsheaf` command
"""

__version__ = "0.1.0"
