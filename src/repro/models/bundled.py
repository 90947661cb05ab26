"""Bundled DSL models — the shareable µDD library.

The paper commits to sharing its MMU µDDs "to help seed the development
of improved MMU models in widely used software simulators". This module
is that artifact: curated, documented DSL sources shipped inside the
package, loadable by name.

>>> from repro.models.bundled import load_bundled_model, bundled_model_names
>>> sorted(bundled_model_names())[:2]
['merging_load_side', 'no_merging_load_side']
>>> mudd = load_bundled_model("pde_initial")
"""

import os

from repro.dsl import compile_dsl
from repro.errors import ConfigurationError

_DSL_DIR = os.path.join(os.path.dirname(__file__), "dsl")


def bundled_model_names():
    """Names of all shipped DSL models."""
    names = []
    for filename in sorted(os.listdir(_DSL_DIR)):
        if filename.endswith(".dsl"):
            names.append(filename[: -len(".dsl")])
    return names


def bundled_model_source(name):
    """The DSL source text of a bundled model. Only the names
    :func:`bundled_model_names` lists are accepted, never a path."""
    names = bundled_model_names()
    if name not in names:
        raise ConfigurationError(
            "no bundled model %r (available: %s)" % (name, ", ".join(names))
        )
    with open(os.path.join(_DSL_DIR, name + ".dsl"), "r", encoding="utf-8") as handle:
        return handle.read()


def load_bundled_model(name):
    """Compile a bundled model into a validated µDD (parsed once per
    process; see :func:`repro.dsl.compile_dsl`)."""
    return compile_dsl(bundled_model_source(name), name=name)
