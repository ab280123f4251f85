"""Per-layer spans and work counts, recorded from outside fermichain.

``Tracer.install()`` wraps every public function of the layer modules,
plus ``criticality._analyze`` (the Fermi analysis that several public
functions share), ``cli._write_text`` and the evaluators of
``DispersionProfile``. Each wrapper replaces the original at every
module attribute that holds it: the defining module, the package
namespace and each importing module, so calls between layers are seen
too. ``uninstall()`` puts the originals back. Nothing under src/ changes.

A span is (name, parent, start, end); spans live in flat arrays until
the round's metrics are taken. A layer's self time is its span time
minus the time covered by its child spans.
"""

import functools
import importlib
import inspect
import re
import time
from array import array

import numpy as np

LAYERS = ("specfun", "models", "criticality", "spectral", "entanglement",
          "fisher_hartwig", "cli")
PRIVATE_WRAPPED = {"criticality": ("_analyze",), "cli": ("_write_text",)}
PROFILE_METHODS = ("E", "E1", "E2", "E_grid", "E1_grid")
_RUNTIME_FIELD = re.compile(r'"runtime_s": ([^,\s}]+)')


def _grid_points(args):
    return int(np.size(args[1]))


def _eigen_flops(args):
    n = int(np.size(args[0]))
    return 4 * n ** 3 // 3   # Householder tridiagonalisation


def _bytes_written(args):
    # the wall-clock field meta.runtime_s is the one part of CLI output
    # whose length changes from run to run; leave its digits out
    text = args[1]
    field = _RUNTIME_FIELD.search(text)
    return len(text.encode("utf-8")) - (len(field.group(1)) if field else 0)


_WORK = {
    "models.DispersionProfile.E_grid": ("models.grid_points", _grid_points),
    "models.DispersionProfile.E1_grid": ("models.grid_points", _grid_points),
    "spectral.eigenvalues_symmetric": ("spectral.eigen_flops", _eigen_flops),
    "cli._write_text": ("cli.bytes_written", _bytes_written),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.work = dict.fromkeys(key for key, _ in _WORK.values())
        self._stack = [-1]
        self._patches = []
        self.clear()

    def clear(self):
        for arr in (self.name_ids, self.parents, self.starts, self.ends):
            del arr[:]
        for key in self.work:
            self.work[key] = 0

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = (self.name_ids, self.parents,
                                             self.starts, self.ends, self._stack)
        work_key, measure = _WORK.get(name, (None, None))
        work = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            if measure is not None:
                work[work_key] += measure(args)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        import fermichain
        modules = {layer: importlib.import_module(f"fermichain.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        self.names.clear()
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in PRIVATE_WRAPPED.get(layer, ()))):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [fermichain, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        profile = modules["models"].DispersionProfile
        for attr in PROFILE_METHODS:
            original = profile.__dict__[attr]
            self._patches.append((profile, attr, original))
            setattr(profile, attr, self._wrap(f"models.DispersionProfile.{attr}", original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------
    def spans(self):
        """The recorded spans as numpy arrays, plus the name table."""
        return {"name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
                "start": np.frombuffer(self.starts).copy(),
                "end": np.frombuffer(self.ends).copy(),
                "names": np.array(self.names)}

    def metrics(self):
        """Per-layer counts and times of the spans recorded since clear()."""
        s = self.spans()
        ids, parent = s["name_id"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        index = {name: k for k, name in enumerate(self.names)}

        def count(*names):
            return int(sum(calls[index[name]] for name in names))

        def seconds(*names):
            return float(sum(total[index[name]] for name in names))

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                own[k] for k, name in enumerate(self.names)
                if name.split(".", 1)[0] == layer))
        in_fh = ids == index["spectral.correlation_spectrum"]
        in_fh &= has_parent
        in_fh[in_fh] = ids[parent[in_fh]] == index["fisher_hartwig.fh_deviation"]
        out.update({
            "specfun.polylog_calls": count("specfun.polylog_circle"),
            "specfun.polylog_s": seconds("specfun.polylog_circle"),
            "specfun.kernel_calls": count("specfun.entropy_kernel"),
            "models.scalar_calls": count(*(f"models.DispersionProfile.{m}"
                                           for m in ("E", "E1", "E2"))),
            "models.grid_points": self.work["models.grid_points"],
            "models.monotonicity_calls": count("models.monotonicity_report"),
            "criticality.fermi_points_calls": count("criticality._analyze"),
            "criticality.free_energy_calls": count("criticality.free_energy"),
            "spectral.eigen_calls": count("spectral.eigenvalues_symmetric"),
            "spectral.eigen_flops": self.work["spectral.eigen_flops"],
            "spectral.eigen_s": seconds("spectral.eigenvalues_symmetric"),
            "spectral.row_s": seconds("spectral.correlation_row",
                                      "spectral.correlation_row_finite"),
            "entanglement.c_tilde_calls": count("entanglement.c_tilde"),
            "fisher_hartwig.spectra_built": int(np.count_nonzero(in_fh)),
            "cli.runs": count("cli.run"),
            "cli.bytes_written": self.work["cli.bytes_written"],
        })
        return out
