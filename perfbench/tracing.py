"""Spans around todalab's public functions, recorded from outside the program.

`Tracer.install` replaces every public function of the layer modules (and
the public methods of the classes they define) with a wrapper that records
a span: qualified name, parent span, start, end, phase and a little
per-function information.  Every other binding of the same function inside
`todalab` is replaced too, so the names re-exported by `todalab/__init__`
and imported into `todalab.cli` are traced as well.  SciPy's `splu`,
`spsolve` and dense `eigh` entry points are wrapped to count factorizations
and dense eigen-solves against the innermost open span; these calls are
not spans, so a layer's self time still includes its own linear algebra.

`group` and `hyperbolic` are helpers of `mesh` and `operators` and are not
wrapped: their per-edge functions run millions of times inside the systole
search, so their time stays inside the calling span.

Spans stay in memory; `write_all` stores them as JSON when the run ends, and
`summarize` turns the spans of one or more processes into the per-layer
metrics listed in BENCHMARK.json.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("mesh", "operators", "sections", "gauss", "ricci", "coupled",
          "fileio", "cli")

SCIPY_CALLS = (("scipy.sparse.linalg", "splu", "factorization"),
               ("scipy.sparse.linalg", "spsolve", "factorization"),
               ("scipy.linalg", "eigh", "dense_eigh"))

# Span groups timed (or counted) over their outermost member: a span counts
# unless an enclosing span belongs to the same group.
TIME_GROUPS = {
    "mesh.build_s": ("mesh.build_base_surface",),
    "mesh.cover_s": ("mesh.build_cover",),
    "mesh.validate_s": ("mesh.HyperbolicMesh.validate",),
    "mesh.json_load_s": ("mesh.mesh_from_json", "mesh.mesh_from_dict"),
    "mesh.json_dump_s": ("mesh.mesh_to_json", "mesh.mesh_to_dict"),
    "operators.systole_s": ("operators.systole",),
    "operators.eig_low_s": ("operators.eig_low",),
    "operators.assembly_s": ("operators.triangle_geometry", "operators.volume",
                             "operators.mass_vector", "operators.laplacian",
                             "operators.stiffness"),
    "sections.synth_s": ("sections.synth_density",),
    "sections.lift_s": ("sections.balanced_lift", "sections.lift_density"),
    "gauss.solve_s": ("gauss.solve_gauss", "gauss.monotone_solve_gauss"),
    "ricci.maximize_s": ("ricci.maximize_J",),
    "ricci.newton_s": ("ricci.solve_ricci_newton",),
    "ricci.stability_s": ("ricci.stability_check",),
    "coupled.certify_s": ("coupled.certify",),
    "fileio.write_s": ("fileio.atomic_write_text", "fileio.write_json",
                       "fileio.write_field_csv", "fileio.write_density",
                       "fileio.write_vtk"),
    "fileio.read_s": ("fileio.read_json", "fileio.read_field_csv",
                      "fileio.read_density"),
    "fileio.hash_s": ("fileio.git_blob_sha1", "fileio.file_blob_sha1"),
}
COUNT_GROUPS = {
    "mesh.json_loads": TIME_GROUPS["mesh.json_load_s"],
    "operators.systole_calls": ("operators.systole",),
    "operators.eig_low_calls": ("operators.eig_low",),
    "operators.spectral_gap_calls": ("operators.spectral_gap",),
    "sections.green_solves": ("sections.poisson_zero_mean",),
    "gauss.solve_calls": TIME_GROUPS["gauss.solve_s"],
    "ricci.stability_calls": ("ricci.stability_check",),
    "coupled.solve_calls": ("coupled.solve_coupled",),
    "coupled.certify_calls": ("coupled.certify",),
}
# Iteration counts read from the returned solution objects.
ITERATION_SUMS = {
    "gauss.newton_iters": "gauss.solve_gauss",
    "gauss.monotone_sweeps": "gauss.monotone_solve_gauss",
    "ricci.maximize_iters": "ricci.maximize_J",
    "ricci.newton_iters": "ricci.solve_ricci_newton",
    "coupled.outer_iters": "coupled.solve_coupled",
}
SOLVES_UNDER_COUPLED = {
    "coupled.gauss_solves_per_solve": ("gauss.solve_gauss",
                                       "gauss.monotone_solve_gauss"),
    "coupled.ricci_solves_per_solve": ("ricci.maximize_J",
                                       "ricci.solve_ricci_newton"),
}
CALL_COUNTS = {
    "sections.factorizations": ("sections", "factorization"),
    "gauss.factorizations": ("gauss", "factorization"),
    "ricci.factorizations": ("ricci", "factorization"),
    "operators.dense_eigh_calls": ("operators", "dense_eigh"),
    "ricci.dense_eigh_calls": ("ricci", "dense_eigh"),
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.time_s", "s") for layer in LAYERS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("mesh.build_s", "s"), ("mesh.cover_s", "s"), ("mesh.validate_s", "s"),
       ("mesh.json_load_s", "s"), ("mesh.json_loads", "count"),
       ("mesh.json_dump_s", "s"),
       ("operators.systole_s", "s"), ("operators.systole_calls", "count"),
       ("operators.systole_per_mesh", "ratio"),
       ("operators.eig_low_s", "s"), ("operators.eig_low_calls", "count"),
       ("operators.spectral_gap_calls", "count"),
       ("operators.assembly_s", "s"), ("operators.dense_eigh_calls", "count"),
       ("sections.synth_s", "s"), ("sections.lift_s", "s"),
       ("sections.green_solves", "count"),
       ("sections.factorizations", "count"),
       ("gauss.solve_s", "s"), ("gauss.solve_calls", "count"),
       ("gauss.newton_iters", "count"), ("gauss.monotone_sweeps", "count"),
       ("gauss.factorizations", "count"),
       ("ricci.maximize_s", "s"), ("ricci.maximize_iters", "count"),
       ("ricci.newton_s", "s"), ("ricci.newton_iters", "count"),
       ("ricci.factorizations", "count"), ("ricci.stability_s", "s"),
       ("ricci.stability_calls", "count"), ("ricci.dense_eigh_calls", "count"),
       ("coupled.solve_self_s", "s"), ("coupled.solve_calls", "count"),
       ("coupled.outer_iters", "count"),
       ("coupled.gauss_solves_per_solve", "ratio"),
       ("coupled.ricci_solves_per_solve", "ratio"),
       ("coupled.certify_s", "s"), ("coupled.certify_calls", "count"),
       ("fileio.write_s", "s"), ("fileio.read_s", "s"),
       ("fileio.bytes_written", "bytes"), ("fileio.hash_s", "s"),
       ("cli.startup_s", "s"), ("cli.processes", "count"),
       ("bench.trace_overhead_s", "s")])

PHASES = ("setup", "round")


def _mesh_key(mesh):
    """Content key of a mesh, so two parses of one file count as one mesh."""
    return f"{mesh.num_vertices}:{hash(mesh.edge_lengths.tobytes())}"


def _span_info(qualname, result):
    """Iteration count of a finished solver span, or None."""
    if qualname in ITERATION_SUMS.values():
        if qualname == "coupled.solve_coupled":
            return {"iters": int(result.certificate.outer_iters)}
        return {"iters": int(result.iterations)}
    return None


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, phase=None):
        self.phase = phase
        self.spans = []      # [qualname, parent, start, end, phase, info]
        self.calls = []      # [kind, parent span, phase]
        self.processes = []  # traces of child processes
        self._stack = []
        self._replaced = []  # (owner, attribute, original)

    @property
    def installed(self):
        return bool(self._replaced)

    # ------------------------------------------------------------ wrapping
    def _span_wrapper(self, fn, qualname):
        spans, stack = self.spans, self._stack
        is_systole = qualname == "operators.systole"
        is_write = qualname == "fileio.atomic_write_text"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [qualname, stack[-1] if stack else -1, 0.0, 0.0,
                      self.phase, None]
            if is_systole:
                mesh = args[0] if args else kwargs["mesh"]
                cache = getattr(mesh, "_cache", {})
                record[5] = {"computed": "systole" not in cache,
                             "mesh": _mesh_key(mesh)}
            elif is_write:
                text = args[1] if len(args) > 1 else kwargs["text"]
                record[5] = {"bytes": len(text.encode())}
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            info = _span_info(qualname, result)
            if info is not None:
                record[5] = info
            return result

        return wrapper

    def _call_wrapper(self, fn, kind):
        calls, stack = self.calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append([kind, stack[-1] if stack else -1, self.phase])
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attribute, wrapper):
        self._replaced.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self):
        """Wrap the layers' public functions and SciPy's solver entries."""
        if self.installed:
            return
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"todalab.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._span_wrapper(
                        obj, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if (not attr.startswith("_")
                                and inspect.isfunction(member)):
                            self._replace(obj, attr, self._span_wrapper(
                                member, f"{layer}.{name}.{attr}"))
        for module_name, module in list(sys.modules.items()):
            if module_name != "todalab" and not module_name.startswith(
                    "todalab."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._replace(module, name, entry[1])
        for module_name, name, kind in SCIPY_CALLS:
            module = importlib.import_module(module_name)
            self._replace(module, name,
                          self._call_wrapper(getattr(module, name), kind))

    def uninstall(self):
        """Restore every binding `install` replaced."""
        while self._replaced:
            owner, attribute, original = self._replaced.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- output
    def trace(self, startup=0.0):
        """This process's spans as a JSON-ready dict."""
        return {"phase": self.phase, "startup": startup,
                "spans": self.spans, "calls": self.calls}

    def write_all(self, path):
        with open(path, "w") as handle:
            json.dump([self.trace()] + self.processes, handle,
                      separators=(",", ":"))


def _bit_masks():
    """Bits of the span groups and the layers, by qualified span name."""
    groups = list(TIME_GROUPS.items()) + list(COUNT_GROUPS.items())
    bits = {name: 1 << i for i, (name, _) in enumerate(groups)}
    members = {}
    for name, quals in groups:
        for qual in quals:
            members[qual] = members.get(qual, 0) | bits[name]
    top = len(groups)
    members["coupled.solve_coupled"] = members.get(
        "coupled.solve_coupled", 0) | (1 << top)
    layer_bit = {layer: 1 << (top + 1 + i) for i, layer in enumerate(LAYERS)}
    return bits, members, layer_bit, 1 << top


def _process_totals(trace, totals, bits, members, layer_bit, coupled_bit):
    """Add one process's spans to the per-phase totals."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    enclosing = [0] * len(spans)  # groups and layers of enclosing spans
    own = []
    for i, (qual, parent, start, end, _, _) in enumerate(spans):
        own.append(members.get(qual, 0) | layer_bit[qual.split(".", 1)[0]])
        if parent >= 0:
            child[parent] += end - start
            enclosing[i] = enclosing[parent] | own[parent]
    group_mask = coupled_bit - 1
    group_names = {}  # bit mask -> names of the groups it holds
    systole_meshes = {phase: set() for phase in PHASES}
    for i, (qual, _, start, end, phase, info) in enumerate(spans):
        if phase not in totals:
            continue
        out = totals[phase]
        duration = end - start
        layer = qual.split(".", 1)[0]
        outermost = own[i] & ~enclosing[i]
        if outermost & layer_bit[layer]:
            out[f"{layer}.time_s"] += duration
        out[f"{layer}.self_s"] += duration - child[i]
        mask = outermost & group_mask
        if mask:
            if mask not in group_names:
                group_names[mask] = [n for n, b in bits.items() if mask & b]
            for name in group_names[mask]:
                out[name] += duration if name.endswith("_s") else 1
        if qual == "coupled.solve_coupled":
            out["coupled.solve_self_s"] += duration - child[i]
        elif enclosing[i] & coupled_bit:
            for name, quals in SOLVES_UNDER_COUPLED.items():
                if qual in quals:
                    out[name] += 1
        if info:
            for name, source in ITERATION_SUMS.items():
                if source == qual:
                    out[name] += info.get("iters", 0)
            out["fileio.bytes_written"] += info.get("bytes", 0)
            if info.get("computed"):
                out["systole_computations"] += 1
                systole_meshes[phase].add(info["mesh"])
    for phase in PHASES:
        totals[phase]["systole_meshes"] += len(systole_meshes[phase])
    for kind, parent, phase in trace["calls"]:
        if phase not in totals or parent < 0:
            continue
        layer = spans[parent][0].split(".", 1)[0]
        for name, (want_layer, want_kind) in CALL_COUNTS.items():
            if layer == want_layer and kind == want_kind:
                totals[phase][name] += 1
    if trace["startup"] and trace["phase"] in totals:
        totals[trace["phase"]]["cli.startup_s"] += trace["startup"]
        totals[trace["phase"]]["cli.processes"] += 1


def summarize(traces, setups, rounds, overhead):
    """Per-layer metrics: totals per set-up plus totals per timed round."""
    masks = _bit_masks()
    names = [name for name, _ in PER_LAYER] + ["systole_computations",
                                               "systole_meshes"]
    totals = {phase: dict.fromkeys(names, 0) for phase in PHASES}
    for trace in traces:
        _process_totals(trace, totals, *masks)
    value = {name: totals["setup"][name] / setups
             + totals["round"][name] / rounds for name in names}

    def ratio(num, den):
        return value[num] / value[den] if value[den] else 0.0

    value["operators.systole_per_mesh"] = ratio("systole_computations",
                                                "systole_meshes")
    for name in SOLVES_UNDER_COUPLED:
        value[name] = ratio(name, "coupled.solve_calls")
    value["bench.trace_overhead_s"] = overhead
    return {name: {"value": value[name], "unit": unit}
            for name, unit in PER_LAYER}
