"""Outside-in tracing of catsl2's layer boundaries, and cache visibility.

The tracer wraps the public functions of each layer without editing the
program: a module-level function is replaced at every ``catsl2`` module
binding that refers to it (so internal calls through imported names are
seen too), and a method is replaced on its class, under every alias in
the class dict (``__rmul__ = __mul__``).  Each wrapper records one span
per call.  A span's self time is its duration minus the durations of the
spans it directly encloses.  Calls and self time are aggregated in memory
per metric name and read out when the run ends.

Targets that do not exist are skipped, so a later change that removes or
renames a function costs a zero count, not a crash.
"""

from __future__ import annotations

import functools
import sys
import time


def _terms_out(result):
    terms = getattr(result, "terms", None)
    return len(terms) if terms is not None else 0


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _map_and_vec(args, kwargs):
    vec = args[1] if len(args) > 1 else kwargs.get("vec")
    return args[0], tuple(vec)


# (metric prefix, module, attribute path, options).  Options:
#   terms_out -- sum of len(result.terms) over calls,
#   key       -- argument key whose distinct values give distinct_ratio,
#   errors    -- count calls that raise or return a non-zero exit code.
TARGETS = (
    ("exactpoly.mul", "exactpoly", "Polynomial.__mul__", {"terms_out": True}),
    ("exactpoly.add", "exactpoly", "Polynomial.__add__", {}),
    ("exactpoly.substitute", "exactpoly", "Polynomial.substitute", {}),
    ("grassrings.special_class", "grassrings", "special_class", {}),
    ("grassrings.bubble_value", "grassrings", "bubble_value", {}),
    ("grassrings.check_series_identity", "grassrings", "check_series_identity", {}),
    ("bimodules.normalize", "bimodules", "normalize",
     {"terms_out": True, "key": _first_arg}),
    ("bimodules.RawTensor", "bimodules", "RawTensor.__init__", {}),
    ("bimodules.inject_at_junction", "bimodules", "inject_at_junction", {}),
    ("bimodules.act", "bimodules", "act", {}),
    ("bimodules.graded_rank", "bimodules", "graded_rank", {}),
    ("twomorphisms.apply_vec", "twomorphisms", "BimMap.apply_vec",
     {"key": _map_and_vec}),
    ("twomorphisms.map_equals", "twomorphisms", "map_equals", {}),
    ("twomorphisms.compose_vertical", "twomorphisms", "compose_vertical", {}),
    ("diagramlang.parse_diagram", "diagramlang", "parse_diagram", {}),
    ("diagramlang.compile_diagram", "diagramlang", "compile_diagram", {}),
    ("diagramlang.parse_element", "diagramlang", "parse_element", {}),
    ("qlaurent.add", "qlaurent", "Laurent.__add__", {}),
    ("cli.main", "cli", "main", {"errors": True}),
)


class _Stat:
    __slots__ = ("calls", "self_s", "terms_out", "errors", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.terms_out = 0
        self.errors = 0
        self.keys = set()


def package_modules():
    """The loaded ``catsl2`` modules, by short name ("catsl2" for the package)."""
    return {name.rpartition(".")[2]: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "catsl2" or name.startswith("catsl2."))}


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._children = [0.0]       # per open span: time spent in child spans
        self._undo = []              # (owner, attribute, original)

    def _wrap(self, name, fn, terms_out=False, key=None, errors=False):
        stat = self.stats.setdefault(name, _Stat())
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                stat.keys.add(key(args, kwargs))
            children.append(0.0)
            started = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = errors and result not in (0, None)
            finally:
                elapsed = clock() - started
                stat.calls += 1
                stat.self_s += elapsed - children.pop()
                children[-1] += elapsed
                if failed and errors:
                    stat.errors += 1
            if terms_out:
                stat.terms_out += _terms_out(result)
            return result

        return wrapper

    def install(self):
        modules = package_modules()
        for name, modname, attr, options in TARGETS:
            module = modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                continue
            if owner_name:
                original = vars(owner).get(member)
                wrapper = self._wrap(name, original, **options)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, alias, value))
                        setattr(owner, alias, wrapper)
            else:
                wrapper = self._wrap(name, original, **options)
                for mod in modules.values():
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, alias, value))
                            setattr(mod, alias, wrapper)

    def uninstall(self):
        for owner, alias, value in reversed(self._undo):
            setattr(owner, alias, value)
        self._undo.clear()

    def metrics(self) -> dict:
        """Flat {metric name: value} for every target; 0 where none was found."""
        out = {}
        for name, modname, attr, options in TARGETS:
            stat = self.stats.get(name, _Stat())
            out[name + ".calls"] = stat.calls
            out[name + ".self_s"] = stat.self_s
            if options.get("terms_out"):
                out[name + ".terms_out"] = stat.terms_out
            if options.get("key"):
                out[name + ".distinct_ratio"] = (len(stat.keys) / stat.calls
                                                 if stat.calls else 0.0)
            if options.get("errors"):
                out[name + ".errors"] = stat.errors
        return out


def _mono_table(exactpoly):
    return getattr(exactpoly, "_MONO_MUL_CACHE", None)


def _pow_table(exactpoly):
    defaults = getattr(getattr(exactpoly, "_cached_pow", None), "__defaults__", None)
    return next((d for d in defaults or () if isinstance(d, dict)), None)


# Capped module-level dicts in exactpoly: (metric prefix, cap, lookup).  The
# caps are literals inside exactpoly; a table at its cap silently stops
# caching.
CAPPED_DICTS = (("exactpoly.mono_cache", 1 << 18, _mono_table),
                ("exactpoly.pow_cache", 1 << 14, _pow_table))


def cache_stats() -> dict:
    """Every lru_cache table in catsl2 (found by introspection) and the
    capped dicts of exactpoly.  Absent tables are simply not listed."""
    out = {}
    modules = package_modules()
    for short, mod in modules.items():
        for attr, value in sorted(vars(mod).items()):
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == mod.__name__:
                ci = info()
                lookups = ci.hits + ci.misses
                out["%s.cache.%s" % (short, attr)] = {
                    "hits": ci.hits, "misses": ci.misses, "entries": ci.currsize,
                    "hit_ratio": ci.hits / lookups if lookups else 0.0}
    exactpoly = modules.get("exactpoly")
    for prefix, cap, lookup in CAPPED_DICTS:
        table = lookup(exactpoly) if exactpoly is not None else None
        if isinstance(table, dict):
            out[prefix] = {"entries": len(table), "cap": cap,
                           "at_cap": int(len(table) >= cap)}
    return out
