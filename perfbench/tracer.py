"""Outside-in tracing of decompgen's layers.

The tracer replaces public functions of the engine's modules with wrappers
for the length of a traced run and puts the originals back afterwards.  It
edits no engine code.  A wrapped name is replaced in every decompgen module
that holds a reference to it (`is_split` lives in `modules` and is also
imported by `decomposition`, `cli` and `strata`), so internal calls are seen
as well as calls from the CLI.

Two kinds of wrapper:

* timed wrappers record a span (name, start, end, parent, job) for every
  call.  Spans stay in memory and are written out by `write_spans` after
  the run.
* counting wrappers only count calls.  They sit on the field arithmetic and
  the polynomial kernels, which run millions of times per job; timing them
  would distort the run they measure.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed with a span per call.
TIMED = [
    ("modules", "is_split"), ("modules", "chop"), ("modules", "radical"),
    ("modules", "hom_dim"),
    ("linalg", "char_poly"), ("linalg", "det"), ("linalg", "rref_rows"),
    ("linalg", "gcd_free_basis"), ("linalg", "hermite_normal_form"),
    ("strata", "stratify"), ("strata", "dec_ex"),
    ("strata", "candidate_discriminant"), ("strata", "minimal_primes"),
    ("factor", "factor_univariate"), ("factor", "factor_integer"),
    ("decomposition", "decomposition_matrix"), ("decomposition", "split_data"),
    ("decomposition", "fiber_split_data"),
    ("fingerprints", "fingerprint_of_simple"), ("fingerprints", "reduce_fingerprint"),
    ("algebra", "load_algebra"), ("algebra", "specialize"), ("algebra", "restrict"),
    ("primes", "parse_prime"), ("primes", "prime_spec"),
    ("rings", "is_prime_int"),
    ("cli", "main"), ("cli", "cmd_verify_all"),
]

# Layers that can repeat work on an identical input: their first argument is
# keyed by table content, and the number of distinct keys is reported.
DISTINCT = {"modules.is_split", "modules.radical", "modules.chop"}

FIELD_CLASSES = ("FuncField", "Rationals", "GFPrime", "GFExt")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div")
POLY_KERNELS = ("pmul", "padd", "pnorm", "udivmod")


def _table_key(obj):
    """Content key of a fiber algebra or of a module's action matrices."""
    if hasattr(obj, "action"):
        return repr((obj.fiber.field, [m.rows for m in obj.action]))
    return repr((obj.field, obj.sc, obj.unit))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job, outermost]
        self.stack = []
        self.active = defaultdict(int)
        self.job = None
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)   # (name, job) -> distinct content keys
        self._patches = []

    # --- job boundaries -------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self._open("job")

    def end_job(self):
        self._close()
        self.job = None

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job,
                           self.active[name] == 0])
        self.active[name] += 1
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        self.active[span[0]] -= 1

    # --- wrappers -------------------------------------------------------------------

    def _timed(self, name, fn):
        keyed = name in DISTINCT

        def wrapper(*args, **kwargs):
            # The key is built before the span opens: its cost is tracing
            # overhead and lands in the caller's self time.
            if keyed and self.job is not None:
                self.keys[(name, self.job)].add(_table_key(args[0]))
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_make(self, fn):
        counts = self.counts

        def make(field, num, den):
            counts["fields.FuncField.make.calls"] += 1
            if len(den) == 1 and not any(den[0][0]):
                counts["fields.FuncField.make.const_den"] += 1
            return fn(field, num, den)

        return make

    # --- installing -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced names in every loaded decompgen module."""
        import decompgen.cli  # noqa: F401  (loads every engine module)

        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "decompgen" or name.startswith("decompgen."))}
        for mod_name, fn_name in TIMED:
            orig = getattr(mods[f"decompgen.{mod_name}"], fn_name)
            wrapper = self._timed(f"{mod_name}.{fn_name}", orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, wrapper)
        fields = mods["decompgen.fields"]
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for op in FIELD_OPS:
                self._set(cls, op, self._counting(f"fields.{cls_name}.ops", getattr(cls, op)))
        self._set(fields.FuncField, "make", self._counting_make(fields.FuncField.make))
        polyops = mods["decompgen.polyops"]
        for fn_name in POLY_KERNELS:
            self._set(polyops, fn_name,
                      self._counting(f"polyops.{fn_name}.calls", getattr(polyops, fn_name)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # --- results --------------------------------------------------------------------

    def layer_metrics(self, njobs):
        """Per-job means of every per-layer metric, keyed by metric name."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        job_s = 0.0
        unattributed = 0.0
        for idx, (name, start, end, parent, _job, outermost) in enumerate(self.spans):
            dur = end - start
            own = dur - child_s[idx]
            if name == "job":
                job_s += dur
                unattributed += own
                continue
            if name == "cli.main":
                unattributed += own
            calls[name] += 1
            self_s[name] += own
            if outermost:
                incl[name] += dur
        out = {}
        for mod_name, fn_name in TIMED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = calls[name] / njobs
            out[f"{name}.s"] = incl[name] / njobs
            out[f"{name}.self_s"] = self_s[name] / njobs
            if name in DISTINCT:
                distinct = sum(len(v) for (n, _), v in self.keys.items() if n == name)
                out[f"{name}.distinct"] = distinct / njobs
                out[f"{name}.distinct_ratio"] = distinct / calls[name] if calls[name] else 0.0
        makes = self.counts["fields.FuncField.make.calls"]
        out["fields.FuncField.make.calls"] = makes / njobs
        out["fields.FuncField.make.const_den_share"] = (
            self.counts["fields.FuncField.make.const_den"] / makes if makes else 0.0)
        for cls_name in FIELD_CLASSES:
            key = f"fields.{cls_name}.ops"
            out[key] = self.counts[key] / njobs
        for fn_name in POLY_KERNELS:
            key = f"polyops.{fn_name}.calls"
            out[key] = self.counts[key] / njobs
        out["trace.job_s"] = job_s / njobs
        out["trace.attributed_share"] = 1.0 - unattributed / job_s if job_s else 0.0
        return out

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
