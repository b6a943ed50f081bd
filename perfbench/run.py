"""pmcut benchmark: one workload, one seed, one run; the last stdout line is JSON.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from spans recorded around every call the
benchmark makes into pmcut.  See perfbench/README.md for the workloads and
the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(SRC))
try:
    import pmcut
    import tracing
    from hostspeed import REFERENCE_S, HostSpeed, scaled
    import workloads as wl
except ImportError as exc:
    IMPORT_ERROR: ImportError | None = exc
else:
    IMPORT_ERROR = None

# Per-layer metrics: name -> (unit, span names, span field summed or None for self time).
PER_LAYER = {
    "gadgets.build_s": ("s", ("gadgets.build_variable_gadget", "gadgets.build_clause_gadget",
                              "gadgets.build_crossing_gadget"), None),
    "gadgets.census_s": ("s", ("gadgets.enumerate_local_pmcs",), None),
    "gadgets.census_elements": ("count", ("gadgets.enumerate_local_pmcs",), "elements"),
    "formula.generate_s": ("s", ("formula.random_e4_formula", "formula.ag23_formula",
                                 "formula.canonical_n3_formula", "formula.serialize_formula"), None),
    "formula.parse_s": ("s", ("formula.parse_formula",), None),
    "formula.nae_bruteforce_s": ("s", ("formula.solve_nae_bruteforce", "formula.nae_satisfies"), None),
    "reduction.build_h_s": ("s", ("reduction.build_h",), None),
    "reduction.layout_s": ("s", ("reduction.layout",), None),
    "reduction.planarize_s": ("s", ("reduction.planarize",), None),
    "reduction.provenance_s": ("s", ("reduction.serialize_provenance",), None),
    "reduction.vertices": ("count", ("reduction.reduce_formula",), "vertices"),
    "reduction.edges": ("count", ("reduction.reduce_formula",), "edges"),
    "reduction.crossings": ("count", ("reduction.reduce_formula",), "crossings"),
    "graphs.serialize_s": ("s", ("graphs.serialize_graph",), None),
    "graphs.parse_s": ("s", ("graphs.parse_graph",), None),
    "graphs.file_bytes": ("bytes", ("graphs.serialize_graph",), "bytes"),
    "graphs.cubic_s": ("s", ("graphs.is_cubic",), None),
    "graphs.bipartite_s": ("s", ("graphs.is_bipartite",), None),
    "graphs.euler_s": ("s", ("graphs.is_planar_embedding",), None),
    "graphs.three_conn_s": ("s", ("graphs.is_3_connected",), None),
    "graphs.three_conn_refused": ("count", ("graphs.is_3_connected",), "refused"),
    "graphs.cut_check_s": ("s", ("graphs.is_perfect_matching", "graphs.cut_from_edge_set"), None),
    "solver.find_s": ("s", ("solver.find_pmc",), None),
    "solver.nodes": ("count", ("solver.find_pmc",), "nodes"),
    "solver.decode_s": ("s", ("solver.assignment_from_pmc",), None),
    "solver.encode_s": ("s", ("solver.pmc_from_assignment",), None),
    "solver.lemma_s": ("s", ("solver.lemma_oracles",), None),
    "render.svg_s": ("s", ("render.render_svg",), None),
    "render.dot_s": ("s", ("render.render_dot",), None),
    "render.bytes": ("bytes", ("render.render_svg", "render.render_dot"), "bytes"),
}


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256((t or "").encode()).digest())
    return h.hexdigest()[:16]


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


@dataclass
class Setup:
    ladders: list[list]
    census: tuple[int, ...]
    canonical: object
    canonical_text: str
    texts: dict = field(default_factory=dict)

    def items(self, i: int) -> list[tuple]:
        """((ladder, position), formula, formula file text) for each operation of ladder i."""
        return [((i, k), f, self.texts[(i, k)]) for k, f in enumerate(self.ladders[i])]

    @property
    def inputs_digest(self) -> str:
        return _digest(self.texts[key] for key in sorted(self.texts))


def setup(api, workload: str, seed: int) -> Setup:
    """Generate the inputs and build the gadgets with their censuses."""
    ladders = wl.make_inputs(api, workload, seed)
    texts = {(i, k): api.formula.serialize_formula(f)
             for i, ladder in enumerate(ladders) for k, f in enumerate(ladder)}
    sizes = wl.census(api)
    canon = api.formula.canonical_n3_formula()
    return Setup(ladders, sizes, canon, api.formula.serialize_formula(canon), texts)


def warm_up(api, st: Setup):
    """Every step of every workload once on the canonical instance: a self-test
    that also fills pmcut's lazily built tables before anything is timed."""
    return wl.run_op(api, "warmup", st.canonical, st.canonical_text)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    kinds: dict = field(default_factory=dict)
    examples: list = field(default_factory=list)
    first_digests: dict = field(default_factory=dict)

    def record(self, key: tuple, res, graph_text: str | None) -> None:
        digest = _digest([graph_text]) if graph_text is not None else None
        if key not in self.first_digests:
            self.first_digests[key] = digest
        elif self.first_digests[key] != digest:
            res.fail("wrong", "graph file differs from the first pass")
        self.attempted += 1
        if res.failures:
            self.failed += 1
        for kind, detail in res.failures:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            if len(self.examples) < 8:
                self.examples.append(f"op {key} {kind}: {detail}")


@dataclass
class PassStats:
    busy_s: float
    ok_clauses: int
    vertices: int
    crossings: int
    traced: bool
    samples: int = 0
    sample_s: float = 0.0

    def scaled_s(self, fallback_sample_s: float) -> float:
        """busy_s at the reference host speed (see hostspeed.py)."""
        return scaled(self.busy_s, self.samples, self.sample_s, fallback_sample_s)


def run_pass(api, plain, workload: str, items: list, tally: Tally,
             tracer=None, tag: str = "", speed: HostSpeed | None = None) -> PassStats:
    """One ladder.  Only the operations are timed; fingerprints are not.  With
    ``speed``, its sampling time is taken out of the operations it interrupted."""
    busy = 0.0
    ok_m = vertices = crossings = 0
    pass_mark = speed.mark() if speed else None
    for key, f, text in items:
        if tracer is not None:
            tracer.op = f"{tag}.{key[0]}.{key[1]}"
        mark = speed.mark() if speed else None
        t0 = time.perf_counter()
        res = wl.run_op(api, workload, f, text)
        busy += time.perf_counter() - t0
        if speed:
            busy -= speed.since(mark)[1]
        art = res.artifact
        graph_text = res.graph_text
        if graph_text is None and art is not None:
            graph_text = plain.graphs.serialize_graph(art.graph, art.embedding)
        tally.record(key, res, graph_text)
        if art is not None:
            vertices += art.graph.n
            crossings += art.q
        if not res.failures:
            ok_m += res.m
    samples, sample_s = speed.since(pass_mark) if speed else (0, 0.0)
    return PassStats(busy, ok_m, vertices, crossings, tracer is not None, samples, sample_s)


def repeat(seconds: float, run_one, round_len: int) -> list[PassStats]:
    """Whole rounds of ``round_len`` passes until the next round would likely
    end after ``seconds``; always at least one round."""
    passes: list[PassStats] = []
    start = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        if len(passes) % round_len:
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (1 + round_len / len(passes)) > seconds:
            return passes


class ProbeFailed(RuntimeError):
    pass


@dataclass
class Probe:
    elapsed_s: float
    samples: int
    sample_s: float
    digests: str

    def scaled_s(self, fallback_sample_s: float) -> float:
        """elapsed_s less the probe's own sampling, at the reference host speed."""
        return scaled(self.elapsed_s - self.sample_s, self.samples, self.sample_s,
                      fallback_sample_s)


def _probe_setup(workload: str, seed: int) -> Probe:
    """A fresh interpreter's time to set up and exit, its host-speed samples and
    its fingerprints."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ProbeFailed(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
    elapsed = time.perf_counter() - t0
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 5 or words[0] != "ready":
        raise ProbeFailed(f"set-up probe exited {proc.returncode}")
    return Probe(elapsed, int(words[3]), float(words[4]), " ".join(words[1:3]))


MISSING = "missing"


def _layer_value(spans: list, names: tuple, key: str | None):
    """Self seconds or summed count over the spans named; None when no span is
    named, MISSING when a count could not be read."""
    hit = [s for s in spans if s.name in names]
    if not hit:
        return None
    if key is None:
        return sum(s.self_s for s in hit)
    vals = [s.info.get(key, 0) for s in hit]
    return MISSING if None in vals else sum(vals)


def per_layer_metrics(tracer, passes: list[PassStats]) -> tuple[dict, dict]:
    """Median over traced passes; a metric whose functions the passes never call
    is read from the warm-up operation, then from set-up."""
    groups: dict[str, list] = {}
    for s in tracer.spans:
        groups.setdefault(s.op.split(".")[0], []).append(s)
    traced_nos = [j for j, p in enumerate(passes) if p.traced]
    sources = [("pass", [groups.get(f"p{j}", []) for j in traced_nos]),
               ("warmup", [groups.get("warmup", [])]),
               ("setup", [groups.get("setup", [])])]
    metrics, detail = {}, {}

    def put(name, unit, source, values):
        stats = _quartiles(values)
        metrics[name] = {"value": stats["median"], "unit": unit}
        detail[name] = {"source": source, **stats}

    missing = []
    for name, (unit, names, key) in PER_LAYER.items():
        for source, samples in sources:
            values = [_layer_value(sp, names, key) for sp in samples]
            if None in values:
                continue
            if MISSING in values:
                missing.append(name)
            else:
                put(name, unit, source, values)
            break
    if "solver.nodes" in metrics:
        source = detail["solver.nodes"]["source"]
        samples = dict(sources)[source]
        rates = []
        for sp in samples:
            nodes = _layer_value(sp, ("solver.find_pmc",), "nodes")
            if nodes:
                rates.append(_layer_value(sp, ("solver.find_pmc",), None) / nodes * 1e6)
        if rates:
            put("solver.us_per_node", "us", source, rates)
    elif "solver.nodes" in missing:
        missing.append("solver.us_per_node")
    traced = [p.busy_s for p in passes if p.traced]
    plain = [p.busy_s for p in passes if not p.traced]
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    detail["trace.overhead_frac"] = {"traced_busy_s": _quartiles(traced),
                                     "untraced_busy_s": _quartiles(plain)}
    if missing:
        detail["missing"] = missing
    return metrics, detail


def _pooled_sample_s(parts) -> float:
    return sum(p.sample_s for p in parts) / max(1, sum(p.samples for p in parts))


def end_to_end_metrics(probes: list[Probe], passes: list[PassStats],
                       first_round: list[PassStats], tally: Tally, report: dict) -> dict:
    busy = sum(p.busy_s for p in passes)
    pass_pool = _pooled_sample_s(passes)
    busy_scaled = [p.scaled_s(pass_pool) for p in passes]
    ok_m = sum(p.ok_clauses for p in passes)
    setup_s = [p.scaled_s(_pooled_sample_s(probes) or pass_pool) for p in probes]
    report["setup_s"] = _quartiles(setup_s)
    report["setup_wall_s"] = _quartiles([p.elapsed_s for p in probes])
    report["wall_clauses_per_s"] = ok_m / busy
    report["host_slowdown"] = _quartiles([p.sample_s / p.samples / REFERENCE_S
                                          for p in passes if p.samples])
    report["ladder_clauses_per_s"] = _quartiles([p.ok_clauses / s
                                                 for p, s in zip(passes, busy_scaled)])
    report["ladder_busy_s"] = [p.busy_s for p in passes]
    report["ladder_scaled_s"] = busy_scaled
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "clauses_per_s": {"value": ok_m / sum(busy_scaled), "unit": "clauses/s"},
        "ok_frac": {"value": 1 - tally.failed / tally.attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
        "total_vertices": {"value": sum(p.vertices for p in first_round), "unit": "count"},
        "total_crossings": {"value": sum(p.crossings for p in first_round), "unit": "count"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("compile", "refute", "roundtrip"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if IMPORT_ERROR is not None:
        print(f"error: cannot import pmcut from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(pmcut.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: pmcut was imported from {pmcut.__file__}, not {SRC}", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    plain = tracing.plain_api()

    if args.setup_probe:
        with HostSpeed() as speed:
            st = setup(plain, args.workload, seed)
            res = warm_up(plain, st)
        if res.failures:
            print(f"error: warm-up failed: {res.failures}", file=sys.stderr)
            return 3
        print(f"ready {st.inputs_digest} {_digest([res.graph_text])} "
              f"{speed.count} {speed.sample_s!r}", flush=True)
        return 0

    try:
        return run(args, seed, plain)
    except ProbeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run(args, seed: int, plain) -> int:
    # Half the set-up probes run before the timed passes and half after, so
    # that their median spans the run rather than one moment of it.
    probe_counts = (0, 0) if args.trace else (SETUP_PROBES - SETUP_PROBES // 2,
                                              SETUP_PROBES // 2)
    probes = [_probe_setup(args.workload, seed) for _ in range(probe_counts[0])]

    tracer = tracing.Tracer() if args.trace else None
    api = tracer.api() if tracer else plain
    st = setup(api, args.workload, seed)
    if tracer:
        tracer.op = "warmup"
        with tracer.internals():
            warm = warm_up(api, st)
    else:
        warm = warm_up(api, st)
    problems = [f"warm-up {kind}: {detail}" for kind, detail in warm.failures]
    if st.census != wl.CENSUS_SIZES:
        problems.append(f"gadget census sizes {st.census}, expected {wl.CENSUS_SIZES}")

    tally = Tally()
    if tracer:
        # Untraced and traced passes over the first ladder, alternating.
        items = st.items(0)

        def one(j: int) -> PassStats:
            if j % 2 == 0:
                return run_pass(plain, plain, args.workload, items, tally)
            with tracer.internals():
                return run_pass(api, plain, args.workload, items, tally, tracer, f"p{j}")

        passes = repeat(args.seconds, one, 2)
    else:
        ladders = len(st.ladders)
        with HostSpeed() as speed:
            passes = repeat(args.seconds, lambda j: run_pass(
                plain, plain, args.workload, st.items(j % ladders), tally,
                speed=speed), ladders)

    probes += [_probe_setup(args.workload, seed) for _ in range(probe_counts[1])]
    warmup_digest = _digest([warm.graph_text])
    for probe in probes:
        if probe.digests != f"{st.inputs_digest} {warmup_digest}":
            problems.append(f"set-up probe fingerprints {probe.digests} differ "
                            "from this process")
    wrong = sum(v for k, v in tally.kinds.items() if k not in wl.REPORTED_FAILURES)
    if wrong:
        problems.append(f"{wrong} wrong answers or crashes")
    report = {
        "workload": args.workload, "seed": seed, "seed_default": wl.DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "ladders": len(st.ladders),
        "ladder_passes": len(passes), "inputs_digest": st.inputs_digest,
        "graphs_digest": _digest(tally.first_digests[k] for k in sorted(tally.first_digests)),
        "warmup_digest": warmup_digest, "census_sizes": st.census,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted, "failures_by_kind": tally.kinds,
        "failure_examples": tally.examples, "problems": problems,
    }
    if tracer:
        metrics, report["per_layer"] = per_layer_metrics(tracer, passes)
        if "solver.nodes" in report["per_layer"].get("missing", ()):
            print("note: solver.nodes is missing: find_pmc's search object has no readable "
                  "node counter", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(probes, passes, passes[:len(st.ladders)],
                                     tally, report)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**report, "metrics": metrics}, indent=1) + "\n")
    if tracer:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for sid, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.to_json(sid)) + "\n")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: v for k, v in report.items() if k != "per_layer"}))
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
