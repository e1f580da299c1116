#!/usr/bin/env python3
"""Regenerate the measured tables of EXPERIMENTS.md from bench_output.txt.

Parses Criterion's textual output ("group/function/param" followed by a
"time: [lo mid hi]" line) and rewrites everything below the
'<!-- measured tables below are generated -->' marker in EXPERIMENTS.md.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(path: Path):
    """-> {(group, func, param): mid-time-string}"""
    out = {}
    lines = path.read_text().splitlines()
    current = None
    for line in lines:
        m = re.match(r"^([a-z0-9_]+)/([^/\s]+)(?:/(\S+))?\s*$", line.strip())
        if m and not line.startswith("Benchmarking"):
            g, f, p = m.group(1), m.group(2), m.group(3)
            if p is None:
                f, p = None, f
            current = (g, f, p)
            continue
        t = re.search(r"time:\s+\[\S+ \S+ (\S+ \S+) \S+ \S+\]", line)
        if t and current:
            out[current] = t.group(1)
            current = None
    return out


def parse_simple(path: Path):
    """More robust: scan pairs of id-line then time-line."""
    out = {}
    text = path.read_text()
    # ids may wrap onto the time line in criterion output; normalise
    for m in re.finditer(
        r"^([a-z0-9_]+)/(\S+?)\s*\n?\s*time:\s+\[\S+\s+\S+\s+(\S+)\s+(\S+)\s+\S+\s+\S+\]",
        text,
        re.M,
    ):
        group, rest, mid_v, mid_u = m.group(1), m.group(2), m.group(3), m.group(4)
        parts = rest.split("/")
        # last component is the parameter; anything before it is the
        # function id (which may itself contain slashes, e.g. temporal/4)
        key = (group, "/".join(parts[:-1]) or None, parts[-1])
        out[key] = f"{mid_v} {mid_u}"
    return out


def table(data, group, funcs, params, header, param_label):
    rows = [f"| {param_label} | " + " | ".join(h for _, h in funcs) + " |"]
    rows.append("|" + "---:|" * (len(funcs) + 1))
    for p in params:
        cells = [data.get((group, f, str(p)), "—") for f, _ in funcs]
        rows.append(f"| {p} | " + " | ".join(cells) + " |")
    return f"### {header}\n\n" + "\n".join(rows) + "\n"


def main():
    bench = ROOT / "bench_output.txt"
    data = parse_simple(bench)
    if not data:
        sys.exit("no measurements found in bench_output.txt")

    sections = []
    sections.append(table(
        data, "x1_strategies",
        [("replay_materialized", "replay (materialised)"),
         ("replay_views", "replay (views)"),
         ("temporal_rewrite", "temporal rewrite"),
         ("grouped_single_pass", "grouped single pass")],
        [8, 24, 48],
        "X1 — strategy comparison (median per full inference; workflow length n)",
        "n calls"))

    x2_params = sorted({int(p) for (g, f, p) in data if g == "x2_inference_vs_doc_size"})
    sections.append(table(
        data, "x2_inference_vs_doc_size",
        [("indexed", "inference (indexed)"), ("scan", "inference (scan)")],
        x2_params,
        "X2a — full inference vs document size (resources in d_n)",
        "resources"))
    x2b = sorted({int(p) for (g, f, p) in data if g == "x2_pattern_eval_vs_doc_size"})
    sections.append(table(
        data, "x2_pattern_eval_vs_doc_size",
        [(None, "single pattern evaluation")],
        x2b,
        "X2b — bare pattern evaluation vs document size (leaves)",
        "leaves"))

    sections.append(table(
        data, "x3_eager_vs_posthoc",
        [("execute_plain", "execute plain"),
         ("execute_eager", "execute eager"),
         ("execute_then_posthoc", "execute + posthoc")],
        [8, 32],
        "X3 — eager (intrusive) vs posthoc (non-invasive), total cost",
        "n calls"))

    sections.append(table(
        data, "x4_inheritance",
        [("off", "off"), ("pattern_rewrite", "pattern rewrite"),
         ("graph_propagation", "graph propagation")],
        [2, 8, 24],
        "X4 — inherited provenance, by corpus size (native docs)",
        "corpus"))

    x5_params = sorted({int(p) for (g, f, p) in data if g == "x5_export"})
    rows = ["| links | export | one-hop lookup | two-hop chain |", "|---:|---:|---:|---:|"]
    for p in x5_params:
        rows.append(
            f"| {p} | " + " | ".join([
                data.get(("x5_export", None, str(p)), "—"),
                data.get(("x5_sparql", "one_hop_lookup", str(p)), "—"),
                data.get(("x5_sparql", "two_hop_chain", str(p)), "—"),
            ]) + " |")
    sections.append("### X5 — PROV-O export + SPARQL\n\n" + "\n".join(rows) + "\n")

    sections.append(table(
        data, "x6_xml_diff",
        [("general_structural_diff", "general structural diff"),
         ("in_arena_marks", "in-arena marks")],
        [100, 1000, 5000],
        "X6 — Recorder XML diff (document with `leaves` items, +10% appended)",
        "leaves"))

    sections.append(table(
        data, "x7_xquery_optimisation",
        [("unfused_lazy", "unfused lazy"), ("unfused_eager", "unfused eager"),
         ("fused_lazy", "fused lazy"), ("fused_eager", "fused eager")],
        [8, 32, 128],
        "X7 — compiled-XQuery ablation (TextMediaUnit count)",
        "units"))

    sections.append(table(
        data, "x8_incremental",
        [("full_rematerialisation", "full rematerialisation"),
         ("last_call_delta", "last-call delta")],
        [8, 32, 96],
        "X8 — incremental vs full materialisation (history length)",
        "n calls"))

    x9_params = sorted({int(p) for (g, f, p) in data if g == "x9_storage"})
    sections.append(table(
        data, "x9_storage",
        [("build_index", "build index"),
         ("deps_edge_list", "deps (edge list)"),
         ("deps_index", "deps (index)")],
        x9_params,
        "X9 — provenance storage: reachability index vs edge list (by link count)",
        "links"))

    sections.append(table(
        data, "x10_threads",
        [("grouped_sequential", "grouped (seq)"),
         ("percall_uncached", "per-call uncached"),
         ("temporal/1", "temporal ×1"),
         ("temporal/2", "temporal ×2"),
         ("temporal/4", "temporal ×4"),
         ("temporal/8", "temporal ×8"),
         ("temporal/auto", "temporal auto")],
        [48],
        "X10 — executor thread sweep + pattern-cache ablation (48-call workload)",
        "n calls"))

    exp = ROOT / "EXPERIMENTS.md"
    text = exp.read_text()
    marker = "<!-- measured tables below are generated by scripts/fill_experiments.py -->"
    head = text.split(marker)[0]
    exp.write_text(head + marker + "\n\n" + "\n".join(sections))
    print(f"wrote {len(sections)} measured tables ({len(data)} data points)")


if __name__ == "__main__":
    main()
