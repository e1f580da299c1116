#!/usr/bin/env bash
# Tier-1 gate plus lint, exactly as ROADMAP.md defines it. Run from anywhere;
# works fully offline (all dependencies are workspace-local).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> weblab --metrics smoke run (paper example pipeline)"
metrics_dir="$(mktemp -d)"
trap 'rm -rf "$metrics_dir"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
./target/release/weblab run data/sample_corpus.xml \
    Normaliser,LanguageExtractor,Translator -o "$metrics_dir/stamped.xml"
./target/release/weblab --metrics --metrics-out "$metrics_dir/metrics.json" \
    infer "$metrics_dir/stamped.xml" > /dev/null
python3 - "$metrics_dir/metrics.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

for section in ("counters", "gauges", "histograms"):
    assert section in report, f"missing section {section!r}"

counters = report["counters"]
# the pipeline above must have exercised the engine's hot paths
for key in (
    "xpath.pattern.evals",
    "prov.cache.misses",
    "prov.engine.links.emitted",
):
    assert counters.get(key, 0) > 0, f"counter {key!r} did not tick"
# conservation through the pattern cache (DESIGN.md § 7)
assert counters["prov.cache.misses"] == counters["xpath.pattern.evals"], \
    "every cache miss is exactly one pattern evaluation"
# no dangling in-flight work after a clean run
for name, value in report["gauges"].items():
    assert value == 0, f"gauge {name!r} leaked: {value}"
print(f"ci: metrics report ok ({len(counters)} counters)")
PY

echo "==> CLI golden outputs (infer, query, rank, summary and why on the stamped sample)"
# tests/golden/ holds the stdout of these commands on the stamped sample
# corpus above. Export, SPARQL and Turtle changes must not move a byte.
golden() {
    local name="$1"
    shift
    ./target/release/weblab "$@" > "$metrics_dir/$name"
    cmp "$metrics_dir/$name" "tests/golden/$name" \
        || { echo "ci: weblab $* no longer matches tests/golden/$name" >&2; exit 1; }
}
stamped="$metrics_dir/stamped.xml"
golden infer.table.txt infer "$stamped" --format table
golden infer.turtle.ttl infer "$stamped" --format turtle
golden infer.inherit.turtle.ttl infer "$stamped" --inherit --format turtle
golden infer.provxml.xml infer "$stamped" --format provxml
golden infer.dot infer "$stamped" --format dot
golden query.derived.txt query "$stamped" \
    "PREFIX prov: <http://www.w3.org/ns/prov#> SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }"
golden query.rank.txt query "$stamped" rank weblab://src/0
golden query.summary.txt query "$stamped" summary weblab://src/0
golden why.translator.txt why "$stamped" weblab://res/Translator-t3-1
echo "ci: CLI golden outputs ok"

echo "==> the CLI answers through the reachability index (one query path)"
./target/release/weblab --metrics --metrics-out "$metrics_dir/why.json" \
    why "$stamped" weblab://res/Translator-t3-1 > /dev/null
python3 - "$metrics_dir/why.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]

# `weblab why` builds one index and answers from it, as the daemon does;
# an edge-list walk would tick prov.index.traversals instead
assert counters.get("prov.index.builds", 0) == 1, counters.get("prov.index.builds")
assert counters.get("prov.index.hits", 0) >= 1, counters.get("prov.index.hits")
assert counters.get("prov.index.traversals", 0) == 0, \
    f"weblab why walked the edge list: {counters.get('prov.index.traversals')}"
print(f"ci: CLI query path ok (index hits={counters['prov.index.hits']})")
PY

echo "==> fault-tolerance smoke run (flaky service under --retries 2)"
./target/release/weblab --metrics --metrics-out "$metrics_dir/fault.json" \
    run data/sample_corpus.xml Normaliser,flaky:2,LanguageExtractor \
    --retries 2 -o "$metrics_dir/retried.xml" \
    || { echo "ci: flaky run under --retries 2 must exit 0" >&2; exit 1; }
python3 - "$metrics_dir/fault.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

counters = report["counters"]
# the two injected faults were rolled back and retried, then succeeded
assert counters.get("workflow.rollbacks", 0) >= 1, \
    f"workflow.rollbacks did not tick: {counters.get('workflow.rollbacks')}"
assert counters.get("workflow.retries", 0) >= 1, "workflow.retries did not tick"
assert counters.get("workflow.errors", 0) >= 2, "each failed attempt must count"
assert counters.get("workflow.skips", 0) == 0, "nothing was skipped in this run"
assert counters.get("workflow.service.Flaky.attempts", 0) == 3, \
    "the flaky step takes exactly three attempts"
# rolled-back attempts never reach the trace: one recorded call per step
assert counters.get("workflow.calls", 0) == 3, "exactly three calls recorded"
for name, value in report["gauges"].items():
    assert value == 0, f"gauge {name!r} leaked: {value}"
print("ci: fault-tolerance metrics ok "
      f"(rollbacks={counters['workflow.rollbacks']}, retries={counters['workflow.retries']})")
PY

echo "==> live provenance smoke run (--store, which implies --live)"
live_store="$metrics_dir/live-store"
./target/release/weblab --metrics --metrics-out "$metrics_dir/live.json" \
    run data/sample_corpus.xml Normaliser,LanguageExtractor,Translator \
    --store "$live_store" -o "$metrics_dir/live.xml"
python3 - "$metrics_dir/live.json" "$live_store" <<'PY'
import glob, json, os, sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]

# the live producer derived every committed call as a delta
assert counters.get("live.deltas", 0) >= 1, \
    f"live.deltas did not tick: {counters.get('live.deltas')}"
assert counters.get("live.links", 0) >= 1, "live run derived no links"
# O(delta) guarantee: the incremental channel map means zero full rebuilds
assert counters.get("prov.trace.channel_map.builds", 0) == 0, \
    "live run rebuilt the channel map from the whole trace"

# read the store back: the execution's one file holds its three calls,
# the snapshot's epoch and every link the live run derived, under a
# footer whose FNV-1a hash agrees with the bytes before it
shard = os.path.join(sys.argv[2], "shard-*", "sample_corpus")
[path] = glob.glob(shard + ".*")
assert path.endswith(".exec"), f"expected one execution file, found {path}"
with open(path, "rb") as f:
    data = f.read()
body, footer = data[:-1].rsplit(b"\n", 1)
body += b"\n"
h = 0xcbf29ce484222325
for b in body:
    h = ((h ^ b) * 0x100000001b3) % 2**64
assert footer == f"# end fnv={h:016x}".encode(), f"{path}: footer {footer!r}, body hashes to {h:016x}"
head = body[:body.index(b"\ndoc: ")].decode().splitlines()
# the run's epoch: the input's Source rows, then one per call — what a
# live ingest of the same three calls publishes
assert "epoch: 4" in head, f"{path}: expected epoch 4 in {head[:4]}"
calls = [l for l in head if l.startswith("call:")]
assert len(calls) == 3, f"{path}: expected three call rows, got {calls}"
n_links = sum(1 for l in head if l.startswith("link:"))
assert n_links == counters["live.links"], \
    f"{path}: {n_links} link rows, but live.links is {counters['live.links']}"
print(f"ci: live provenance ok (deltas={counters['live.deltas']}, links={n_links})")
PY

echo "==> serve over a CLI-written store (weblab run --store, then serve --store)"
./target/release/weblab serve --port 0 --workers 1 --store "$live_store" \
    > "$metrics_dir/clistore.out" 2> "$metrics_dir/clistore.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/clistore.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/clistore.out")"
[ -n "$addr" ] || { echo "ci: serve over the CLI store never printed its address" >&2; exit 1; }
# while the daemon holds the directory, a CLI run on it is refused
if ./target/release/weblab run data/sample_corpus.xml Normaliser \
    --store "$live_store" > /dev/null 2> "$metrics_dir/clistore-run.err"; then
    echo "ci: a CLI run on a store a daemon holds must fail" >&2; exit 1
fi
grep -q 'error\[store-locked\]' "$metrics_dir/clistore-run.err" \
    || { echo "ci: a CLI run on a held store must fail with store-locked" >&2;
         cat "$metrics_dir/clistore-run.err" >&2; exit 1; }
python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())

r = rpc({"op": "status"})
assert r.get("ok"), r
assert {"id": "sample_corpus", "live": True, "resident": False} in \
    r["result"]["executions"], r
r = rpc({"op": "why", "exec": "sample_corpus", "uri": "weblab://res/Translator-t3-1"})
assert r.get("ok") and r.get("epoch", 0) >= 1, r
assert len(r["result"]["links"]) >= 1, r
assert "weblab://res/Translator-t3-1" in r["result"]["resources"], r
assert rpc({"op": "shutdown"}).get("ok"), "shutdown failed"
sock.close()
print(f"ci: CLI-written store served ({len(r['result']['links'])} why link(s))")
PY
wait "$serve_pid" || { echo "ci: serve over the CLI store did not shut down cleanly" >&2; exit 1; }
serve_pid=""

echo "==> serve smoke (line-delimited JSON protocol on an ephemeral port)"
./target/release/weblab --metrics-out "$metrics_dir/serve.json" \
    serve --port 0 --workers 2 --max-rows 5 --max-batch 16 \
    --max-conns 64 --idle-timeout 60000 \
    > "$metrics_dir/serve.out" 2> "$metrics_dir/serve.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/serve.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/serve.out")"
[ -n "$addr" ] || { echo "ci: serve never printed its address" >&2; exit 1; }
python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(req):
    # a str is sent as the raw line, for requests json.dumps cannot spell
    f.write((req if isinstance(req, str) else json.dumps(req)) + "\n")
    f.flush()
    resp = json.loads(f.readline())
    # every response — success or error — carries the v2 protocol stamp
    assert resp.get("v") == 2, resp
    return resp

xml = ('<Resource wl:id="weblab://doc/ci">'
       '<NativeContent wl:id="weblab://src/0" wl:s="Source" wl:t="0">'
       'the text is in the language for peace</NativeContent></Resource>')
r = rpc({"op": "ingest", "exec": "ci", "xml": xml, "live": True,
         "pipeline": ["Normaliser", "LanguageExtractor"]})
assert r.get("ok"), r
assert r["result"]["calls"] == 2, r
assert r["result"]["links"] >= 1, r

r = rpc({"op": "why", "exec": "ci", "uri": "weblab://src/0"})
assert r.get("ok") and r.get("epoch", 0) >= 1, r
assert "weblab://src/0" in r["result"]["resources"], r

# a batch (non-live) execution: the ingest's snapshot folds the recorded
# calls into the execution's one index as a delta, published at epoch 1
r = rpc({"op": "ingest", "exec": "ci-batch", "xml": xml, "live": False,
         "pipeline": ["Normaliser", "LanguageExtractor"]})
assert r.get("ok") and r["result"]["calls"] == 2, r
r = rpc({"op": "why", "exec": "ci-batch", "uri": "weblab://src/0"})
assert r.get("ok") and r.get("epoch") == 1, r
assert "weblab://src/0" in r["result"]["resources"], r

derived = ("PREFIX prov: <http://www.w3.org/ns/prov#> "
           "SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . } LIMIT 5")
r = rpc({"op": "sparql", "exec": "ci", "query": derived})
assert r.get("ok") and len(r["result"]) >= 1, r
# the identical text again: answered from the per-epoch plan cache
r = rpc({"op": "sparql", "exec": "ci", "query": derived})
assert r.get("ok") and len(r["result"]) >= 1, r

# a full scan blows the --max-rows 5 cap with the stable result-limit code
r = rpc({"op": "sparql", "exec": "ci",
         "query": "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"})
assert r.get("ok") is False and r.get("code") == "result-limit", r

r = rpc({"op": "status"})
assert r.get("ok"), r
assert any(e["id"] == "ci" and e["live"] for e in r["result"]["executions"]), r

# batch: three sub-requests answered at one pinned epoch, responses
# byte-equivalent to serial answers
r = rpc({"op": "batch", "exec": "ci", "requests": [
    {"op": "why", "uri": "weblab://src/0"},
    {"op": "impacted-by", "uri": "weblab://src/0"},
    {"op": "sparql", "query": derived}]})
assert r.get("ok") and len(r["result"]) == 3, r
assert all(s["ok"] and s["epoch"] == r["epoch"] for s in r["result"]), \
    "torn batch: sub-responses span epochs"

# 17 sub-requests blow the --max-batch 16 cap with the stable code
r = rpc({"op": "batch", "exec": "ci",
         "requests": [{"op": "why", "uri": "weblab://src/0"}] * 17})
assert r.get("ok") is False and r.get("code") == "batch-limit", r

# v2 ranked analytics: the seed leads at score 1.000000, hop 0
r = rpc({"op": "rank", "exec": "ci", "uris": ["weblab://src/0"],
         "direction": "up", "limit": 3, "budget": 4, "decay": 0.5})
assert r.get("ok") and r.get("epoch", 0) >= 1, r
assert r["result"][0] == {"uri": "weblab://src/0", "score": "1.000000", "hop": 0}, r

r = rpc({"op": "summary", "exec": "ci", "uri": "weblab://src/0"})
assert r.get("ok"), r
assert r["result"]["resources"] >= 1 and r["result"]["services"], r
assert "blast" in r["result"], r

# six seeds produce six ranked rows, blowing the --max-rows 5 cap with
# the same stable code sparql uses
r = rpc({"op": "rank", "exec": "ci",
         "uris": [f"weblab://none/{i}" for i in range(6)]})
assert r.get("ok") is False and r.get("code") == "result-limit", r

r = rpc({"op": "nonsense"})
assert r.get("ok") is False and r.get("code") == "protocol", r

# a line near the 1 MiB --max-line default parses in linear time: it is
# answered well inside the socket's 10 s timeout (quadratic string
# scanning took 18.7 s for this line on a 2-CPU x86-64 host)
r = rpc({"op": "status", "pad": "x" * (900 * 1024)})
assert r.get("ok"), r

# an overflowing number is rejected, never echoed back as a bare `inf`
r = rpc('{"id":1e999,"op":"status"}')
assert r.get("ok") is False and r.get("code") == "protocol", r
assert "id" not in r, r

r = rpc({"op": "shutdown"})
assert r.get("ok") and r["result"]["stopping"], r
sock.close()
print("ci: serve protocol round-trip ok")
PY
wait "$serve_pid" || { echo "ci: serve did not shut down cleanly" >&2; exit 1; }
serve_pid=""
python3 - "$metrics_dir/serve.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
counters = report["counters"]

# one request per protocol line above, exactly five of them probe errors
# (the unknown op, the over-cap sparql scan, the over-cap batch, the
# over-cap rank, the overflowing id)
assert counters.get("serve.requests", 0) >= 13, counters.get("serve.requests")
assert counters.get("serve.errors", 0) == 5, counters.get("serve.errors")
assert "serve.request_ns" in report["histograms"], "request latency not recorded"
# exactly one batch dispatched (the over-cap one is rejected before the
# counters tick), carrying three sub-requests; nothing was shed
assert counters.get("serve.batch.requests", 0) == 1, counters.get("serve.batch.requests")
assert counters.get("serve.batch.subs", 0) == 3, counters.get("serve.batch.subs")
assert counters.get("serve.shed", 0) == 0, counters.get("serve.shed")
assert report["gauges"].get("serve.queue.depth", 0) == 0, "queue depth leaked"
# one reachability index per execution, built once and then extended —
# by live deltas for `ci`, by the refresh folding its calls in for
# `ci-batch` (a rebuild per batch refresh would count 3) — and every
# served query answered from it: zero edge-list traversals
assert counters.get("prov.index.builds", 0) == 2, counters.get("prov.index.builds")
assert counters.get("prov.index.traversals", 0) == 0, \
    "served queries must not re-walk the provenance edge list"
# no reader overlapped the sequential live ingest, so every delta folded
# into the published snapshot in place: a daemon that copies the snapshot
# on every call fails here
assert counters.get("platform.snapshot.copies", 0) == 0, \
    f"live deltas copied the snapshot {counters.get('platform.snapshot.copies')} times"
# the repeated sparql text was answered from the per-epoch plan cache
assert counters.get("rdf.plan.cache.hits", 0) >= 1, \
    f"plan cache never hit: {counters.get('rdf.plan.cache.hits')}"
assert counters.get("rdf.plan.builds", 0) >= 1, "no sparql plan was ever built"
# the ranked analytics probes above went through the instrumented layer
# (the ok rank, the summary, and the over-cap rank all tick it)
assert counters.get("prov.rank.queries", 0) >= 2, counters.get("prov.rank.queries")
assert "prov.rank.score_ns" in report["histograms"], "rank latency not recorded"
print("ci: serve metrics ok "
      f"(requests={counters['serve.requests']}, builds={counters['prov.index.builds']}, "
      f"plan_cache_hits={counters['rdf.plan.cache.hits']}, "
      f"rank_queries={counters['prov.rank.queries']})")
PY

echo "==> serve load-smoke (pipelined batches against a 2-worker server)"
./target/release/weblab --metrics-out "$metrics_dir/load.json" \
    serve --port 0 --workers 2 --max-batch 8 \
    > "$metrics_dir/load.out" 2> "$metrics_dir/load.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/load.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/load.out")"
[ -n "$addr" ] || { echo "ci: load-smoke serve never printed its address" >&2; exit 1; }
python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
f = sock.makefile("rw", encoding="utf-8", newline="\n")

xml = ('<Resource wl:id="weblab://doc/load">'
       '<NativeContent wl:id="weblab://src/0" wl:s="Source" wl:t="0">'
       'pipelined load smoke text</NativeContent></Resource>')
f.write(json.dumps({"op": "ingest", "exec": "load", "xml": xml,
                    "pipeline": ["Normaliser"]}) + "\n")
f.flush()
assert json.loads(f.readline()).get("ok"), "load-smoke ingest failed"

# 300 pipelined requests in one write — every fifth a batch of 4 — then
# 300 responses, strictly in order, every id echoed, nothing shed
reqs = []
for i in range(300):
    if i % 5 == 0:
        reqs.append({"id": i, "op": "batch", "exec": "load",
                     "requests": [{"op": "why", "uri": "weblab://src/0"}] * 4})
    else:
        reqs.append({"id": i, "op": "why", "exec": "load",
                     "uri": "weblab://src/0"})
f.write("".join(json.dumps(r) + "\n" for r in reqs))
f.flush()
for i in range(300):
    r = json.loads(f.readline())
    assert r.get("id") == i, f"response out of order: expected id {i}, got {r}"
    assert r.get("ok"), r
    if i % 5 == 0:
        assert len(r["result"]) == 4, r
        assert all(s["epoch"] == r["epoch"] for s in r["result"]), "torn batch"

r_ = {"op": "shutdown"}
f.write(json.dumps(r_) + "\n")
f.flush()
assert json.loads(f.readline()).get("ok"), "shutdown failed"
sock.close()
print("ci: load-smoke ok (300 pipelined requests, 60 of them batches)")
PY
wait "$serve_pid" || { echo "ci: load-smoke serve did not shut down cleanly" >&2; exit 1; }
serve_pid=""
python3 - "$metrics_dir/load.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
counters = report["counters"]

# 1 ingest + 300 pipelined + 1 shutdown, all dispatched, none shed
assert counters.get("serve.requests", 0) == 302, counters.get("serve.requests")
assert counters.get("serve.errors", 0) == 0, counters.get("serve.errors")
assert counters.get("serve.batch.requests", 0) >= 1, "no batch was dispatched"
assert counters.get("serve.batch.requests", 0) == 60, counters.get("serve.batch.requests")
assert counters.get("serve.batch.subs", 0) == 240, counters.get("serve.batch.subs")
assert counters.get("serve.shed", 0) == 0, "load-smoke must not shed"
assert report["gauges"].get("serve.queue.depth", 0) == 0, "queue depth leaked"
print("ci: load-smoke metrics ok "
      f"(requests={counters['serve.requests']}, batches={counters['serve.batch.requests']})")
PY

echo "==> store cold-restart smoke (--store survives a daemon restart)"
store_dir="$metrics_dir/store"
./target/release/weblab --metrics-out "$metrics_dir/store1.json" \
    serve --port 0 --workers 2 --store "$store_dir" --max-resident 4 \
    > "$metrics_dir/store1.out" 2> "$metrics_dir/store1.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/store1.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/store1.out")"
[ -n "$addr" ] || { echo "ci: store smoke serve never printed its address" >&2; exit 1; }
python3 - "$addr" "$metrics_dir/store_replies.txt" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")

def send(req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return f.readline()

xml = ('<Resource wl:id="weblab://doc/cold">'
       '<NativeContent wl:id="weblab://src/0" wl:s="Source" wl:t="0">'
       'the text is in the language for peace</NativeContent></Resource>')
r = json.loads(send({"op": "ingest", "exec": "cold", "xml": xml,
                     "pipeline": ["Normaliser", "LanguageExtractor"]}))
assert r.get("ok") and r["result"]["links"] >= 1, r
# a live ingest through the store publishes the epochs a store-less one
# does: the input's Source rows, then one per call (the serve smoke's `ci`)
r = json.loads(send({"op": "ingest", "exec": "cold-live", "xml": xml, "live": True,
                     "pipeline": ["Normaliser", "LanguageExtractor"]}))
assert r.get("ok") and r["result"]["calls"] == 2, r
r = json.loads(send({"op": "why", "exec": "cold-live", "uri": "weblab://src/0"}))
assert r.get("ok") and r.get("epoch") == 3, r
# a live ingest with no pipeline: its one write-through stores the flag
r = json.loads(send({"op": "ingest", "exec": "cold-idle", "xml": xml, "live": True}))
assert r.get("ok") and r["result"]["calls"] == 0, r

# the exact query lines the restarted daemon will re-answer below
derived = ("PREFIX prov: <http://www.w3.org/ns/prov#> "
           "SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }")
queries = [
    {"op": "why", "exec": "cold", "uri": "weblab://src/0"},
    {"op": "lineage", "exec": "cold", "uri": "weblab://src/0", "depth": 3},
    {"op": "impacted-by", "exec": "cold", "uri": "weblab://src/0"},
    {"op": "sparql", "exec": "cold", "query": derived},
    {"op": "batch", "exec": "cold", "requests": [
        {"op": "why", "uri": "weblab://src/0"},
        {"op": "sparql", "query": derived}]},
]
replies = []
for q in queries:
    line = send(q)
    assert json.loads(line).get("ok"), line
    replies.append(line)
with open(sys.argv[2], "w") as out:
    out.writelines(replies)

r = json.loads(send({"op": "shutdown"}))
assert r.get("ok") and r["result"]["stopping"], r
sock.close()
print(f"ci: store smoke run 1 ok ({len(replies)} reply lines saved)")
PY
wait "$serve_pid" || { echo "ci: store smoke serve did not shut down cleanly" >&2; exit 1; }
serve_pid=""
python3 - "$metrics_dir/store1.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]

# the executions were written through to disk
assert counters.get("store.snapshots", 0) >= 1, counters.get("store.snapshots")
# everything stayed resident: serving never touched the disk path
assert counters.get("store.cold_loads", 0) == 0, counters.get("store.cold_loads")
print(f"ci: store write-through metrics ok (snapshots={counters['store.snapshots']})")
PY
./target/release/weblab --metrics-out "$metrics_dir/store2.json" \
    serve --port 0 --workers 2 --store "$store_dir" --max-resident 4 \
    > "$metrics_dir/store2.out" 2> "$metrics_dir/store2.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/store2.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/store2.out")"
[ -n "$addr" ] || { echo "ci: restarted serve never printed its address" >&2; exit 1; }
python3 - "$addr" "$metrics_dir/store_replies.txt" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")

def send(req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return f.readline()

derived = ("PREFIX prov: <http://www.w3.org/ns/prov#> "
           "SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }")
queries = [
    {"op": "why", "exec": "cold", "uri": "weblab://src/0"},
    {"op": "lineage", "exec": "cold", "uri": "weblab://src/0", "depth": 3},
    {"op": "impacted-by", "exec": "cold", "uri": "weblab://src/0"},
    {"op": "sparql", "exec": "cold", "query": derived},
    {"op": "batch", "exec": "cold", "requests": [
        {"op": "why", "uri": "weblab://src/0"},
        {"op": "sparql", "query": derived}]},
]
with open(sys.argv[2]) as saved:
    expected = saved.readlines()
assert len(expected) == len(queries)
for q, want in zip(queries, expected):
    got = send(q)
    assert got == want, \
        f"restart changed served bytes for {q['op']}:\n  was {want!r}\n  now {got!r}"

r = json.loads(send({"op": "status"}))
assert r.get("ok"), r
execs = {e["id"]: e for e in r["result"]["executions"]}
assert "cold" in execs and execs["cold"]["resident"], execs
# never loaded since the restart: the stored snapshot's header says live
assert execs["cold-idle"] == {"id": "cold-idle", "live": True, "resident": False}, execs
r = json.loads(send({"op": "shutdown"}))
assert r.get("ok") and r["result"]["stopping"], r
sock.close()
print(f"ci: cold-restart replies byte-identical ({len(expected)} lines)")
PY
wait "$serve_pid" || { echo "ci: restarted serve did not shut down cleanly" >&2; exit 1; }
serve_pid=""
python3 - "$metrics_dir/store2.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]

# the first query after restart pulled the execution off disk
assert counters.get("store.cold_loads", 0) >= 1, \
    f"restart never cold-loaded: {counters.get('store.cold_loads')}"
assert counters.get("serve.errors", 0) == 0, counters.get("serve.errors")
print(f"ci: cold-restart metrics ok (cold_loads={counters['store.cold_loads']})")
PY

echo "==> X13 snapshot validation (BENCH_X13_sparql.json)"
python3 - BENCH_X13_sparql.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

assert snap["experiment"] == "X13", snap
assert snap["triples"] >= 1_000_000, f"X13 corpus too small: {snap['triples']}"
assert snap["solutions"] > 0, "X13 query produced no solutions"
assert snap["byte_identical"] is True, "planner diverged from the seed evaluator"
assert snap["speedup"] >= 10, f"planner speedup under 10x: {snap['speedup']}"
print(f"ci: X13 snapshot ok ({snap['triples']} triples, "
      f"{snap['speedup']}x over the seed evaluator)")
PY

echo "==> X14 snapshot validation (BENCH_X14_serve.json)"
python3 - BENCH_X14_serve.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

assert snap["experiment"] == "X14", snap
assert snap["conns"] >= 1000, f"X14 must drive ~a thousand connections: {snap['conns']}"
assert snap["batch_size"] >= 8, f"X14 batch size under 8: {snap['batch_size']}"
assert snap["sheds"] == 0, "X14 must run below the admission-control shed point"
for phase in ("unbatched", "batched"):
    p = snap[phase]
    for key in ("subs", "wall_ns", "subs_per_sec", "p50_ns", "p99_ns", "p999_ns"):
        assert key in p, f"{phase} snapshot missing {key!r}"
    assert p["p50_ns"] <= p["p99_ns"] <= p["p999_ns"], f"{phase} quantiles disordered: {p}"
assert snap["unbatched"]["subs"] == snap["batched"]["subs"], \
    "both phases must answer the same sub-request workload"
assert snap["speedup"] >= 2, f"batching speedup under 2x: {snap['speedup']}"
print(f"ci: X14 snapshot ok ({snap['conns']} conns, "
      f"{snap['speedup']}x batched vs unbatched at batch size {snap['batch_size']})")
PY

echo "==> X15 snapshot validation (BENCH_X15_store.json)"
python3 - BENCH_X15_store.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

assert snap["experiment"] == "X15", snap
assert snap["executions"] >= 8, f"X15 working set too small: {snap['executions']}"
assert snap["byte_identical"] is True, \
    "cold-loaded answers diverged from resident bytes"
for phase, keys in (("resident", ("queries", "p50_ns", "p99_ns")),
                    ("cold", ("loads", "p50_ns", "p99_ns", "over_resident")),
                    ("evict", ("count", "wall_ns", "per_sec")),
                    ("restart", ("queries", "wall_ns"))):
    for key in keys:
        assert key in snap[phase], f"{phase} snapshot missing {key!r}"
assert snap["cold"]["loads"] >= snap["executions"], \
    "every execution must be cold-loaded at least once"
assert snap["cold"]["over_resident"] >= 1, \
    f"a cold load cannot be cheaper than a resident lookup: {snap['cold']}"
assert snap["evict"]["count"] >= snap["executions"], snap["evict"]
counters = snap["counters"]
assert counters["cold_loads"] >= snap["cold"]["loads"], counters
assert counters["evictions"] == snap["evict"]["count"], counters
print(f"ci: X15 snapshot ok ({snap['executions']} executions, cold loads "
      f"{snap['cold']['over_resident']}x resident p50, byte-identical)")
PY

echo "==> store lock probe (second daemon on the same --store must fail)"
lock_dir="$metrics_dir/lockstore"
./target/release/weblab serve --port 0 --workers 1 --store "$lock_dir" \
    > "$metrics_dir/lock1.out" 2> "$metrics_dir/lock1.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$metrics_dir/lock1.out" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^listening on //p' "$metrics_dir/lock1.out")"
[ -n "$addr" ] || { echo "ci: lock probe daemon never printed its address" >&2; exit 1; }
if ./target/release/weblab serve --port 0 --workers 1 --store "$lock_dir" \
    > "$metrics_dir/lock2.out" 2> "$metrics_dir/lock2.err"; then
    echo "ci: a second daemon on a locked store must fail" >&2; exit 1
fi
grep -q 'error\[store-locked\]' "$metrics_dir/lock2.err" \
    || { echo "ci: locked store must fail with the stable store-locked code" >&2;
         cat "$metrics_dir/lock2.err" >&2; exit 1; }
python3 - "$addr" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=10)
f = sock.makefile("rw", encoding="utf-8", newline="\n")
f.write(json.dumps({"op": "shutdown"}) + "\n")
f.flush()
assert json.loads(f.readline()).get("ok"), "shutdown failed"
sock.close()
PY
wait "$serve_pid" || { echo "ci: lock probe daemon did not shut down cleanly" >&2; exit 1; }
serve_pid=""
echo "ci: store lock probe ok (second daemon refused with store-locked)"

echo "==> replay smoke (incremental recomputation matches a full re-run)"
replay_dir="$metrics_dir/replay"
mkdir -p "$replay_dir"
./target/release/weblab run data/sample_corpus.xml \
    Normaliser,LanguageExtractor,Translator,Tokeniser \
    --store "$replay_dir/st" -o "$replay_dir/prior.xml"
sed 's/the language of peace/the language of war/' data/sample_corpus.xml \
    > "$replay_dir/changed.xml"
./target/release/weblab replay "$replay_dir/changed.xml" \
    --from "$replay_dir/st" --exec sample_corpus \
    --changed weblab://src/1 --proof exact \
    -o "$replay_dir/replayed.xml" 2> "$replay_dir/replay.err"
# the English source dirties 3 of the 4 pipeline services; the Translator
# call (French chain only) must be spliced forward, not re-executed
grep -q 'replayed 4 call(s): cone 5, reused 1, recomputed 3' "$replay_dir/replay.err" \
    || { echo "ci: replay cone/reuse summary unexpected" >&2;
         cat "$replay_dir/replay.err" >&2; exit 1; }
./target/release/weblab run "$replay_dir/changed.xml" \
    Normaliser,LanguageExtractor,Translator,Tokeniser -o "$replay_dir/full.xml"
cmp "$replay_dir/replayed.xml" "$replay_dir/full.xml" \
    || { echo "ci: replayed document is not byte-identical to the full re-run" >&2; exit 1; }
echo "ci: replay smoke ok (recomputed 3 of 4 services, byte-identical output)"

echo "==> X16 snapshot validation (BENCH_X16_replay.json)"
python3 - BENCH_X16_replay.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

assert snap["experiment"] == "X16", snap
assert snap["sources"] >= 16, f"X16 corpus too small: {snap['sources']}"
assert snap["byte_identical"] is True, "replay diverged from the full re-run"
pcts = {s["dirty_pct"]: s for s in snap["scenarios"]}
assert 10 in pcts and 50 in pcts, f"X16 must cover 10% and 50% cones: {sorted(pcts)}"
for s in snap["scenarios"]:
    for key in ("cone", "recomputed", "reused", "full_ns", "replay_ns", "speedup"):
        assert key in s, f"scenario missing {key!r}: {s}"
    assert s["recomputed"] + s["reused"] == snap["sources"], s
    assert s["recomputed"] <= max(1, -(-snap["sources"] * s["dirty_pct"] // 100)), s
assert pcts[10]["speedup"] >= 2, \
    f"X16 replay at a 10% cone under 2x: {pcts[10]['speedup']}"
print(f"ci: X16 snapshot ok ({snap['sources']} sources, "
      f"{pcts[10]['speedup']}x at 10% dirty, {pcts[50]['speedup']}x at 50%)")
PY

echo "==> X17 snapshot validation (BENCH_X17_rank.json)"
python3 - BENCH_X17_rank.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    snap = json.load(f)

assert snap["experiment"] == "X17", snap
assert snap["nodes"] >= 100_000, f"X17 graph too small: {snap['nodes']}"
assert snap["edges"] == snap["nodes"] - 1, snap
assert 0 < snap["budget"] < snap["nodes"], snap
for phase, keys in (("full", ("rounds", "impacted", "p50_ns")),
                    ("rank", ("rounds", "returned", "p50_ns"))):
    for key in keys:
        assert key in snap[phase], f"{phase} snapshot missing {key!r}"
# the sink's impact closure is the whole tree — the worst case rank bounds
assert snap["full"]["impacted"] == snap["nodes"] - 1, snap["full"]
assert snap["rank"]["returned"] == snap["limit"], snap["rank"]
assert snap["speedup"] >= 10, \
    f"budgeted rank must be >=10x cheaper than full materialisation: {snap['speedup']}"
counters = snap["counters"]
assert counters["queries"] == snap["rank"]["rounds"], counters
assert counters["visited"] == snap["budget"] * snap["rank"]["rounds"], \
    "the budget must bound the visit count exactly"
print(f"ci: X17 snapshot ok ({snap['nodes']} nodes, top-{snap['limit']} "
      f"under budget {snap['budget']} is {snap['speedup']}x cheaper than "
      f"materialising {snap['full']['impacted']} impacted resources)")
PY

echo "==> non-test line counts (a report, not a gate)"
bash scripts/loc.sh

echo "ci: all gates passed"
