#!/usr/bin/env python3
"""Three-daemon loopback smoke for the SPRITE transport subsystem.

Starts three sprite_daemon processes on ephemeral ports, forms a cluster
via --join, then drives the full life cycle over the HTTP frontend:
record the training queries, publish documents round-robin, run the
learning iterations (all three /learn at once), and search. The ranked
results must match an in-process `sprite_cli batch` run of the *same*
workload score-for-score: the cluster and the simulation share the
role/ranking/learning code, so a live deployment must converge to
exactly the rankings the sim predicts (DESIGN.md section 14).

The observability leg (DESIGN.md section 16) runs against the same live
cluster: every daemon is started with --trace, so the searches above leave
wall-clock spans in each daemon's ring buffer and trace context on every
wire frame. The smoke curls /health (build provenance) and /metrics (JSON
and Prometheus text) from all three daemons, runs `sprite_cli
cluster-report` and asserts that at least one search trace stitches spans
from two or more distinct daemons, then drains /trace directly and checks
the JSONL parses line by line.

The persistence leg (DESIGN.md section 15): every daemon flushes its
index to a --data-dir, one daemon is killed and restarted from that
directory, and the full query set must still match the simulation
score-for-score — both served by the survivor and by the restarted node
itself.

The last legs learn on after the restart: a /record at n0 and a /learn at
every daemon must answer 200, and that round must pull the new records.
Then concurrent /learn rounds, at most 5, run until one pulls no record at
any daemon (learning.pulled_queries unchanged while learning.polls grows):
poll cursors count each member's arrivals, so once no document changes
its index terms, a round re-ships nothing.

Usage: cluster_smoke.py <build_dir>
"""

import concurrent.futures
import json
import os
import re
import select
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request

TRAIN = 3
ITERS = 2
TOP_K = 10

DOCS = [
    ("Distributed hash tables",
     "distributed hash table routing protocols scale lookup chord pastry "
     "peer structured overlay routing lookup"),
    ("Text retrieval systems",
     "text retrieval ranking relevance vector model cosine similarity "
     "document term weighting retrieval ranking"),
    ("Peer to peer search",
     "peer search network overlay gnutella flooding query distributed "
     "search peer network"),
    ("Machine learning basics",
     "machine learning model training gradient feature weight learning "
     "model training data"),
    ("Information retrieval evaluation",
     "information retrieval evaluation precision recall benchmark trec "
     "judgment relevance evaluation precision"),
    ("Query driven learning",
     "query learning feedback cached history adaptive index term selection "
     "query feedback learning"),
]

QUERIES = [
    "distributed hash table lookup",
    "text retrieval ranking",
    "peer network search",
    "query learning feedback",
]


def fail(message):
    print("cluster smoke FAILED: " + message, file=sys.stderr)
    sys.exit(1)


def read_ready_line(proc, deadline_s=10.0):
    """Reads the daemon's one READY line, with a timeout."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + deadline_s
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or proc.poll() is not None:
            fail("daemon did not print READY (exit=%s, saw %r)"
                 % (proc.poll(), buf))
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            fail("daemon closed stdout before READY")
        buf += chunk
    line = buf.split(b"\n", 1)[0].decode()
    if not line.startswith("READY "):
        fail("unexpected daemon banner: %r" % line)
    ports = dict(kv.split("=", 1) for kv in line.split()[1:])
    return {"name": ports["name"], "udp": int(ports["udp"]),
            "tcp": int(ports["tcp"]), "http": int(ports["http"])}


def http(method, port, path, body=None, deadline_s=10.0):
    url = "http://127.0.0.1:%d%s" % (port, path)
    data = body.encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    deadline = time.monotonic() + deadline_s
    last_error = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(req, timeout=5) as resp:
                return resp.read().decode()
        except urllib.error.HTTPError as e:  # an answer: no retry
            fail("HTTP %s %s answered %d: %s"
                 % (method, url, e.code, e.read().decode()))
        except OSError as e:  # includes URLError; daemon may still be binding
            last_error = e
            time.sleep(0.05)
    fail("HTTP %s %s never succeeded: %s" % (method, url, last_error))


def counter(node, name):
    """The unlabelled counter `name` on a daemon's /metrics (0 if absent)."""
    metrics = json.loads(http("GET", node["http"], "/metrics"))
    for c in metrics["counters"]:
        if c["name"] == name and not c.get("label"):
            return c["value"]
    return 0


def learn_everywhere(nodes):
    """One concurrent /learn at every daemon; returns the polls sent and
    the records pulled, per daemon, by that round."""
    def counts():
        return [(counter(n, "learning.polls"),
                 counter(n, "learning.pulled_queries")) for n in nodes]
    before = counts()
    with concurrent.futures.ThreadPoolExecutor(len(nodes)) as pool:
        list(pool.map(lambda n: http("POST", n["http"], "/learn"), nodes))
    return [(a[0] - b[0], a[1] - b[1]) for a, b in zip(counts(), before)]


def parse_batch_results(output):
    """Parses `result <i> <doc>:<score> ...` lines from sprite_cli batch."""
    results = {}
    for line in output.splitlines():
        if not line.startswith("result "):
            continue
        parts = line.split()
        i = int(parts[1])
        results[i] = [(int(d), float(s)) for d, s in
                      (p.split(":", 1) for p in parts[2:])]
    return results


def main():
    if len(sys.argv) != 2:
        fail("usage: cluster_smoke.py <build_dir>")
    build = sys.argv[1]
    daemon_bin = os.path.join(build, "tools", "sprite_daemon")
    cli_bin = os.path.join(build, "tools", "sprite_cli")
    for binary in (daemon_bin, cli_bin):
        if not os.access(binary, os.X_OK):
            fail("missing binary: " + binary)

    workdir = tempfile.mkdtemp(prefix="sprite-smoke-")
    daemons = []
    try:
        # --- In-process reference: the simulation on the same workload ----
        corpus_tsv = os.path.join(workdir, "corpus.tsv")
        queries_txt = os.path.join(workdir, "queries.txt")
        with open(corpus_tsv, "w") as f:
            for title, text in DOCS:
                f.write("%s\t%s\n" % (title, text))
        with open(queries_txt, "w") as f:
            f.write("\n".join(QUERIES) + "\n")
        batch = subprocess.run(
            [cli_bin, "batch", corpus_tsv, queries_txt,
             "--train=%d" % TRAIN, "--iters=%d" % ITERS, "--k=%d" % TOP_K],
            capture_output=True, text=True)
        if batch.returncode != 0:
            fail("sprite_cli batch failed: " + batch.stderr)
        reference = parse_batch_results(batch.stdout)
        if sorted(reference) != list(range(len(QUERIES))):
            fail("batch reference incomplete: %r" % sorted(reference))

        # --- Boot a three-daemon cluster on ephemeral loopback ports ------
        # All daemons share one data root; each flushes into its own
        # per-peer subdirectory (keyed by the ring id of its name).
        data_root = os.path.join(workdir, "data")

        def start(name, join=None):
            cmd = [daemon_bin, "--name=" + name, "--trace",
                   "--data-dir=" + data_root]
            if join is not None:
                cmd.append("--join=127.0.0.1:%d" % join)
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
            daemons.append(proc)
            return read_ready_line(proc)

        nodes = [start("n0")]
        nodes.append(start("n1", join=nodes[0]["udp"]))
        nodes.append(start("n2", join=nodes[0]["udp"]))

        # Every node must converge to the same three-member view.
        for node in nodes:
            members = json.loads(http("GET", node["http"], "/members"))
            names = sorted(m["name"] for m in members)
            if names != ["n0", "n1", "n2"]:
                fail("%s sees members %r" % (node["name"], names))

        # The observer probe (UDP wire protocol, no HTTP) agrees.
        probe = subprocess.run(
            [cli_bin, "join", "127.0.0.1:%d" % nodes[0]["udp"]],
            capture_output=True, text=True)
        if probe.returncode != 0:
            fail("sprite_cli join failed: " + probe.stderr)
        for name in ("n0", "n1", "n2"):
            if name not in probe.stdout:
                fail("observer probe misses %s:\n%s" % (name, probe.stdout))

        # --- Train exactly like the reference: record, publish, learn -----
        for _ in range(TRAIN):
            http("POST", nodes[0]["http"], "/record",
                 "\n".join(QUERIES) + "\n")
        for i, (title, text) in enumerate(DOCS):
            http("POST", nodes[i % 3]["http"], "/publish",
                 "%d\t%s\t%s\n" % (i, title, text))
        # Each iteration's /learn requests go out at once.
        with concurrent.futures.ThreadPoolExecutor(len(nodes)) as pool:
            for _ in range(ITERS):
                list(pool.map(lambda n: http("POST", n["http"], "/learn"),
                              nodes))

        # Sanity: the index is spread across the cluster, not parked on one
        # node.
        stats = [json.loads(http("GET", n["http"], "/stats")) for n in nodes]
        if sum(s["documents"] for s in stats) != len(DOCS):
            fail("documents not all shared: %r" % stats)
        if sum(1 for s in stats if s["indexed_terms"] > 0) < 2:
            fail("index terms not distributed: %r" % stats)

        # --- The live rankings must equal the sim's, score for score ------
        for i, query in enumerate(QUERIES):
            body = http("GET", nodes[0]["http"],
                        "/search?q=%s&k=%d"
                        % (urllib.parse.quote(query), TOP_K))
            got = [(r["doc"], r["score"])
                   for r in json.loads(body)["results"]]
            if got != reference[i]:
                fail("query %d diverges from sim:\n  cluster: %r\n  sim:    "
                     " %r" % (i, got, reference[i]))
            if not got:
                fail("query %d returned no results" % i)

        # `sprite_cli query` is a thin HTTP client: same body, verbatim.
        via_cli = subprocess.run(
            [cli_bin, "query", "127.0.0.1:%d" % nodes[0]["http"],
             QUERIES[0], "--k=%d" % TOP_K],
            capture_output=True, text=True)
        if via_cli.returncode != 0:
            fail("sprite_cli query failed: " + via_cli.stderr)
        direct = http("GET", nodes[0]["http"],
                      "/search?q=%s&k=%d"
                      % (urllib.parse.quote(QUERIES[0]), TOP_K))
        if via_cli.stdout.strip() != direct.strip():
            fail("sprite_cli query body differs from direct HTTP")

        # --- Observability: /health, /metrics, cluster-report, /trace -----
        # Every daemon runs with --trace (see start() above), so the
        # searches just served left spans in each ring buffer and trace
        # context on every inter-node frame.
        for node in nodes:
            health = json.loads(http("GET", node["http"], "/health"))
            for key in ("name", "git_commit", "build_type", "wire_version",
                        "uptime_s", "trace_enabled"):
                if key not in health:
                    fail("%s /health misses %r: %r"
                         % (node["name"], key, health))
            if health["name"] != node["name"]:
                fail("/health name mismatch: %r" % health)
            if health["wire_version"] != 2:
                fail("unexpected wire version: %r" % health)
            if health["trace_enabled"] is not True:
                fail("%s not tracing despite --trace" % node["name"])
            if not health["uptime_s"] > 0:
                fail("%s implausible uptime: %r" % (node["name"], health))

            metrics = json.loads(http("GET", node["http"], "/metrics"))
            counters = {c["name"] for c in metrics["counters"]}
            if node is nodes[0] and "cluster.searches" not in counters:
                fail("n0 /metrics misses cluster.searches: %r"
                     % sorted(counters))

            # The Prometheus rendering must be well-formed exposition text:
            # every line is a `# TYPE` comment or `name{labels} value`.
            prom = http("GET", node["http"], "/metrics?format=prometheus")
            sample_re = re.compile(
                r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? '
                r'[-+]?([0-9.]+([eE][-+]?[0-9]+)?|inf|nan)$')
            for line in prom.splitlines():
                if not line or line.startswith("# TYPE "):
                    continue
                if not sample_re.match(line):
                    fail("%s prometheus line does not parse: %r"
                         % (node["name"], line))
            if (node is nodes[0]
                    and "sprite_cluster_searches_total" not in prom):
                fail("prometheus text misses sprite_cluster_searches_total")

        # The collector polls every member, drains the trace rings and
        # stitches cross-node trees; the searches above fetched postings
        # from remote nodes, so at least one trace must span >=2 daemons.
        report = subprocess.run(
            [cli_bin, "cluster-report", "127.0.0.1:%d" % nodes[0]["http"]],
            capture_output=True, text=True)
        if report.returncode != 0:  # rc 3 = SLO alerts (e.g. RPC timeouts)
            fail("cluster-report rc=%d:\n%s%s"
                 % (report.returncode, report.stdout, report.stderr))
        if report.stdout.count("trace=on") != 3:
            fail("cluster-report missing trace=on for all members:\n%s"
                 % report.stdout)
        stitched = re.search(r"cross-node stitching: (\d+) of \d+ trace",
                             report.stdout)
        if not stitched:
            fail("cluster-report printed no stitching summary:\n%s"
                 % report.stdout)
        if int(stitched.group(1)) < 1:
            fail("no trace stitched spans from >=2 daemons:\n%s"
                 % report.stdout)

        # cluster-report drained every ring; one more search refills n0's,
        # and a direct GET /trace must return parseable JSONL that drains.
        http("GET", nodes[0]["http"],
             "/search?q=%s&k=%d"
             % (urllib.parse.quote(QUERIES[0]), TOP_K))
        drain = http("GET", nodes[0]["http"], "/trace")
        lines = [l for l in drain.splitlines() if l.strip()]
        if not lines or '"format":"sprite-trace-jsonl"' not in lines[0]:
            fail("/trace header malformed: %r" % lines[:1])
        if not any('"name":"search"' in l for l in lines[1:]):
            fail("/trace drain has no search span:\n%s" % drain)
        for l in lines:
            json.loads(l)  # every line is a standalone JSON object

        # --- Persistence: flush all, kill one, restart it, re-query -------
        for node in nodes:
            body = http("POST", node["http"], "/flush")
            if '"flushed":true' not in body:
                fail("%s flush failed: %s" % (node["name"], body))
        # n1 holds part of the index; kill it hard and bring it back from
        # its durable store. The restart recovers before joining, and the
        # join refreshes n1's addressing card (same name -> same ring id)
        # at the surviving members.
        victim = daemons[1]
        victim.kill()
        victim.wait(timeout=5)
        nodes[1] = start("n1", join=nodes[0]["udp"])
        for serving in (nodes[0], nodes[1]):
            for i, query in enumerate(QUERIES):
                body = http("GET", serving["http"],
                            "/search?q=%s&k=%d"
                            % (urllib.parse.quote(query), TOP_K))
                got = [(r["doc"], r["score"])
                       for r in json.loads(body)["results"]]
                if got != reference[i]:
                    fail("query %d diverges after restart (via %s):\n"
                         "  cluster: %r\n  sim:     %r"
                         % (i, serving["name"], got, reference[i]))

        # --- Learning after the restart -----------------------------------
        # The restarted n1 owns no documents (owner state is not
        # persisted) and answers polls under a new epoch, so the owners'
        # old cursors for its terms count from 0 there. http() fails on
        # any answer but 200.
        http("POST", nodes[0]["http"], "/record", "\n".join(QUERIES) + "\n")
        after_restart = learn_everywhere(nodes)
        if sum(pulled for _, pulled in after_restart) == 0:
            fail("the round after a /record pulled no record: %r"
                 % after_restart)

        # --- Incremental polls --------------------------------------------
        # Nothing is recorded from here on. Once a round changes no
        # document's index terms, the next one finds every polled term's
        # cursor at its member's high-water mark and pulls nothing.
        rounds = []
        while not rounds or any(pulled for _, pulled in rounds[-1]):
            if len(rounds) == 5:
                fail("5 /learn rounds in a row pulled records (polls, "
                     "pulled per daemon): %r" % rounds)
            rounds.append(learn_everywhere(nodes))
            if sum(polls for polls, _ in rounds[-1]) == 0:
                fail("a /learn round sent no poll: %r" % rounds)

        print("cluster smoke: 3 daemons, %d docs, %d queries x%d, %d "
              "learning iterations - live rankings match the sim, "
              "cluster-report stitched %s cross-node trace(s), the "
              "rankings survive a kill/restart recovery, learning goes on "
              "after it, and learning round %d pulled no record"
              % (len(DOCS), len(QUERIES), TRAIN, ITERS, stitched.group(1),
                 len(rounds)))
    finally:
        for proc in daemons:
            if proc.poll() is None:
                proc.terminate()
        for proc in daemons:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
