#!/bin/sh
# One-command tier-1 check: format (when the formatter is available), build,
# full test suite.  CI and pre-commit both call this.
set -eu
cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt check skipped (ocamlformat not installed) =="
fi

echo "== concurrency primitives stay in lib/vpar =="
# no lib/ code runs on a second domain: Vpar.Pool.map_array, the one thing
# that could, has no caller left in lib/ (only test_vpar), and every lib/
# table is plain, so no other module may lock, spawn or signal
if grep -rnE '\b(Mutex|Atomic|Condition|Domain)\.' lib --include='*.ml' | grep -v '^lib/vpar/'; then
  echo "concurrency primitives outside lib/vpar (listed above)"
  exit 1
fi

echo "== DESIGN.md section 3 lists lib/ =="
# the library inventory names every library and module under lib/, and
# nothing that does not exist there
python3 - <<'EOF'
import glob, os, re, sys
actual = {}
for dune in glob.glob("lib/*/dune"):
    d = os.path.dirname(dune)
    lib = re.search(r"\(name\s+(\w+)\)", open(dune).read()).group(1)
    actual[lib] = {f[0].upper() + f[1:-3] for f in os.listdir(d) if f.endswith(".ml")}
design = open("DESIGN.md").read()
section = re.search(r"^## 3\..*?(?=^## )", design, re.S | re.M).group(0)
listed = {lib: set(re.findall(r"`(\w+)`", mods))
          for lib, mods in re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M)}
errors = ["library %s is not listed" % lib for lib in sorted(set(actual) - set(listed))]
errors += ["listed library %s does not exist" % lib for lib in sorted(set(listed) - set(actual))]
for lib in sorted(set(actual) & set(listed)):
    errors += ["%s: module %s is not listed" % (lib, m) for m in sorted(actual[lib] - listed[lib])]
    errors += ["%s: listed module %s has no .ml" % (lib, m) for m in sorted(listed[lib] - actual[lib])]
for e in errors:
    print(e)
if errors:
    sys.exit("DESIGN.md section 3 is out of date (listed above)")
EOF

echo "== dune build =="
dune build

echo "== frame descriptors =="
# OCaml 5.1 sizes its frame-descriptor table at the next power of two at or
# above twice the descriptors linked in, and all of it is resident: above
# 16,384 the benchmark binary's table doubles from 256 KB to 512 KB, and
# every perfbench workload's peak RSS rises by about 0.25 MB.  vbench.exe
# links nearly every library, so this counts what lib/ adds.
python3 scripts/frame_descriptors.py _build/default/perfbench/vbench.exe 16384

echo "== analyze peak RSS =="
# the trace diff walks one state at a time through one reused candidate
# buffer and keeps a byte per workload-class pair, with no per-row ranked
# arrays and no union memo; keep them from coming back (20.1-20.2 MB peak
# with them, 16.1-16.3 MB without, 5 runs each on a 2-core x86-64
# container; 36.7 MB when the union memo keyed merged id lists).
# Run the built binary, not `dune exec`: dune's own peak would count.
python3 - <<'EOF'
import resource, subprocess, sys
subprocess.run(["./_build/default/bin/violet_cli.exe", "analyze", "mysql", "max_allowed_packet"],
               check=True, stdout=subprocess.DEVNULL)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print("analyze mysql max_allowed_packet: peak RSS %.1f MB" % mb)
if mb > 19:
    sys.exit("analyze peak RSS: %.1f MB, over 19 MB" % mb)
EOF

echo "== export peak RSS =="
# the model printer appends one small tree per item to one reused buffer;
# keep an export from building the model's whole Sexp tree again (that
# added 2.6-2.9 MB to this analysis, the per-item printer 1.0-1.4 MB, on a
# 2-core x86-64 container)
python3 - <<'EOF'
import os, subprocess, sys, tempfile
def peak_mb(extra):
    p = subprocess.Popen(["./_build/default/bin/violet_cli.exe", "analyze", "mysql", "query_cache_type"]
                         + extra, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(p.pid, 0)
    if status != 0:
        sys.exit("export peak RSS: analyze failed")
    return usage.ru_maxrss / 1024
with tempfile.TemporaryDirectory() as d:
    plain = peak_mb([])
    exported = peak_mb(["--export", os.path.join(d, "model.vmodel")])
added = exported - plain
print("analyze mysql query_cache_type: peak RSS %.1f MB, %.1f MB with --export" % (plain, exported))
if added > 2:
    sys.exit("export peak RSS: --export adds %.1f MB, over 2 MB" % added)
EOF

echo "== dune runtest =="
dune runtest

echo "== serve round-trip smoke =="
# exercise the CLI surface end to end: export a model in registry format,
# start the daemon, check against it, shut it down
SMOKE_DIR=$(mktemp -d)
trap 'kill "${SERVE_PID:-}" "${FLEET_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
mkdir -p "$SMOKE_DIR/models.d"
dune exec bin/violet_cli.exe -- analyze mysql autocommit \
  --export "$SMOKE_DIR/models.d/mysql-autocommit.vmodel" >/dev/null
# model format 2 writes each constraint once; keep it from growing back
# (the same model was 793 KB in format 1)
MODEL_BYTES=$(wc -c < "$SMOKE_DIR/models.d/mysql-autocommit.vmodel")
if [ "$MODEL_BYTES" -gt 200000 ]; then
  echo "serve smoke: mysql autocommit model is $MODEL_BYTES bytes, over 200 KB"
  exit 1
fi
# the check smoke reads this export with `check --model`
cp "$SMOKE_DIR/models.d/mysql-autocommit.vmodel" "$SMOKE_DIR/exported.vmodel"
dune exec bin/violet_cli.exe -- serve \
  --addr "unix:$SMOKE_DIR/violet.sock" --models "$SMOKE_DIR/models.d" >/dev/null &
SERVE_PID=$!
# the daemon's `dune exec` contends for the build lock with the client's;
# wait for the bind before talking to it
i=0
while [ ! -S "$SMOKE_DIR/violet.sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$SMOKE_DIR/violet.sock" ] || { echo "serve smoke: daemon never bound"; exit 1; }
: > "$SMOKE_DIR/empty.cnf"
rc=0
dune exec bin/violet_cli.exe -- client check-current \
  --addr "unix:$SMOKE_DIR/violet.sock" mysql-autocommit "$SMOKE_DIR/empty.cnf" \
  >/dev/null || rc=$?
# mode 3b: every workload variable bound, then none (the empty assignment);
# the in-process checker finds 588 slower states
rc3b=0
dune exec bin/violet_cli.exe -- client check-upgrade \
  --addr "unix:$SMOKE_DIR/violet.sock" mysql-autocommit \
  --old-workload sql_command=1,table_type=0,row_bytes=64,n_rows=1,n_tables=1,cached=0,use_index=1,other_clients_reading=0 \
  --new-workload '' >/dev/null || rc3b=$?
dune exec bin/violet_cli.exe -- client shutdown \
  --addr "unix:$SMOKE_DIR/violet.sock" >/dev/null
wait "$SERVE_PID"
if [ "$rc" -ne 2 ]; then
  echo "serve smoke: expected exit 2 (finding on the poor default), got $rc"
  exit 1
fi
if [ "$rc3b" -ne 2 ]; then
  echo "serve smoke: expected exit 2 from the workload change to the empty workload, got $rc3b"
  exit 1
fi

echo "== serve peak RSS =="
# a serving process holds only what it serves: vsmt tables start small, the
# compiled model keeps one plan per config class, and each answer is written
# from the reused line buffer.  One client sends 2,000 check-current and
# check-update lines over varied configs; the daemon's VmHWM, read before
# shutdown, was 27.8-27.9 MB with 65,536-slot tables, a plan per row and a
# string copy per answer, and 22.5-22.6 MB without (2-core x86-64
# container).  Run the built binary: `dune exec` would stand in between.
python3 - "$SMOKE_DIR/models.d" <<'EOF'
import itertools, json, os, socket, subprocess, sys, tempfile, time
values = {
    "autocommit": ["ON", "OFF"],
    "binlog_format": ["ROW", "STATEMENT", "MIXED"],
    "innodb_flush_log_at_trx_commit": ["0", "1", "2"],
    "innodb_flush_method": ["fdatasync", "O_DSYNC", "O_DIRECT"],
    "sync_binlog": ["0", "1", "100"],
}
configs = ["".join("%s = %s\n" % kv for kv in zip(values, combo))
           for combo in itertools.product(*values.values())]
n = len(configs)
with tempfile.TemporaryDirectory() as d:
    sock = os.path.join(d, "violet.sock")
    p = subprocess.Popen(["./_build/default/bin/violet_cli.exe", "serve", "--addr", "unix:" + sock,
                          "--models", sys.argv[1]], stdout=subprocess.DEVNULL)
    try:
        for _ in range(100):
            if os.path.exists(sock):
                break
            time.sleep(0.05)
        s = socket.socket(socket.AF_UNIX)
        s.connect(sock)
        f = s.makefile("rwb")
        flagged = 0
        for i in range(2000):
            c = configs[(i * 7) % n]
            if i % 2 == 0:
                req = {"verb": "check-current", "key": "mysql-autocommit", "config": c}
            else:
                req = {"verb": "check-update", "key": "mysql-autocommit", "old": c,
                       "new": configs[(i * 11 + 1) % n]}
            req["id"] = i
            f.write((json.dumps(req) + "\n").encode())
            f.flush()
            ans = json.loads(f.readline()).get("ok", {})
            if "findings" not in ans:
                sys.exit("serve peak RSS: unexpected answer %r" % ans)
            flagged += ans["findings"] != []
        with open("/proc/%d/status" % p.pid) as st:
            mb = [int(l.split()[1]) for l in st if l.startswith("VmHWM:")][0] / 1024
        f.write(b'{"verb":"shutdown"}\n')
        f.flush()
        f.readline()
        p.wait()
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
print("serve: 2000 checks over %d configs, %d flagged: peak RSS %.1f MB" % (n, flagged, mb))
if flagged == 0:
    sys.exit("serve peak RSS: no answer had a finding")
if mb > 25:
    sys.exit("serve peak RSS: %.1f MB, over 25 MB" % mb)
EOF

echo "== fleet smoke (3 shards, two-phase reload, kill -9 recovery) =="
# the supervised fleet: reuse the exported model, start 3 shards behind the
# router, round-trip a check, reload a changed model, kill -9 a worker, and
# verify the fleet keeps answering while the supervisor restarts it
FLEET_DIR="$SMOKE_DIR/fleet"
dune exec bin/violet_cli.exe -- fleet start \
  --run-dir "$FLEET_DIR" --models "$SMOKE_DIR/models.d" --shards 3 \
  --probe-every 0.2 >/dev/null &
FLEET_PID=$!
i=0
while [ ! -S "$FLEET_DIR/router.sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$FLEET_DIR/router.sock" ] || { echo "fleet smoke: router never bound"; exit 1; }
rc=0
dune exec bin/violet_cli.exe -- client check-current \
  --addr "unix:$FLEET_DIR/router.sock" mysql-autocommit "$SMOKE_DIR/empty.cnf" \
  >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "fleet smoke: expected exit 2 through the router, got $rc"
  exit 1
fi
# two-phase reload from the CLI: a re-export at another threshold has a new
# digest; every shard (and the router) stages it, then all commit, and the
# router's answers come from generation 2
dune exec bin/violet_cli.exe -- analyze mysql autocommit --threshold 0.9 \
  --export "$SMOKE_DIR/models.d/mysql-autocommit.vmodel" >/dev/null
rc=0
dune exec bin/violet_cli.exe -- fleet reload --run-dir "$FLEET_DIR" \
  > "$SMOKE_DIR/reload.out" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "fleet smoke: fleet reload exited $rc"; cat "$SMOKE_DIR/reload.out"; exit 1
fi
dune exec bin/violet_cli.exe -- fleet health --run-dir "$FLEET_DIR" > "$SMOKE_DIR/health.out"
grep -q 'mysql-autocommit  generation 2' "$SMOKE_DIR/health.out" || {
  echo "fleet smoke: health does not list generation 2 after the reload"
  cat "$SMOKE_DIR/health.out"; exit 1; }
rc=0
dune exec bin/violet_cli.exe -- client check-current \
  --addr "unix:$FLEET_DIR/router.sock" mysql-autocommit "$SMOKE_DIR/empty.cnf" \
  > "$SMOKE_DIR/reloaded.out" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'served by model generation 2' "$SMOKE_DIR/reloaded.out"; then
  echo "fleet smoke: expected exit 2 from model generation 2 after the reload, got $rc"
  exit 1
fi
# first "pid" in the state file is the supervisor's, the second is shard 0's
SHARD_PID=$(grep -o '"pid":[0-9]*' "$FLEET_DIR/fleet-state.json" | sed -n 2p | cut -d: -f2)
[ -n "$SHARD_PID" ] || { echo "fleet smoke: no shard pid in state file"; exit 1; }
kill -9 "$SHARD_PID"
rc=0
dune exec bin/violet_cli.exe -- client check-current \
  --addr "unix:$FLEET_DIR/router.sock" mysql-autocommit "$SMOKE_DIR/empty.cnf" \
  >/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "fleet smoke: expected exit 2 after kill -9 (failover), got $rc"
  exit 1
fi
# the stats answer must parse as JSON
dune exec bin/violet_cli.exe -- fleet stats --run-dir "$FLEET_DIR" | python3 -m json.tool >/dev/null
dune exec bin/violet_cli.exe -- fleet drain --run-dir "$FLEET_DIR" >/dev/null
wait "$FLEET_PID"

echo "== fuzz smoke (20 generated systems) =="
# score planted ground truth and run the differential oracle on a small
# corpus; `fuzz diff` exits non-zero on any disagreement and shrinks it
dune exec bin/violet_cli.exe -- fuzz run --seed 42 --count 20 >/dev/null
dune exec bin/violet_cli.exe -- fuzz diff --seed 42 --count 20 \
  --out "$SMOKE_DIR/fuzz-failures" >/dev/null

echo "== check smoke =="
# the one-shot CLI check must flag the poor default: exit 2 and a finding
rc=0
dune exec bin/violet_cli.exe -- check mysql autocommit "$SMOKE_DIR/empty.cnf" \
  > "$SMOKE_DIR/check.out" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check smoke: expected exit 2 (finding on the poor default), got $rc"
  exit 1
fi
grep -q 'finding' "$SMOKE_DIR/check.out" || {
  echo "check smoke: no finding printed on the poor default"; exit 1; }
# --model reads the file --export writes: the serve smoke's export (kept
# aside before the fleet smoke re-exported it) must give the same report as
# the on-the-fly check, apart from the timing line
rc=0
dune exec bin/violet_cli.exe -- check mysql autocommit "$SMOKE_DIR/empty.cnf" \
  --model "$SMOKE_DIR/exported.vmodel" > "$SMOKE_DIR/check-model.out" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check smoke: expected exit 2 from check --model on an exported file, got $rc"
  cat "$SMOKE_DIR/check-model.out"; exit 1
fi
grep -v '^checked in' "$SMOKE_DIR/check.out" > "$SMOKE_DIR/check.report"
grep -v '^checked in' "$SMOKE_DIR/check-model.out" > "$SMOKE_DIR/check-model.report"
cmp -s "$SMOKE_DIR/check.report" "$SMOKE_DIR/check-model.report" || {
  echo "check smoke: check --model differs from the on-the-fly check"
  diff "$SMOKE_DIR/check.report" "$SMOKE_DIR/check-model.report" | head -20; exit 1; }

echo "== checker engine identity (bench matcheck) =="
# tier-1 compares the solver and compiled engines on 20 generated systems;
# the bench compares them on the four target models and in 626 checks over
# 200 generated systems (~4 s).  Its timing gates stay in the nightly job.
BENCH_EXE="$PWD/_build/default/bench/main.exe"
(cd "$SMOKE_DIR" && "$BENCH_EXE" matcheck) > "$SMOKE_DIR/matcheck.out"
grep -q 'targets identical: yes; corpus identical: yes' "$SMOKE_DIR/matcheck.out" || {
  echo "matcheck: the solver and compiled engines disagree"
  tail -4 "$SMOKE_DIR/matcheck.out"; exit 1; }

echo "== check OK =="
