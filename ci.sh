#!/usr/bin/env sh
# ci.sh — the full verification gate, runnable locally or in CI.
# Mirrors .github/workflows/ci.yml exactly; keep the two in sync.
set -eu

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> noclint (every analyzer; fails on any finding that survives suppression)"
# The binary is built once and run directly: go run collapses noclint's
# exit codes (1 = findings, 2 = hard error) to 1.
lintdir=$(mktemp -d)
trap 'rm -rf "$lintdir"' EXIT
go build -o "$lintdir/noclint" ./cmd/noclint
"$lintdir/noclint" ./...

echo "==> noclint seeded-violation smoke"
# Prove the gate actually bites: drop a file with a known seedflow
# violation into the tree; noclint must exit exactly 1 and report that
# file's finding. Then remove it.
smokedir="internal/lintsmoke_$$"
mkdir "$smokedir"
trap 'rm -rf "$smokedir" "$lintdir"' EXIT
cat > "$smokedir/bad.go" <<'EOF'
// Package lintsmoke is a transient CI fixture proving the noclint
// gate fails on a seeded violation.
package lintsmoke

import "time"

// Stamp reads the wall clock inside the model: a seedflow violation.
func Stamp() time.Time { return time.Now() }
EOF
status=0
"$lintdir/noclint" ./... >"$lintdir/smoke.out" 2>&1 || status=$?
if [ "$status" != 1 ] || ! grep -q "^$smokedir/bad\.go:[0-9]*: \[seedflow\] " "$lintdir/smoke.out"; then
	echo "noclint exited $status on a seeded violation; want 1 and a [seedflow] finding in $smokedir/bad.go:" >&2
	cat "$lintdir/smoke.out" >&2
	exit 1
fi
rm -rf "$smokedir" "$lintdir"
trap - EXIT

echo "==> go test -race -shuffle=on"
# -shuffle randomizes test (and subtest-group) execution order every
# run, so inter-test state dependencies fail in CI instead of lurking.
# This runs every fuzz target's seed corpus too, among them the 64
# committed FuzzNoCCase NoC cases under the simcheck invariant audit.
go test -race -shuffle=on ./...

echo "==> examples run"
# Nothing else runs the examples: every examples/* main must exit 0.
for ex in examples/*; do
	if ! go run "./$ex" >/dev/null; then
		echo "example $ex failed" >&2
		exit 1
	fi
done

echo "==> e2ebench module: vet + tests"
# e2ebench/ is its own Go module, built against this tree through
# `replace gpunoc => ../`, so the root `./...` stages above never reach
# it: a flag or API the benchmark uses could be removed here and break
# it unnoticed. Its tests spawn nocserve on fixed ports 21480 and up.
(cd e2ebench && go vet ./... && go test -count=1 .)

echo "==> golden byte identity on every quick key (e2ebench matrix_quick)"
# e2ebench's tests check expected.json's digests for noc_full only. One
# matrix_quick pass renders all 73 quick (gpu, experiment) keys in the
# four formats and compares every byte against expected.json; it exits
# 1 on any wrong byte.
golddir=$(mktemp -d)
trap 'rm -rf "$golddir"' EXIT
(cd e2ebench && go run . --workload matrix_quick --seconds 1 --expected expected.json --workdir "$golddir")
rm -rf "$golddir"
trap - EXIT

echo "==> native fuzz targets (short -fuzztime)"
# go test runs only the seed corpora; this stage mutates past them for a
# few seconds per target, one go test -fuzz per target because -fuzz
# takes exactly one. -fuzzminimizetime bounds how long a worker shrinks
# each new input: shrinking inputs grown from a large seed (the ext5
# trace FuzzParseTrace starts from) would otherwise eat the budget.
fuzz_target() {
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 1s "$2"
}
fuzz_target FuzzEncryptBlock ./internal/aes
fuzz_target FuzzCoalesce ./internal/kernel
fuzz_target FuzzCacheAccess ./internal/cache
fuzz_target FuzzLoadSpill ./internal/resultstore
fuzz_target FuzzParseTrace ./internal/simcheck
fuzz_target FuzzNoCCase ./internal/simcheck
fuzz_target FuzzParseBenchOutput ./cmd/nocbench
fuzz_target FuzzHandleResult ./cmd/nocserve

echo "==> native fuzz seeded-failure smoke"
# Prove the stage bites: a transient package whose fuzz target fails on
# its own seed must make fuzz_target exit non-zero.
fuzzdir="internal/fuzzsmoke_$$"
mkdir "$fuzzdir"
trap 'rm -rf "$fuzzdir"' EXIT
cat > "$fuzzdir/smoke_test.go" <<'EOF'
// Package fuzzsmoke is a transient CI fixture proving the native fuzz
// stage fails when a target fails.
package fuzzsmoke

import "testing"

func FuzzSeededFailure(f *testing.F) {
	f.Add([]byte("seeded failure"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if string(data) == "seeded failure" {
			t.Fatal("the seed fails by construction")
		}
	})
}
EOF
if fuzz_target FuzzSeededFailure "./$fuzzdir" >/dev/null 2>&1; then
	echo "go test -fuzz passed a target that fails on its seed; the fuzz stage is dead" >&2
	exit 1
fi
rm -rf "$fuzzdir"
trap - EXIT

echo "==> root benchmarks + nocbench ratchet (vs bench.baseline.json)"
# go vet compiles benchmarks but never runs them. One go test run
# records every root benchmark (each (gpu, experiment) key, the hot
# paths, the ablations, the facade) three times, and a benchmark that
# fails fails the stage. nocbench then checks the entries
# bench.baseline.json names: a gated benchmark missing from the
# recording, over its ns/op ratio (2.5x; shared runners are noisy) or
# over its allocs/op delta fails.
benchdir=$(mktemp -d)
trap 'rm -rf "$benchdir"' EXIT
if ! go test -run '^$' -bench . -benchmem -count 3 -benchtime 100ms . >"$benchdir/bench.txt" 2>&1; then
	cat "$benchdir/bench.txt" >&2
	echo "root benchmarks failed" >&2
	exit 1
fi
go build -o "$benchdir/nocbench" ./cmd/nocbench
"$benchdir/nocbench" -baseline bench.baseline.json "$benchdir/bench.txt"

echo "==> nocbench seeded-regression smoke"
# Prove the perf gate bites: the same recording with BenchmarkMeshStep's
# ns/op multiplied by 3 must make nocbench exit non-zero. It is checked
# against a scratch baseline re-recorded from that same recording, so
# the seeded ratio is exactly 3x: against the committed baseline, a run
# that measured the mesh faster than 2.5/3 of its accepted ns/op would
# stay inside the budget even at 3x.
cp bench.baseline.json "$benchdir/baseline.json"
"$benchdir/nocbench" -baseline "$benchdir/baseline.json" -write-baseline "$benchdir/bench.txt" >/dev/null
awk '$1 ~ /^BenchmarkMeshStep(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") $i *= 3 } { print }' \
	"$benchdir/bench.txt" >"$benchdir/slow.txt"
if "$benchdir/nocbench" -baseline "$benchdir/baseline.json" "$benchdir/slow.txt" >/dev/null 2>&1; then
	echo "nocbench passed a recording with a seeded 3x BenchmarkMeshStep regression; the perf gate is dead" >&2
	exit 1
fi
rm -rf "$benchdir"
trap - EXIT

echo "==> nocchar -all parallel determinism smoke (race)"
# The parallel runner must make pool size invisible: stdout of a full
# quick sweep is byte-compared between one worker and a wide pool, with
# the race detector watching the fan-out. Timings go to stderr. The
# same sweeps collect metrics and traces, so the observability layer's
# own determinism contract - files byte-identical across pool sizes,
# stdout untouched by collection - is checked in the same pass.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -race -o "$tmpdir/nocchar" ./cmd/nocchar
GOMAXPROCS=1 "$tmpdir/nocchar" -gpu v100 -all -quick \
	-metrics "$tmpdir/seq.metrics.json" -trace "$tmpdir/seq.trace.json" \
	>"$tmpdir/seq.out" 2>/dev/null
GOMAXPROCS=8 "$tmpdir/nocchar" -gpu v100 -all -quick \
	-metrics "$tmpdir/par.metrics.json" -trace "$tmpdir/par.trace.json" \
	>"$tmpdir/par.out" 2>/dev/null
if ! cmp -s "$tmpdir/seq.out" "$tmpdir/par.out"; then
	echo "nocchar -all output differs between GOMAXPROCS=1 and GOMAXPROCS=8" >&2
	diff "$tmpdir/seq.out" "$tmpdir/par.out" | head -20 >&2
	exit 1
fi
GOMAXPROCS=8 "$tmpdir/nocchar" -gpu v100 -all -quick >"$tmpdir/plain.out" 2>/dev/null
if ! cmp -s "$tmpdir/seq.out" "$tmpdir/plain.out"; then
	echo "nocchar -all stdout changes when -metrics/-trace are enabled" >&2
	exit 1
fi
if ! cmp -s "$tmpdir/seq.metrics.json" "$tmpdir/par.metrics.json"; then
	echo "nocchar -metrics output differs between GOMAXPROCS=1 and GOMAXPROCS=8" >&2
	exit 1
fi
if ! cmp -s "$tmpdir/seq.trace.json" "$tmpdir/par.trace.json"; then
	echo "nocchar -trace output differs between GOMAXPROCS=1 and GOMAXPROCS=8" >&2
	exit 1
fi

echo "==> nocserve cache smoke (race)"
# Start the server on an ephemeral port, fetch the same figure twice,
# and check three contracts: the two responses are byte-identical, the
# second was a cache hit (via /metricz), and the body matches what the
# CLI prints for the same tuple (`nocchar -json` stdout minus its
# three-line experiment header). Then SIGTERM must drain cleanly.
go build -race -o "$tmpdir/nocserve" ./cmd/nocserve
"$tmpdir/nocserve" -addr 127.0.0.1:0 2>"$tmpdir/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
	grep -q "listening on" "$tmpdir/serve.log" && break
	sleep 0.1
done
port=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$tmpdir/serve.log")
if [ -z "$port" ]; then
	echo "nocserve did not report a listening address:" >&2
	cat "$tmpdir/serve.log" >&2
	exit 1
fi
base="http://127.0.0.1:$port"
curl -sf "$base/v1/v100/fig1?quick=1" >"$tmpdir/serve1.json"
curl -sf "$base/v1/v100/fig1?quick=1" >"$tmpdir/serve2.json"
if ! cmp -s "$tmpdir/serve1.json" "$tmpdir/serve2.json"; then
	echo "nocserve served different bytes for the same key" >&2
	exit 1
fi
if ! curl -sf "$base/metricz" | grep -q '"resultstore/hit": 1'; then
	echo "second nocserve fetch was not a cache hit" >&2
	curl -sf "$base/metricz" >&2 || true
	exit 1
fi
"$tmpdir/nocchar" -gpu v100 -exp fig1 -quick -json 2>/dev/null | tail -n +4 >"$tmpdir/cli.json"
if ! cmp -s "$tmpdir/serve1.json" "$tmpdir/cli.json"; then
	echo "nocserve response differs from nocchar -json output" >&2
	diff "$tmpdir/serve1.json" "$tmpdir/cli.json" | head -20 >&2
	exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || true
if ! grep -q "drained" "$tmpdir/serve.log"; then
	echo "nocserve did not drain on SIGTERM:" >&2
	cat "$tmpdir/serve.log" >&2
	exit 1
fi

echo "==> nocserve deadline smoke (504 without wedging, abandoned fill caches)"
# A cold full-fidelity request under a 1ms request budget must 504, tick
# the timeout counter, and leave the server responsive; the abandoned
# fill keeps computing in the background, so polling the same tuple
# eventually answers 200 from the cache — inside the same 1ms budget,
# because hits never wait.
"$tmpdir/nocserve" -addr 127.0.0.1:0 -request-timeout 1ms 2>"$tmpdir/deadline.log" &
deadline_pid=$!
trap 'kill "$serve_pid" "$deadline_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 100); do
	grep -q "listening on" "$tmpdir/deadline.log" && break
	sleep 0.1
done
dport=$(sed -n 's/.*listening on .*:\([0-9][0-9]*\)$/\1/p' "$tmpdir/deadline.log")
if [ -z "$dport" ]; then
	echo "deadline nocserve did not report a listening address:" >&2
	cat "$tmpdir/deadline.log" >&2
	exit 1
fi
dbase="http://127.0.0.1:$dport"
code=$(curl -s -o /dev/null -w '%{http_code}' "$dbase/v1/v100/fig1")
if [ "$code" != "504" ]; then
	echo "cold full-fidelity request under -request-timeout 1ms returned $code, want 504" >&2
	exit 1
fi
if ! curl -sf "$dbase/metricz" | grep -q '"http/timed_out": 1'; then
	echo "the 504 did not tick http/timed_out on /metricz" >&2
	curl -sf "$dbase/metricz" >&2 || true
	exit 1
fi
if ! curl -sf "$dbase/healthz" >/dev/null; then
	echo "nocserve wedged after a timed-out request" >&2
	exit 1
fi
served=""
for _ in $(seq 1 240); do
	code=$(curl -s -o /dev/null -w '%{http_code}' "$dbase/v1/v100/fig1")
	if [ "$code" = "200" ]; then
		served=1
		break
	fi
	sleep 0.5
done
if [ -z "$served" ]; then
	echo "the abandoned fill never surfaced as a cache hit" >&2
	curl -sf "$dbase/metricz" >&2 || true
	exit 1
fi
kill -TERM "$deadline_pid"
wait "$deadline_pid" || true
if ! grep -q "drained" "$tmpdir/deadline.log"; then
	echo "deadline nocserve did not drain on SIGTERM:" >&2
	cat "$tmpdir/deadline.log" >&2
	exit 1
fi

echo "==> nocserve 3-node cluster smoke (single-hop forwarding, one simulation cluster-wide)"
# Three sharded nodes on adjacent ports; the same tuple fetched once
# through each node must return byte-identical bodies, simulate exactly
# once across the cluster (resultstore/miss sums to 1), and forward
# exactly twice (the two non-owner entries). Then SIGTERM all three and
# require a clean drain.
cport=$((20000 + $$ % 20000))
c1="http://127.0.0.1:$cport"
c2="http://127.0.0.1:$((cport + 1))"
c3="http://127.0.0.1:$((cport + 2))"
cpeers="$c1,$c2,$c3"
i=1
for u in "$c1" "$c2" "$c3"; do
	"$tmpdir/nocserve" -addr "${u#http://}" -peers "$cpeers" -self "$u" \
		2>"$tmpdir/cluster$i.log" &
	eval "cpid$i=\$!"
	i=$((i + 1))
done
trap 'kill "$serve_pid" "$deadline_pid" "$cpid1" "$cpid2" "$cpid3" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for i in 1 2 3; do
	for _ in $(seq 1 100); do
		grep -q "listening on" "$tmpdir/cluster$i.log" && break
		sleep 0.1
	done
	if ! grep -q "listening on" "$tmpdir/cluster$i.log"; then
		echo "cluster node $i did not start:" >&2
		cat "$tmpdir/cluster$i.log" >&2
		exit 1
	fi
done
i=1
for u in "$c1" "$c2" "$c3"; do
	if ! curl -sf -D "$tmpdir/cluster$i.hdr" "$u/v1/v100/fig1?quick=1" >"$tmpdir/cluster$i.json"; then
		echo "cluster fetch via node $i failed" >&2
		exit 1
	fi
	if ! grep -qi '^X-Cache: \(miss\|hit\|coalesced\|spill\)' "$tmpdir/cluster$i.hdr"; then
		echo "cluster response via node $i lacks an X-Cache outcome:" >&2
		cat "$tmpdir/cluster$i.hdr" >&2
		exit 1
	fi
	i=$((i + 1))
done
if ! cmp -s "$tmpdir/cluster1.json" "$tmpdir/cluster2.json" || ! cmp -s "$tmpdir/cluster1.json" "$tmpdir/cluster3.json"; then
	echo "cluster nodes served different bytes for one key" >&2
	exit 1
fi
miss_total=0
fwd_total=0
for u in "$c1" "$c2" "$c3"; do
	m=$(curl -sf "$u/metricz" | sed -n 's/.*"resultstore\/miss": \([0-9]*\).*/\1/p')
	f=$(curl -sf "$u/metricz" | sed -n 's/.*"cluster\/forwarded": \([0-9]*\).*/\1/p')
	miss_total=$((miss_total + ${m:-0}))
	fwd_total=$((fwd_total + ${f:-0}))
done
if [ "$miss_total" != "1" ]; then
	echo "cluster simulated the key $miss_total times, want exactly 1 cluster-wide" >&2
	exit 1
fi
if [ "$fwd_total" != "2" ]; then
	echo "cluster forwarded $fwd_total requests for 3 fetches of one key, want 2" >&2
	exit 1
fi
kill -TERM "$cpid1" "$cpid2" "$cpid3"
wait "$cpid1" "$cpid2" "$cpid3" || true
for i in 1 2 3; do
	if ! grep -q "drained" "$tmpdir/cluster$i.log"; then
		echo "cluster node $i did not drain on SIGTERM:" >&2
		cat "$tmpdir/cluster$i.log" >&2
		exit 1
	fi
done

echo "==> all checks passed"
