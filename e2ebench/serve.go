package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve_churn load. Load comes from this one process over conns
// connections: the machine the benchmark was written on has 2 CPUs.
const (
	conns = 2
	// openRate is the open loop's fixed rate, far below the closed
	// loop's capacity of several thousand requests per second.
	openRate = 500
	// goodputLimit is the latency a reply must meet to count as goodput.
	goodputLimit = 20 * time.Millisecond
	// zipfS is the Zipf exponent of (key, format) popularity. No
	// recorded nocserve traffic exists, so it is assumed: 0.99 is the
	// "zipfian" request constant of the YCSB key-value benchmark (Cooper
	// et al., SoCC 2010).
	zipfS = 0.99
	// cacheShare sizes each node's cache as this share of the node's
	// half of the working set. It is assumed too, chosen so the store
	// evicts and reloads spill files beside serving hits.
	cacheShare = 0.4
	// rounds splits the measuring time into rounds of closed loop, open
	// loop and sweeps; each end-to-end metric is the median over rounds,
	// so a short disturbance of the machine moves at most one of them.
	rounds = 10
	// closedRate and sweepTime size the closed loop and the sweeps from
	// the measuring time: the closed loop's capacity and one sweep's
	// time on the machine the benchmark was written on. Request counts,
	// not deadlines, end every phase, so a seed gives the same requests,
	// and the same standing failures, however fast the host runs.
	closedRate = 5000
	sweepTime  = 60 * time.Millisecond
	// rankSeed fixes which (key, format) pair gets which popularity
	// rank. It is the same for every run, so runs with different seeds
	// measure the same mix and differ only in the order of requests and
	// their entry nodes; the large entries' popularity would otherwise
	// change the cost of a request from seed to seed.
	rankSeed = 1
)

// item is one (key, format) request target.
type item struct {
	k      key
	format int
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string
	owner  string
	begin  time.Time
	dur    time.Duration
	err    error
}

// node is one spawned nocserve process.
type node struct {
	url    string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan struct{}
}

// servingCluster is the two-node sharded nocserve tier under test.
type servingCluster struct {
	nodes  []*node
	dir    string
	client *http.Client
}

// basePort is the first of the fixed loopback ports the cluster binds.
// Shard ownership is a hash of the peer URLs, so fixed ports give every
// run the same key-to-node assignment; a run whose ports are taken
// moves to the next pair, and its ownership changes with them.
const basePort = 21480

// freePorts finds the first pair of consecutive fixed ports that are
// both free.
func freePorts() ([]int, error) {
	for p := basePort; p < basePort+40; p += 2 {
		var lns []net.Listener
		for _, port := range []int{p, p + 1} {
			if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
				lns = append(lns, ln)
			}
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
		if len(lns) == 2 {
			return []int{p, p + 1}, nil
		}
	}
	return nil, fmt.Errorf("no free port pair in %d-%d", basePort, basePort+39)
}

// startCluster spawns two nocserve processes sharded with -peers, each
// with a cache of cacheBytes and its own spill directory under dir, and
// waits until both answer /healthz.
func startCluster(bin, dir string, cacheBytes int64) (*servingCluster, error) {
	ports, err := freePorts()
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, p := range ports {
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	c := &servingCluster{
		dir: dir,
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
		},
	}
	for i, u := range urls {
		spill := filepath.Join(dir, fmt.Sprintf("node%d", i))
		n := &node{url: u, exited: make(chan struct{})}
		n.cmd = exec.Command(bin,
			"-addr", strings.TrimPrefix(u, "http://"), "-peers", strings.Join(urls, ","), "-self", u,
			"-cache-bytes", fmt.Sprint(cacheBytes), "-spill", spill,
			"-max-inflight", fmt.Sprint(conns), "-queue-depth", "64")
		n.cmd.Stderr = &n.stderr
		// A node outlives no benchmark, however the benchmark ends.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := n.cmd.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("start nocserve: %w", err)
		}
		go func() { _ = n.cmd.Wait(); close(n.exited) }()
		c.nodes = append(c.nodes, n)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, n := range c.nodes {
		for {
			resp, err := c.client.Get(n.url + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-n.exited:
				c.stop()
				return nil, fmt.Errorf("nocserve %s exited: %s", n.url, n.stderr.String())
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("nocserve %s not healthy within 20s", n.url)
			}
		}
	}
	return c, nil
}

// stop terminates every node, waits for each to exit, and removes the
// spill directories.
func (c *servingCluster) stop() {
	for _, n := range c.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range c.nodes {
		select {
		case <-n.exited:
		case <-time.After(10 * time.Second):
			_ = n.cmd.Process.Kill()
			<-n.exited
		}
	}
	c.client.CloseIdleConnections()
	_ = os.RemoveAll(c.dir)
}

// get requests one item from one node.
func (c *servingCluster) get(nodeIdx int, it item) reply {
	url := fmt.Sprintf("%s/v1/%s/%s?format=%s", c.nodes[nodeIdx].url, it.k.GPU, it.k.Exp, formats[it.format])
	if it.k.Quick {
		url += "&quick=1"
	}
	r := reply{begin: time.Now()}
	resp, err := c.client.Get(url)
	if err != nil {
		r.err = err
		r.dur = time.Since(r.begin)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	r.dur = time.Since(r.begin)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	r.owner = resp.Header.Get("X-Noc-Owner")
	return r
}

// metricz fetches and sums every node's /metricz counters; histogram
// counts and sums appear as "<name>.count" and "<name>.sum".
func (c *servingCluster) metricz() (map[string]int64, error) {
	out := map[string]int64{}
	for _, n := range c.nodes {
		resp, err := c.client.Get(n.url + "/metricz")
		if err != nil {
			return nil, err
		}
		var doc struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Count int64 `json:"count"`
				Sum   int64 `json:"sum"`
			} `json:"histograms"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		_ = resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parse %s/metricz: %w", n.url, err)
		}
		for k, v := range doc.Counters {
			out[k] += v
		}
		for k, h := range doc.Histograms {
			out[k+".count"] += h.Count
			out[k+".sum"] += h.Sum
		}
	}
	return out, nil
}

// residentMB sums the nodes' resident memory (VmRSS in
// /proc/<pid>/status, in KiB) and returns it in MB: the servers' own
// memory, which their /metricz does not report.
func (c *servingCluster) residentMB() (float64, error) {
	var kb int64
	for _, n := range c.nodes {
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("read nocserve memory: %w", err)
		}
		var v int64
		for _, line := range strings.Split(string(status), "\n") {
			if strings.HasPrefix(line, "VmRSS:") {
				_, err = fmt.Sscanf(strings.TrimPrefix(line, "VmRSS:"), "%d kB", &v)
				break
			}
		}
		if v == 0 || err != nil {
			return 0, fmt.Errorf("no VmRSS for nocserve %s: %v", n.url, err)
		}
		kb += v
	}
	return float64(kb) * 1024 / 1e6, nil
}

// zipfMix returns n requests in which the pair of popularity rank r
// occurs in proportion to 1/(r+1)^s, rounded to whole requests by
// largest remainders, in an order and with entry nodes r draws. The mix
// is fixed by n alone: every seed sends each pair equally often and
// only reorders the requests, so the standing failures and the share of
// large entries do not change from seed to seed.
func zipfMix(r *rand.Rand, n int, ranked []item, s float64, nodes int) ([]item, []int) {
	w := make([]float64, len(ranked))
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, len(ranked))
	byRemainder := make([]int, len(ranked))
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		w[i] = exact - float64(counts[i])
		left -= counts[i]
		byRemainder[i] = i
	}
	sort.SliceStable(byRemainder, func(a, b int) bool { return w[byRemainder[a]] > w[byRemainder[b]] })
	for _, i := range byRemainder[:left] {
		counts[i]++
	}
	mix := make([]item, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			mix = append(mix, ranked[i])
		}
	}
	r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
	entry := make([]int, n)
	for i := range entry {
		entry[i] = r.Intn(nodes)
	}
	return mix, entry
}

// checker verifies replies against the recorded digests and counts them.
type checker struct {
	exp      expected
	t        *tally
	sabotage atomic.Bool
}

// verify counts one reply as an operation and reports whether it was a
// 200 whose body matches its digest.
func (ck *checker) verify(it item, r reply) bool {
	switch {
	case r.err != nil:
		ck.t.fail(fmt.Sprintf("%s %s: %v", it.k, formats[it.format], r.err))
	case r.status == http.StatusOK:
		body := r.body
		if ck.sabotage.CompareAndSwap(true, false) {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 1
		}
		if msg := ck.exp.check(it.k, it.format, body); msg != "" {
			ck.t.fail("served body " + msg)
			return false
		}
		ck.t.ok()
		return true
	case r.status == http.StatusInternalServerError && isKnownRefusal(it.k, string(r.body)):
		ck.t.standing()
	default:
		ck.t.fail(fmt.Sprintf("%s %s: HTTP %d: %s", it.k, formats[it.format], r.status, strings.TrimSpace(string(r.body))))
	}
	return false
}

// served is one verified request as the load generator saw it.
type served struct {
	r   reply
	ok  bool
	due time.Time
	// wait is how long an open-loop request waited past its due time
	// for a free connection.
	wait time.Duration
}

// runServe runs serve_churn: set up a warmed two-node cluster, then a
// closed loop for goodput, an open loop at a fixed rate for latency,
// and sweeps over every (key, format) pair for pass_s.
func runServe(o options, t *tally) (metrics, error) {
	m := metrics{}
	exp, err := loadExpected(o.expected)
	if err != nil {
		return nil, err
	}
	keys := quickKeys()
	var items []item
	var working, largest int64
	for _, k := range keys {
		for f := range formats {
			items = append(items, item{k, f})
		}
		if e, ok := exp[k.String()]; ok {
			working += e.entrySize()
			if e.entrySize() > largest {
				largest = e.entrySize()
			}
		}
	}
	cacheBytes := int64(cacheShare * float64(working) / 2)
	if cacheBytes < 2*largest {
		return nil, fmt.Errorf("cache of %d bytes cannot hold the largest entry (%d bytes) twice", cacheBytes, largest)
	}
	checks, err := paperChecks()
	if err != nil {
		return nil, err
	}
	m.set("paper_checks_passed", float64(checks))

	ck := &checker{exp: exp, t: t}
	rng := rand.New(rand.NewSource(o.seed))
	dir, err := filepath.Abs(filepath.Join(o.workdir, "serve", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c, err := startCluster(o.nocserve, dir, cacheBytes)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	spawn := time.Since(start)
	// Warm every key once, in seed order, entering at alternating nodes:
	// a non-owner forwards, so each key is computed once on its owner.
	warmStart := time.Now()
	var warm []item
	for _, k := range permute(rng, keys) {
		warm = append(warm, item{k, 0})
	}
	closedLoop(c, ck, "warm", conns, func(w int, i int64) (item, int, bool) {
		if i >= int64(len(warm)) {
			return item{}, 0, false
		}
		return warm[i], int(i % 2), true
	}, nil)
	warmTime := time.Since(warmStart)
	m.set("setup_s", seconds(time.Since(start)))
	ck.sabotage.Store(o.sabotageBody)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	before, err := c.metricz()
	if err != nil {
		return nil, err
	}
	var ranked []item
	for _, i := range rand.New(rand.NewSource(rankSeed)).Perm(len(items)) {
		ranked = append(ranked, items[i])
	}
	round := time.Duration(o.seconds) * time.Second / rounds
	// Each round: a closed loop for 3/10 of it, the open loop for 1/2,
	// sweeps for 2/10 (an even number, at least 2, so a traced run
	// alternates untraced and traced sweeps).
	closedN := int(closedRate * (round * 3 / 10).Seconds())
	openN := int(openRate * (round / 2).Seconds())
	sweeps := 2 * int(math.Max(1, math.Round(float64(round*2/10)/float64(2*sweepTime))))

	var goodputs, p50s, p99s, plainWalls, tracedWalls, resident []float64
	var closed, open []served
	for r := 0; r < rounds; r++ {
		// Closed loop: conns callers, each sending the next request of
		// a seeded schedule when its last one returns.
		sched, nodes := zipfMix(rng, closedN, ranked, zipfS, len(c.nodes))
		closedStart := time.Now()
		batch := closedLoop(c, ck, "closed", conns, func(_ int, i int64) (item, int, bool) {
			if i >= int64(closedN) {
				return item{}, 0, false
			}
			return sched[i], nodes[i], true
		}, tr)
		good := 0
		for _, s := range batch {
			if s.ok && s.r.dur <= goodputLimit {
				good++
			}
		}
		goodputs = append(goodputs, float64(good)/seconds(time.Since(closedStart)))
		if o.trace {
			closed = append(closed, batch...)
		}

		// Open loop: requests due every 1/openRate seconds on a schedule
		// the seed fixes.
		sched, nodes = zipfMix(rng, openN, ranked, zipfS, len(c.nodes))
		batch = openLoop(c, ck, openN, func(i int) (item, int) { return sched[i], nodes[i] }, tr)
		var lat []time.Duration
		for _, s := range batch {
			if s.ok {
				lat = append(lat, s.wait+s.r.dur)
			}
		}
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		if o.trace {
			open = append(open, batch...)
		}

		// Sweeps: every (key, format) pair once per pass, in a fresh
		// seeded order, over conns connections. A traced run alternates
		// untraced and traced sweeps.
		for pass := 0; pass < sweeps; pass++ {
			var ptr *tracer
			if o.trace && pass%2 == 1 {
				ptr = tr
			}
			order := rng.Perm(len(items))
			entry := make([]int, len(items))
			for i := range entry {
				entry[i] = rng.Intn(len(c.nodes))
			}
			passStart := time.Now()
			closedLoop(c, ck, "sweep", conns, func(_ int, i int64) (item, int, bool) {
				if i >= int64(len(order)) {
					return item{}, 0, false
				}
				return items[order[i]], entry[i], true
			}, ptr)
			wall := seconds(time.Since(passStart))
			if ptr != nil {
				tracedWalls = append(tracedWalls, wall)
			} else {
				plainWalls = append(plainWalls, wall)
				mb, err := c.residentMB()
				if err != nil {
					return nil, err
				}
				resident = append(resident, mb)
			}
		}
	}
	m.set("goodput_rps", median(goodputs))
	m.set("req_p50_ms", median(p50s))
	m.set("req_p99_ms", median(p99s))
	m.set("pass_s", median(plainWalls))
	m.set("alloc_mb", median(resident))

	if o.trace {
		after, err := c.metricz()
		if err != nil {
			return nil, err
		}
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		all := append(closed, open...)
		var late []time.Duration
		var okN, failN float64
		for _, s := range open {
			late = append(late, s.r.begin.Sub(s.due))
			if s.ok {
				okN++
			} else {
				failN++
			}
		}
		var local, forwarded, spill []float64
		for _, s := range all {
			if !s.ok {
				continue
			}
			switch {
			case s.r.cache == "hit" && s.r.owner == "":
				local = append(local, millis(s.r.dur))
			case s.r.cache == "hit":
				forwarded = append(forwarded, millis(s.r.dur))
			case s.r.cache == "spill":
				spill = append(spill, millis(s.r.dur))
			}
		}
		m.set("serve.hit_local_ms", median(local))
		m.set("serve.hit_forwarded_ms", median(forwarded))
		m.set("serve.spill_ms", median(spill))
		if c := delta("http/queue_wait_ms.count"); c > 0 {
			m.set("nocserve.queue_wait_ms", delta("http/queue_wait_ms.sum")/c)
		}
		m.set("nocserve.shed", delta("http/shed"))
		lookups := delta("resultstore/hit") + delta("resultstore/miss") + delta("resultstore/spill_load") + delta("resultstore/coalesced")
		if lookups > 0 {
			m.set("resultstore.hit_ratio", delta("resultstore/hit")/lookups)
		}
		for _, name := range []string{"spill_load", "eviction", "miss", "coalesced"} {
			m.set("resultstore."+name, delta("resultstore/"+name))
		}
		sent := delta("http/requests") - delta("cluster/forwarded")
		for _, name := range []string{"forwarded", "fallback_local", "forward_err"} {
			m.set("cluster."+name, delta("cluster/"+name))
		}
		if sent > 0 {
			m.set("cluster.forward_share", delta("cluster/forwarded")/sent)
		}
		m.set("setup.spawn_s", seconds(spawn))
		m.set("setup.warm_s", seconds(warmTime))
		m.set("loadgen.late_p99_ms", percentile(late, 99))
		m.set("loadgen.sent", float64(len(open)))
		m.set("loadgen.ok", okN)
		m.set("loadgen.failed", failN)
		m.set("trace.overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1))
		if err := tr.write(o.workdir, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// closedLoop runs workers callers; each asks next for its next target
// (worker index, sequence number) and sends it when its last reply has
// returned, until next reports none. It returns every request.
func closedLoop(c *servingCluster, ck *checker, phase string, workers int, next func(w int, i int64) (item, int, bool), tr *tracer) []served {
	var seq atomic.Int64
	out := make([][]served, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				it, n, more := next(w, i)
				if !more {
					return
				}
				r := c.get(n, it)
				ok := ck.verify(it, r)
				r.body = nil
				traceRequest(tr, phase, n, it, r)
				out[w] = append(out[w], served{r: r, ok: ok, due: r.begin})
			}
		}(w)
	}
	wg.Wait()
	return flatten(out)
}

// openLoop sends n requests, request i due at i/openRate seconds after
// the start, from conns connections. A request whose connections are
// all busy at its due time goes late, and that wait counts in its
// latency. The sleep timer's own overshoot (up to a millisecond, the
// runtime's timer resolution here) is the generator's error, not the
// system's: it shows in loadgen.late_p99_ms but not in the latency.
func openLoop(c *servingCluster, ck *checker, n int, at func(i int) (item, int), tr *tracer) []served {
	interval := time.Second / openRate
	var seq atomic.Int64
	out := make([][]served, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				// A request claimed after its due time waited for this
				// connection's previous reply: the system's stall, which
				// counts in its latency.
				var wait time.Duration
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				} else {
					wait = -d
				}
				it, node := at(int(i))
				r := c.get(node, it)
				ok := ck.verify(it, r)
				r.body = nil
				traceRequest(tr, "open", node, it, r)
				out[w] = append(out[w], served{r: r, ok: ok, due: due, wait: wait})
			}
		}(w)
	}
	wg.Wait()
	return flatten(out)
}

// traceRequest records one request span, classified by load phase,
// entry node, X-Cache outcome and whether it took the forward hop.
func traceRequest(tr *tracer, phase string, node int, it item, r reply) {
	if tr == nil {
		return
	}
	hop := "local"
	if r.owner != "" {
		hop = "forwarded"
	}
	tr.add("request", tr.ids.Add(1), -1, r.begin, r.dur, fmt.Sprintf("%s node%d %s %s %s %s", phase, node, hop, r.cache, it.k, formats[it.format]))
}

func flatten(parts [][]served) []served {
	var out []served
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
