package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"contextrank"
)

// The annotate workloads drive the cmd/serve binary over loopback TCP.
//
// Each run alternates rounds of a closed loop (conns connections, a fixed
// request count) and an open loop (evenly spaced arrivals at a fixed rate
// well below capacity, each request timed from its intended send time).

// serveSeed is the world cmd/serve builds by default (its -seed flag).
const serveSeed = 42

// annotateTop is the "top" every request asks for.
const annotateTop = 3

// rounds is the number of closed+open round pairs in one run.
const rounds = 10

// setupStarts is how many times a run starts the server to time set-up;
// the median is reported and the last server carries the workload.
const setupStarts = 3

// Offered load. Closed-loop request counts are per round and per second of
// --seconds, so a run measures for about --seconds whatever the host;
// open-loop rates are per second.
const (
	coldClosedPerSec = 260 // closed-loop requests per round per run second
	coldOpenRate     = 120 // open-loop arrivals per second, ~1/4 of capacity
	hotClosedPerSec  = 1050
	hotOpenRate      = 400

	hotWorkingSet = 192 // base documents, against a 1,024-entry cache
	zipfS         = 1.1 // popularity skew of the base documents
	hotFlashTotal = 480 // flash-crowd documents per run (closed + open)
	coldRecheck   = 16  // cold documents re-requested for byte identity
)

// openShare is the share of each round's time spent in the open loop.
const openShare = 0.5

// annotatePlan is the generated input of one annotate run.
type annotatePlan struct {
	docs      []doc
	bodies    [][]byte // pre-encoded request bodies, one per doc
	warm      []int    // warm-up requests (not timed)
	closed    [][]step // per round
	open      [][]arrival
	inventory map[string]bool
}

// arrival is one open-loop request: doc at offset at from the loop start.
type arrival struct {
	at  time.Duration
	doc int
}

// servingWorld builds the world cmd/serve serves, for input generation and
// the concept inventory.
func servingWorld() *contextrank.System {
	cfg := contextrank.SmallConfig(serveSeed)
	cfg.Workers = procs
	return contextrank.Build(cfg)
}

func inventoryOf(sys *contextrank.System) map[string]bool {
	inv := make(map[string]bool, len(sys.Concepts()))
	for _, c := range sys.Concepts() {
		inv[c.Name] = true
	}
	return inv
}

// planAnnotate generates every document and schedule of a run.
func planAnnotate(sys *contextrank.System, seed int64, secs float64, hot bool) (*annotatePlan, error) {
	p := &annotatePlan{inventory: inventoryOf(sys)}
	w := sys.Internal().World
	rng := rand.New(rand.NewSource(seed))
	roundSecs := secs / rounds
	openSecs := roundSecs * openShare
	if !hot {
		nClosed := int(coldClosedPerSec * secs / rounds)
		nOpen := int(coldOpenRate * openSecs)
		total := 64 + rounds*(nClosed+nOpen)
		p.docs = genDocs(w, seed, 1, total)
		if len(p.docs) < total {
			return nil, fmt.Errorf("generated %d distinct documents, want %d", len(p.docs), total)
		}
		next := 0
		take := func() int { next++; return next - 1 }
		for range 64 {
			p.warm = append(p.warm, take())
		}
		for range rounds {
			var cl []step
			for range nClosed {
				cl = append(cl, step{doc: take()})
			}
			p.closed = append(p.closed, cl)
			p.open = append(p.open, evenArrivals(nOpen, coldOpenRate, take))
		}
	} else {
		nClosed := int(hotClosedPerSec * secs / rounds)
		nOpen := int(hotOpenRate * openSecs)
		// Spread the flash crowds evenly over all closed and open requests.
		flashEvery := max(2, rounds*(nClosed+nOpen)/hotFlashTotal)
		flash := hotWorkingSet
		for i := range hotWorkingSet {
			p.warm = append(p.warm, i)
		}
		for range rounds {
			cl, n := hotSchedule(rng, nClosed, hotWorkingSet, flash, flashEvery)
			flash += n
			p.closed = append(p.closed, cl)
			op, n := hotSchedule(rng, nOpen, hotWorkingSet, flash, flashEvery)
			flash += n
			var arr []arrival
			for i, s := range op {
				at := time.Duration(float64(i) / hotOpenRate * float64(time.Second))
				if s.all {
					// A flash crowd: every connection asks at once.
					for range conns {
						arr = append(arr, arrival{at: at, doc: s.doc})
					}
					continue
				}
				arr = append(arr, arrival{at: at, doc: s.doc})
			}
			p.open = append(p.open, arr)
		}
		if p.docs = genDocs(w, seed, 2, flash); len(p.docs) < flash {
			return nil, fmt.Errorf("hot schedule needs %d documents, generated %d", flash, len(p.docs))
		}
	}
	p.bodies = make([][]byte, len(p.docs))
	for i := range p.docs {
		b, err := json.Marshal(map[string]any{"text": p.docs[i].Text, "top": annotateTop})
		if err != nil {
			return nil, err
		}
		p.bodies[i] = b
	}
	return p, nil
}

// evenArrivals schedules n requests at a fixed rate, docs from take.
func evenArrivals(n int, rate float64, take func() int) []arrival {
	arr := make([]arrival, n)
	for i := range arr {
		arr[i] = arrival{at: time.Duration(float64(i) / rate * float64(time.Second)), doc: take()}
	}
	return arr
}

// reply is one response as received. err is a transport error or a
// repeat whose body differs from the document's first.
type reply struct {
	doc    int
	status int
	body   []byte
	err    error
}

// collector keeps the first body seen per document and checks every later
// one against it byte for byte (repeat requests must be identical). Every
// reply that needs the full check afterwards is kept: all of them with
// keepAll, else the first per document and the failures, while matching
// repeats are only counted.
type collector struct {
	mu      sync.Mutex
	first   map[int][]byte
	replies []reply
	keepAll bool
	matched int64
}

func newCollector(keepAll bool) *collector {
	return &collector{first: make(map[int][]byte), keepAll: keepAll}
}

func (c *collector) add(rp reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rp.err == nil && rp.status == 200 {
		if f, ok := c.first[rp.doc]; ok {
			rp.err = sameBody(f, rp.body)
			if rp.err == nil && !c.keepAll {
				c.matched++
				return
			}
		} else {
			c.first[rp.doc] = rp.body
		}
	}
	c.replies = append(c.replies, rp)
}

// closedLoop sends the steps over conns connections, each connection
// sending its next request when the previous one completes. A flash step
// is sent by every connection at once, after the steps before it finished.
func closedLoop(cl *client, p *annotatePlan, steps []step, col *collector) time.Duration {
	start := time.Now()
	i := 0
	for i < len(steps) {
		j := i
		for j < len(steps) && !steps[j].all {
			j++
		}
		seg := steps[i:j]
		var next atomic.Int64
		var wg sync.WaitGroup
		for range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(seg) {
						return
					}
					send(cl, p, seg[k].doc, col)
				}
			}()
		}
		wg.Wait()
		if j < len(steps) {
			for range conns {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					send(cl, p, d, col)
				}(steps[j].doc)
			}
			wg.Wait()
			j++
		}
		i = j
	}
	return time.Since(start)
}

func send(cl *client, p *annotatePlan, d int, col *collector) {
	status, body, err := cl.annotate(p.bodies[d])
	col.add(reply{doc: d, status: status, body: body, err: err})
}

// openLoop dispatches the arrivals on schedule to conns connection workers
// and returns each request's latency from its intended send time, plus how
// late the dispatcher released each request (the generator's own lag).
func openLoop(cl *client, p *annotatePlan, arr []arrival, col *collector) (lat, lag []float64) {
	lat = make([]float64, len(arr))
	lag = make([]float64, len(arr))
	ch := make(chan int, len(arr)) // sized to the schedule: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				send(cl, p, arr[i].doc, col)
				lat[i] = time.Since(start.Add(arr[i].at)).Seconds() * 1e3
			}
		}()
	}
	for i := range arr {
		due := start.Add(arr[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due).Seconds() * 1e3
		ch <- i
	}
	close(ch)
	wg.Wait()
	return lat, lag
}

// annotateResult is what one served annotate run measured.
type annotateResult struct {
	setup     []float64 // per server start, s
	rssMB     float64
	roundSecs []float64 // closed-loop round times
	lat, lag  []float64 // open-loop, ms
}

// annotateWorkload runs annotate-cold untraced. The hot plan is only
// replayed by the traced run (see README.md).
func annotateWorkload(r *run) error {
	sys := servingWorld()
	plan, err := planAnnotate(sys, r.seed, r.seconds, false)
	if err != nil {
		return err
	}
	res, err := serveAnnotate(r, plan)
	if err != nil {
		return err
	}
	r.set("setup_s", median(res.setup), "s")
	r.set("peak_rss_mb", res.rssMB, "MB")
	r.set("work_s", median(res.roundSecs), "s")
	r.set("latency_p50_ms", quantile(res.lat, 0.5), "ms")
	logLatency(res.lat, res.lag, res.roundSecs)
	return nil
}

// serveAnnotate starts the server, runs a cold plan, checks every response
// and stops the server.
func serveAnnotate(r *run, plan *annotatePlan) (*annotateResult, error) {
	res := &annotateResult{}
	var srv *server
	for range setupStarts {
		if srv != nil {
			srv.stop()
		}
		s, setup, err := startServer(r.serveBin)
		if err != nil {
			return nil, err
		}
		srv = s
		res.setup = append(res.setup, setup.Seconds())
	}
	defer srv.stop()
	cl := newClient(srv.addr)
	defer cl.close()

	// Warm-up: connections and pools, on documents never requested again.
	warm := newCollector(false)
	closedLoop(cl, plan, stepsOf(plan.warm), warm)
	checkReplies(r, plan, warm, false)

	col := newCollector(true)
	// The load generator shares the server's CPU: keep its own garbage
	// collector (over the kept response bodies) out of the measured phase.
	gc := debug.SetGCPercent(-1)
	for k := range rounds {
		res.roundSecs = append(res.roundSecs, closedLoop(cl, plan, plan.closed[k], col).Seconds())
		lat, lag := openLoop(cl, plan, plan.open[k], col)
		res.lat = append(res.lat, lat...)
		res.lag = append(res.lag, lag...)
	}
	debug.SetGCPercent(gc)
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	// Re-request a sample of documents: long evicted, they run the pipeline
	// again and must produce the same bytes.
	for i := range coldRecheck {
		send(cl, plan, plan.closed[0][i*len(plan.closed[0])/coldRecheck].doc, col)
	}
	checkReplies(r, plan, col, true)
	return res, nil
}

func stepsOf(docs []int) []step {
	s := make([]step, len(docs))
	for i, d := range docs {
		s[i] = step{doc: d}
	}
	return s
}

// checkReplies counts every reply as an operation and checks it; repeats
// that matched their document's first body on arrival pass as they are.
// Warm-up replies (count false) are checked as one operation, failed if
// any of them failed.
func checkReplies(r *run, plan *annotatePlan, col *collector, count bool) {
	var warmErr error
	for _, rp := range col.replies {
		err := rp.err
		if err == nil {
			err = checkAnnotate(rp.status, rp.body, &plan.docs[rp.doc], annotateTop, plan.inventory)
		}
		switch {
		case count:
			r.op(err)
		case err != nil && warmErr == nil:
			warmErr = fmt.Errorf("warm-up: %w", err)
		}
	}
	if !count {
		r.op(warmErr)
		return
	}
	for range col.matched {
		r.op(nil)
	}
}
