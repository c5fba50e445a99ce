package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/newsgen"
	"contextrank/internal/searchsim"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// The ingest-live workload runs a paper-scale searchsim.Engine in-process:
// one writer streams a feed generated beforehand through Add/Commit, a
// background compactor calls Compact the way cmd/ingest does, and an
// open-loop schedule of ResultCount/Search reads runs against the live
// view. Each repetition builds a fresh engine from the same seeded world.

const (
	ingestFeedDocs   = 6000 // stories the writer streams per repetition
	ingestBatch      = 64   // stories per Commit, as cmd/ingest
	ingestReadRate   = 1000 // scheduled reads per second
	ingestReads      = 3000 // reads per repetition: 3 s of schedule, about the writer's run
	ingestSearchOne  = 7    // every 7th read is a Search(phrase, 10), as cmd/ingest
	ingestProbes     = 32   // concept phrases whose counts must never fall
	ingestSampled    = 12   // phrases re-counted by brute force after each repetition
	ingestSecsPerRep = 5
)

// ingestPlan is the generated input of one ingest-live run.
type ingestPlan struct {
	w       *world.World
	corpus  searchsim.CorpusConfig
	feed    []newsgen.Story
	reads   []string // phrase per scheduled read
	sampled []string // phrases checked against a brute-force count
}

// planIngest generates the world, the feed and the read schedule.
func planIngest(seed int64) *ingestPlan {
	w := world.New(world.Config{Seed: seed, VocabSize: 6000, NumConcepts: 1200})
	p := &ingestPlan{w: w, corpus: searchsim.CorpusConfig{Seed: seed + 1, Workers: procs}}
	f := newsgen.NewFeed(w, newsgen.Config{Seed: seed + 2}, ingestBatch)
	for len(p.feed) < ingestFeedDocs {
		p.feed = append(p.feed, f.NextBatch()...)
	}
	p.feed = p.feed[:ingestFeedDocs]

	rng := rand.New(rand.NewSource(seed + 3))
	// Reads cycle through a probe set of concept phrases; the feed mentions
	// them, so their counts climb while the writer runs.
	probes := make([]string, ingestProbes)
	for i := range probes {
		probes[i] = w.Concepts[rng.Intn(len(w.Concepts))].Name
	}
	p.reads = make([]string, ingestReads)
	for i := range p.reads {
		p.reads[i] = probes[rng.Intn(len(probes))]
	}
	p.sampled = append(p.sampled, probes[:ingestSampled/2]...)
	for range ingestSampled - len(p.sampled) {
		p.sampled = append(p.sampled, w.Concepts[rng.Intn(len(w.Concepts))].Name)
	}
	return p
}

// readResult is one scheduled read as observed.
type readResult struct {
	count int
	hits  []int // Search hits (doc ids), nil for ResultCount reads
	err   error // monotonicity violation
}

// ingestRep is what one repetition measured.
type ingestRep struct {
	setup    time.Duration // BuildCorpus (world → frozen base)
	write    time.Duration // the writer over the whole feed
	lat, lag []float64     // read latency and dispatcher lag, ms
	base     int
	engine   *searchsim.Engine
	reads    []readResult
	timings  *ingestTimings // per-call timings, traced repetitions only
}

// ingestTimings are the per-call spans of a traced repetition.
type ingestTimings struct {
	add, commit, compact []float64 // µs, µs, ms (merging Compact calls only)
	resultCount, search  []float64 // µs
}

// runIngestRep builds the base corpus, then runs writer, compactor and the
// read schedule concurrently. With traced set, every Add, Commit, merging
// Compact and read is timed individually.
func runIngestRep(p *ingestPlan, traced bool) *ingestRep {
	rep := &ingestRep{}
	if traced {
		rep.timings = &ingestTimings{}
	}
	t0 := time.Now()
	e := searchsim.BuildCorpus(p.w, p.corpus)
	rep.setup = time.Since(t0)
	rep.engine = e
	rep.base = e.NumDocs()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			start := time.Now()
			merged := e.Compact(procs)
			if !merged {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			if traced {
				rep.timings.compact = append(rep.timings.compact, time.Since(start).Seconds()*1e3)
			}
		}
	}()

	// Read schedule: a dispatcher releases reads at fixed times to conns
	// reader goroutines; latency counts from the intended send time.
	n := len(p.reads)
	rep.lat = make([]float64, n)
	rep.lag = make([]float64, n)
	rep.reads = make([]readResult, n)
	readUS := make([]float64, n)
	ch := make(chan int, n) // sized to the schedule: the dispatcher never blocks
	start := time.Now()
	var readers sync.WaitGroup
	for range conns {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make(map[string]int)
			for i := range ch {
				phrase := p.reads[i]
				due := start.Add(time.Duration(float64(i) / ingestReadRate * float64(time.Second)))
				callStart := time.Now()
				rr := readResult{count: e.ResultCount(phrase)}
				if i%ingestSearchOne == 0 {
					for _, h := range e.Search(phrase, 10) {
						rr.hits = append(rr.hits, h.DocID)
					}
				}
				done := time.Now()
				readUS[i] = done.Sub(callStart).Seconds() * 1e6
				rep.lat[i] = done.Sub(due).Seconds() * 1e3
				if prev, ok := last[phrase]; ok {
					rr.err = checkMonotone(phrase, prev, rr.count)
				}
				last[phrase] = rr.count
				rep.reads[i] = rr
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range n {
			due := start.Add(time.Duration(float64(i) / ingestReadRate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			rep.lag[i] = time.Since(due).Seconds() * 1e3
			ch <- i
		}
		close(ch)
	}()

	// The writer: one Commit per batch, as cmd/ingest.
	w0 := time.Now()
	for b := 0; b < len(p.feed); b += ingestBatch {
		end := min(b+ingestBatch, len(p.feed))
		for _, s := range p.feed[b:end] {
			if traced {
				t := time.Now()
				e.Add(s.Text, s.Topic)
				rep.timings.add = append(rep.timings.add, time.Since(t).Seconds()*1e6)
				continue
			}
			e.Add(s.Text, s.Topic)
		}
		if traced {
			t := time.Now()
			e.Commit()
			rep.timings.commit = append(rep.timings.commit, time.Since(t).Seconds()*1e6)
			continue
		}
		e.Commit()
	}
	rep.write = time.Since(w0)

	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if traced {
		for i := range n {
			if rep.reads[i].hits != nil {
				rep.timings.search = append(rep.timings.search, readUS[i])
			} else {
				rep.timings.resultCount = append(rep.timings.resultCount, readUS[i])
			}
		}
	}
	return rep
}

// checkIngestRep counts every write and read as an operation and runs the
// end-of-run checks: document count, brute-force counts of the sampled
// phrases, and that every Search hit contains its phrase.
func checkIngestRep(r *run, p *ingestPlan, rep *ingestRep) {
	e := rep.engine
	for range p.feed {
		r.op(nil)
	}
	r.op(checkDocCount(e.NumDocs(), rep.base, len(p.feed)))

	// Brute force: tokenize every visible document once, test each sampled
	// phrase; also fetch the words of every Search hit.
	terms := make([][]string, len(p.sampled))
	for i, ph := range p.sampled {
		terms[i] = textproc.Words(ph)
	}
	want := make([]int, len(p.sampled))
	hitWords := make(map[int][]string)
	for _, rr := range rep.reads {
		for _, h := range rr.hits {
			hitWords[h] = nil
		}
	}
	for id := range e.NumDocs() {
		words := textproc.Words(e.Doc(id).Text)
		for i := range terms {
			if containsPhrase(words, terms[i]) {
				want[i]++
			}
		}
		if _, ok := hitWords[id]; ok {
			hitWords[id] = words
		}
	}
	for i, ph := range p.sampled {
		r.op(checkCount(ph, e.ResultCount(ph), want[i]))
	}
	for i, rr := range rep.reads {
		err := rr.err
		for _, h := range rr.hits {
			if err == nil {
				err = checkSearchHit(p.reads[i], h, hitWords[h], textproc.Words(p.reads[i]))
			}
		}
		r.op(err)
	}
}

// ingestWorkload runs ingest-live untraced: repsFor(--seconds) repetitions
// over the same feed, each on a fresh engine.
func ingestWorkload(r *run) error {
	p := planIngest(r.seed)
	var setup, write, lat, lag []float64
	for range repsFor(r.seconds, ingestSecsPerRep) {
		rep := runIngestRep(p, false)
		setup = append(setup, rep.setup.Seconds())
		write = append(write, rep.write.Seconds())
		lat = append(lat, rep.lat...)
		lag = append(lag, rep.lag...)
		checkIngestRep(r, p, rep)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("work_s", median(write), "s")
	r.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	logLatency(lat, lag, write)
	return nil
}
