package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"contextrank"
	"contextrank/internal/clicksim"
	"contextrank/internal/core"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/resilience"
	"contextrank/internal/searchsim"
	"contextrank/internal/serve"
	"contextrank/internal/taxonomy"
	"contextrank/internal/textproc"
	"contextrank/internal/units"
	"contextrank/internal/wiki"
	"contextrank/internal/world"
)

// The traced run. Spans are recorded from outside the program: the trace
// replays the run's seeded inputs through the public calls of each layer
// in-process, timing each call, and reads the program's own counters only
// through public surfaces (/statz, Engine.Stats, Runtime.Throughput,
// MemoryFootprint). Every traced run covers every layer, so it prints every
// per-layer metric; the traced workload's own untraced reference gives the
// stage coverage and the tracing overhead.

// layerMetric is one per-layer metric name and unit.
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	{"serve.handler_miss_us", "us"},
	{"serve.handler_hit_us", "us"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_coalesced", "count"},
	{"serve.cache_evictions", "count"},
	{"serve.cache_fills_per_key", "ratio"},
	{"serve.latency_p99_ms", "ms"},
	{"framework.annotate_us", "us"},
	{"framework.stem_us", "us"},
	{"detect.detect_us", "us"},
	{"framework.rank_us", "us"},
	{"textproc.tokenize_us", "us"},
	{"taxonomy.match_us", "us"},
	{"units.match_us", "us"},
	{"framework.interest_ns", "ns"},
	{"framework.pack_score_ns", "ns"},
	{"ranksvm.score_ns", "ns"},
	{"framework.alloc_kb_per_doc", "KB"},
	{"detect.detections_per_doc", "count"},
	{"framework.stem_mbps", "MB/s"},
	{"framework.rank_mbps", "MB/s"},
	{"searchsim.add_us", "us"},
	{"searchsim.commit_us", "us"},
	{"searchsim.compact_ms", "ms"},
	{"searchsim.compactions", "count"},
	{"searchsim.segments", "count"},
	{"searchsim.result_count_us", "us"},
	{"searchsim.search_us", "us"},
	{"searchsim.memo_hit_ratio", "ratio"},
	{"searchsim.read_p99_ms", "ms"},
	{"searchsim.raw_bytes", "B"},
	{"searchsim.frozen_bytes", "B"},
	{"searchsim.build_corpus_s", "s"},
	{"world.new_s", "s"},
	{"querylog.generate_s", "s"},
	{"units.extract_s", "s"},
	{"wiki.build_s", "s"},
	{"taxonomy.build_s", "s"},
	{"newsgen.generate_s", "s"},
	{"clicksim.simulate_s", "s"},
	{"relevance.mine_s", "s"},
	{"features.fields_s", "s"},
	{"ranksvm.fit_linear_s", "s"},
	{"framework.pack_s", "s"},
	{"framework.interest_bytes", "B"},
	{"framework.pack_bytes", "B"},
	{"core.dataset_s", "s"},
	{"core.table3_s", "s"},
	{"core.table4_s", "s"},
	{"core.table5_s", "s"},
	{"ranksvm.fit_rbf_s", "s"},
	{"ranksvm.rbf_support_pairs", "count"},
	{"loadgen.lag_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

// tracer accumulates the traced run's metrics.
type tracer struct {
	r    *run
	own  string
	lags []float64 // p99 dispatcher lag of each schedule the trace ran, ms
}

func (t *tracer) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			t.r.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// span times fn in seconds.
func span(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// traceWorkload runs every traced section, then the traced workload's own
// untraced reference for coverage and overhead.
func traceWorkload(r *run, name string) error {
	t := &tracer{r: r, own: name}
	sys := servingWorld()
	ranker, err := sys.TrainRanker()
	if err != nil {
		return err
	}
	docs := genDocs(sys.Internal().World, r.seed, 1, traceDocs)

	annCov, annOver := t.framework(sys, ranker.Runtime(), docs)
	if err := t.handler(ranker.Runtime(), docs, inventoryOf(sys)); err != nil {
		return err
	}
	if err := t.served(sys, ranker.Runtime()); err != nil {
		return err
	}
	ingCov, ingOver := t.ingest()
	buildCov, buildOver, err := t.offlineBuild()
	if err != nil {
		return err
	}
	reproCov, reproOver, err := t.repro()
	if err != nil {
		return err
	}
	t.set("loadgen.lag_ms", slices.Max(t.lags))

	switch name {
	case "annotate-cold":
		t.set("trace.coverage", annCov)
		t.set("trace.overhead_pct", annOver)
	case "ingest-live":
		t.set("trace.coverage", ingCov)
		t.set("trace.overhead_pct", ingOver)
	case "offline-build":
		t.set("trace.coverage", buildCov)
		t.set("trace.overhead_pct", buildOver)
	case "offline-repro":
		t.set("trace.coverage", reproCov)
		t.set("trace.overhead_pct", reproOver)
	}
	return nil
}

// traceDocs is how many generated documents the in-process replays use.
const traceDocs = 300

// framework replays the documents through AnnotateCtx untraced, then again
// with every stage timed separately: stem pass, detection, tokenization,
// dictionary and unit matching, and per-detection interest lookup, pack
// score and model score. It returns the annotate coverage (independently
// timed stages against AnnotateCtx) and overhead (per-call spans against
// the untimed loop), in percent.
func (t *tracer) framework(sys *contextrank.System, rt *framework.Runtime, docs []doc) (coverage, overheadPct float64) {
	ctx := context.Background()
	in := sys.Internal()
	inventory := inventoryOf(sys)

	// Untraced: one timer around the loop; allocation and throughput
	// counters from the runtime's public surfaces.
	for i := range docs { // warm the pooled scratch and stem memo
		_, _ = rt.AnnotateCtx(ctx, docs[i].Text, annotateTop)
	}
	untimedLoop := func() float64 {
		return span(func() {
			for i := range docs {
				_, _ = rt.AnnotateCtx(ctx, docs[i].Text, annotateTop)
			}
		})
	}
	rt.ResetTimers()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced := untimedLoop()
	runtime.ReadMemStats(&ms1)
	stemMBps, rankMBps := rt.Throughput()
	n := float64(len(docs))
	t.set("framework.alloc_kb_per_doc", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/n)
	t.set("framework.stem_mbps", stemMBps)
	t.set("framework.rank_mbps", rankMBps)

	var annotate, stem, det, tok, taxo, unit, interest, pack, score float64
	var detections, lookups int
	var tokens []textproc.Token
	var words []string
	var ids []uint32
	var tm []taxonomy.Match
	var um []units.Match
	var fv, std []float64
	groups := features.AllGroups()
	for i := range docs {
		text := docs[i].Text
		var anns []framework.Annotation
		annotate += span(func() { anns, _ = rt.AnnotateCtx(ctx, text, annotateTop) })
		t.r.op(checkAnnotations(text, wireAnnotations(anns), docs[i].Patterns, annotateTop, inventory))
		var stems map[string]bool
		stem += span(func() { stems = rt.StemDoc(text) })
		var ds []detect.Detection
		det += span(func() { ds = rt.Pipeline.Detect(text) })
		detections += len(ds)
		tok += span(func() { tokens = textproc.TokenizeInto(text, tokens[:0]) })
		words = words[:0]
		for _, tk := range tokens {
			if tk.IsWord() {
				words = append(words, tk.Norm)
			}
		}
		taxo += span(func() {
			ids = in.Dict.Vocab().AppendIDs(ids[:0], words)
			tm = in.Dict.FindInIDs(ids, tm[:0])
		})
		unit += span(func() {
			ids = in.Units.Vocab().AppendIDs(ids[:0], words)
			um = in.Units.FindInIDs(ids, um[:0])
		})
		// Per-detection lookups, each kind timed as one loop over the
		// document's supported concepts.
		var supported []detect.Detection
		for _, d := range ds {
			if d.Kind != detect.KindPattern {
				if _, ok := rt.Interest.Fields(d.Norm); ok {
					supported = append(supported, d)
				}
			}
		}
		lookups += len(supported)
		fields := make([]features.Fields, len(supported))
		interest += span(func() {
			for j, d := range supported {
				fields[j], _ = rt.Interest.Fields(d.Norm)
			}
		})
		tids := rt.Packs.DocTIDs(stems)
		rels := make([]float64, len(supported))
		pack += span(func() {
			for j, d := range supported {
				rels[j] = rt.Packs.Score(d.Norm, tids)
			}
		})
		vecs := make([][]float64, len(supported))
		for j := range supported {
			fv = fields[j].AppendExpand(fv[:0], groups)
			vecs[j] = append(append([]float64(nil), fv...), math.Log1p(rels[j]))
		}
		score += span(func() {
			for _, v := range vecs {
				if cap(std) < len(v) {
					std = make([]float64, 0, len(v))
				}
				rt.Model.ScoreBuf(v, std)
			}
		})
	}
	us := 1e6 / n
	t.set("framework.annotate_us", annotate*us)
	t.set("framework.stem_us", stem*us)
	t.set("detect.detect_us", det*us)
	t.set("framework.rank_us", (annotate-stem-det)*us)
	t.set("textproc.tokenize_us", tok*us)
	t.set("taxonomy.match_us", taxo*us)
	t.set("units.match_us", unit*us)
	t.set("detect.detections_per_doc", float64(detections)/n)
	perLookup := 1e9 / math.Max(1, float64(lookups))
	t.set("framework.interest_ns", interest*perLookup)
	t.set("framework.pack_score_ns", pack*perLookup)
	t.set("ranksvm.score_ns", score*perLookup)
	// The untimed loop runs again after the traced one; their mean is the
	// reference, so drift over the replay does not read as overhead.
	untraced = (untraced + untimedLoop()) / 2
	coverage = (stem + det + interest + pack + score) / annotate
	return coverage, 100 * (annotate - untraced) / untraced
}

// handler times serve.Server's handler in-process, configured as cmd/serve
// configures it: each document once on a cold cache (a miss, which runs the
// pipeline) and once more (normally a hit; see the cache fault in
// README.md). The two bodies must match.
func (t *tracer) handler(rt *framework.Runtime, docs []doc, inventory map[string]bool) error {
	srv := serve.NewServer(rt, nil)
	srv.Timeout = 2 * time.Second
	srv.Gate = resilience.NewGate(64, 32, 100*time.Millisecond)
	srv.Cache = serve.NewCache(1024)
	h := srv.Handler()
	call := func(body []byte) (float64, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		return span(func() { h.ServeHTTP(rec, req) }), rec
	}
	var miss, hit []float64
	for i := range docs {
		body, err := json.Marshal(map[string]any{"text": docs[i].Text, "top": annotateTop})
		if err != nil {
			return err
		}
		dm, first := call(body)
		dh, second := call(body)
		miss = append(miss, dm*1e6)
		hit = append(hit, dh*1e6)
		err = sameBody(first.Body.Bytes(), second.Body.Bytes())
		if err == nil {
			err = checkAnnotate(first.Code, first.Body.Bytes(), &docs[i], annotateTop, inventory)
		}
		t.r.op(err)
	}
	t.set("serve.handler_miss_us", median(miss))
	t.set("serve.handler_hit_us", median(hit))
	return nil
}

// tracePlanSecs sizes the annotate plan the trace replays.
const tracePlanSecs = 10

// served replays an annotate plan against the cmd/serve binary
// (annotate-cold's own plan when tracing it, the hot plan otherwise)
// and reads the cache counters from /statz. A sample of served bodies must
// equal the in-process runtime's output for the same text.
func (t *tracer) served(sys *contextrank.System, rt *framework.Runtime) error {
	hot := t.own != "annotate-cold"
	plan, err := planAnnotate(sys, t.r.seed, tracePlanSecs, hot)
	if err != nil {
		return err
	}
	srv, _, err := startServer(t.r.serveBin)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.addr)
	defer cl.close()
	warm := newCollector(false)
	closedLoop(cl, plan, stepsOf(plan.warm), warm)
	checkReplies(t.r, plan, warm, false)

	before, err := cl.statz()
	if err != nil {
		return err
	}
	col := newCollector(false)
	var lat, lag []float64
	for k := range rounds {
		closedLoop(cl, plan, plan.closed[k], col)
		l, g := openLoop(cl, plan, plan.open[k], col)
		lat, lag = append(lat, l...), append(lag, g...)
	}
	after, err := cl.statz()
	if err != nil {
		return err
	}
	checkReplies(t.r, plan, col, true)
	t.lags = append(t.lags, quantile(lag, 0.99))
	t.set("serve.latency_p99_ms", quantile(lat, 0.99))

	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	coalesced := after.Cache.Coalesced - before.Cache.Coalesced
	t.set("serve.cache_hits", float64(hits))
	t.set("serve.cache_misses", float64(misses))
	t.set("serve.cache_coalesced", float64(coalesced))
	t.set("serve.cache_evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	// Pipeline runs (misses that did not coalesce) per distinct document
	// that was not already cached: 1.0 when every new document is
	// computed exactly once.
	warmed := make(map[int]bool, len(plan.warm))
	for _, d := range plan.warm {
		warmed[d] = true
	}
	fresh := 0
	for d := range col.first {
		if !warmed[d] {
			fresh++
		}
	}
	t.set("serve.cache_fills_per_key", float64(misses-coalesced)/math.Max(1, float64(fresh)))

	// Served bodies against the in-process runtime, byte for byte.
	k := 0
	for d, body := range col.first {
		if k == servedSample {
			break
		}
		k++
		anns, err := rt.AnnotateCtx(context.Background(), plan.docs[d].Text, annotateTop)
		if err != nil {
			t.r.op(err)
			continue
		}
		t.r.op(sameServed(body, expectedBody(plan.docs[d].Text, anns)))
	}
	return nil
}

// servedSample is how many served bodies the trace compares in-process.
const servedSample = 32

// expectedBody renders annotations exactly as /v1/annotate serializes them.
func expectedBody(text string, anns []framework.Annotation) []byte {
	resp := serve.AnnotateResponse{Text: text, Annotations: make([]serve.AnnotationJSON, 0, len(anns))}
	for _, a := range anns {
		aj := serve.AnnotationJSON{
			Text: a.Detection.Text, Concept: a.Detection.Norm, Kind: a.Detection.Kind.String(),
			Score: a.Score, Relevance: a.Relevance, Start: a.Detection.Start, End: a.Detection.End,
		}
		if a.Detection.Kind == detect.KindPattern {
			aj.Type = a.Detection.PatternType
		} else if a.Detection.Entry != nil {
			aj.Type = a.Detection.Entry.Type.String()
			aj.Subtype = a.Detection.Entry.Subtype
		}
		resp.Annotations = append(resp.Annotations, aj)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		panic(err) // only marshalable fields
	}
	return append(b, '\n')
}

func sameServed(served, inProcess []byte) error {
	if !bytes.Equal(served, inProcess) {
		return fmt.Errorf("serve: served body (%d B) differs from in-process AnnotateCtx output (%d B)", len(served), len(inProcess))
	}
	return nil
}

// ingest runs one traced ingest repetition (every Add, Commit, merging
// Compact and read timed). Coverage is the Add and Commit spans against the
// writer.
func (t *tracer) ingest() (coverage, overheadPct float64) {
	p := planIngest(t.r.seed)
	// For ingest-live itself an untraced repetition runs before and after
	// the traced one; their mean writer time is the reference.
	var untraced float64
	reference := func() {
		if t.own == "ingest-live" {
			ref := runIngestRep(p, false)
			checkIngestRep(t.r, p, ref)
			untraced += ref.write.Seconds() / 2
		}
	}
	reference()
	rep := runIngestRep(p, true)
	checkIngestRep(t.r, p, rep)
	tm := rep.timings
	st := rep.engine.Stats()
	t.set("searchsim.add_us", median(tm.add))
	t.set("searchsim.commit_us", median(tm.commit))
	t.set("searchsim.compact_ms", sum(tm.compact))
	t.set("searchsim.compactions", float64(st.Compactions))
	t.set("searchsim.segments", float64(st.Segments))
	t.set("searchsim.result_count_us", median(tm.resultCount))
	t.set("searchsim.search_us", median(tm.search))
	t.set("searchsim.memo_hit_ratio", float64(st.CacheHits)/math.Max(1, float64(st.CacheHits+st.CacheMisses)))
	t.set("searchsim.raw_bytes", float64(st.RawBytes))
	t.set("searchsim.frozen_bytes", float64(st.FrozenBytes))
	t.lags = append(t.lags, quantile(rep.lag, 0.99))
	t.set("searchsim.read_p99_ms", quantile(rep.lat, 0.99))
	coverage = (sum(tm.add) + sum(tm.commit)) / 1e6 / rep.write.Seconds()
	if t.own != "ingest-live" {
		return coverage, 0
	}
	reference()
	return coverage, 100 * (rep.write.Seconds() - untraced) / untraced
}

// offlineBuild replays core.Build stage by stage at paper scale, calling the
// same public constructors in the same order with the same derived seeds,
// then the TrainRanker stages on a built system. Coverage is the timed
// stages against the traced replay's wall clock.
func (t *tracer) offlineBuild() (coverage, overheadPct float64, err error) {
	cfg := paperConfig(worldSeeds(t.r.seed, 1)[0])
	seed := cfg.Seed
	// For offline-build itself an untraced Build+TrainRanker runs before
	// and after the replay, so neither side alone pays the process's
	// first-touch page faults; their mean is the reference.
	var untraced float64
	reference := func() error {
		if t.own != "offline-build" {
			return nil
		}
		rep, err := runBuildRep(cfg)
		if err != nil {
			return err
		}
		t.r.op(checkArtifact(builtArtifact(rep)))
		untraced += (rep.build + rep.train).Seconds() / 2
		return nil
	}
	if err := reference(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	var stages, traced float64
	stage := func(name string, fn func()) {
		d := span(fn)
		stages += d
		t.set(name, d)
	}
	var w *world.World
	wc := cfg.World
	wc.Seed = seed + 1
	stage("world.new_s", func() { w = world.New(wc) })
	var log *querylog.Log
	stage("querylog.generate_s", func() { log = querylog.Generate(w, querylog.Config{Seed: seed + 2}) })
	stage("units.extract_s", func() { _ = units.Extract(log, cfg.Units) })
	var eng *searchsim.Engine
	stage("searchsim.build_corpus_s", func() {
		eng = searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: seed + 3, Workers: cfg.Workers})
	})
	stage("wiki.build_s", func() { _ = wiki.Build(w, wiki.Config{Seed: seed + 4}) })
	stage("taxonomy.build_s", func() { _ = taxonomy.Build(w, seed+7) })
	var stories []newsgen.Story
	stage("newsgen.generate_s", func() { stories = newsgen.Generate(w, newsgen.Config{Seed: seed + 5, NumStories: cfg.News.NumStories}) })
	stage("clicksim.simulate_s", func() {
		_ = clicksim.Simulate(stories, clicksim.Config{Seed: seed + 6}.WithDefaults())
	})

	traced = time.Since(start).Seconds()

	// TrainRanker's stages need the system's caches, so they run on a
	// system from Build (untimed; its stages were timed above).
	sys := contextrank.Build(cfg)
	start = time.Now()
	in := sys.Internal()
	names := make([]string, len(sys.Concepts()))
	for i, c := range sys.Concepts() {
		names[i] = c.Name
	}
	var store *relevance.Store
	stage("relevance.mine_s", func() { store = in.RelevanceStore(relevance.Snippets) })
	stage("features.fields_s", func() { in.WarmFields(names) })
	method := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: seed}}
	groups := in.Dataset([]relevance.Resource{relevance.Snippets})
	stage("ranksvm.fit_linear_s", func() { err = method.Fit(groups) })
	if err != nil {
		return 0, 0, err
	}
	var table *framework.InterestTable
	var packs *framework.KeywordPacks
	stage("framework.pack_s", func() {
		table = framework.BuildInterestTable(names, in.Fields)
		packs = framework.BuildKeywordPacks(store)
	})
	rt := framework.NewRuntime(in.Pipeline, table, packs, method.Model())
	t.set("framework.interest_bytes", float64(rt.Interest.MemoryBytes()))
	t.set("framework.pack_bytes", float64(rt.Packs.TotalBytes()))
	traced += time.Since(start).Seconds()
	coverage = stages / traced

	// The replay must have rebuilt what Build builds: same index.
	if got, want := eng.Stats(), in.Engine.Stats(); got.Docs != want.Docs || got.RawBytes != want.RawBytes || got.FrozenBytes != want.FrozenBytes {
		t.r.op(fmt.Errorf("build: staged replay index (%d docs, %d B) differs from Build's (%d docs, %d B)", got.Docs, got.RawBytes, want.Docs, want.RawBytes))
	} else {
		t.r.op(nil)
	}
	// The staged artifact must pass the same checks as the built one.
	t.r.op(checkArtifact(artifactOf(rt, in.Engine, names)))
	if t.own != "offline-build" {
		return coverage, 0, nil
	}
	if err := reference(); err != nil {
		return 0, 0, err
	}
	return coverage, 100 * (traced - untraced) / untraced, nil
}

// timedMethod wraps a core.Method and accumulates the busy time inside Fit
// across concurrent cross-validation folds.
type timedMethod struct {
	inner   core.Method
	busy    *atomic.Int64 // ns
	support *atomic.Int64 // support pairs over all fitted models
}

func (m *timedMethod) Name() string { return m.inner.Name() }

func (m *timedMethod) Fit(train []core.Group) error {
	t := time.Now()
	err := m.inner.Fit(train)
	m.busy.Add(int64(time.Since(t)))
	if lm, ok := m.inner.(*core.LearnedMethod); ok && lm.Model() != nil {
		m.support.Add(int64(len(lm.Model().SupportPairs)))
	}
	return err
}

func (m *timedMethod) Score(g *core.Group) []float64 { return m.inner.Score(g) }

// CloneMethod keeps the wrapped method's concurrent folds.
func (m *timedMethod) CloneMethod() core.Method {
	return &timedMethod{inner: m.inner.(core.Cloneable).CloneMethod(), busy: m.busy, support: m.support}
}

// repro runs the small Build and Tables III–V for the run's first world,
// each table timed; then Table V's RBF ablation again through timedMethod
// for the busy time inside Fit; then the dataset join. For offline-repro
// itself the tables run once more untraced for the overhead.
func (t *tracer) repro() (coverage, overheadPct float64, err error) {
	cv := worldSeeds(t.r.seed, 1)[0]
	sys := contextrank.Build(smallConfig(cv))
	in := sys.Internal()
	start := time.Now()
	var t3 core.Table3
	var t4 core.Table4
	var t5 core.Table5
	var e3, e4, e5 error
	d3 := span(func() { t3, e3 = in.Table3(reproFolds, cv) })
	d4 := span(func() { t4, e4 = in.Table4(reproFolds, cv) })
	d5 := span(func() { t5, e5 = in.Table5(reproFolds, cv) })
	traced := time.Since(start).Seconds()
	for _, e := range []error{e3, e4, e5} {
		if e != nil {
			return 0, 0, e
		}
	}
	t.r.op(checkRandom(t3.Random.WeightedErrorRate))
	t.r.op(checkRandom(t4.Random.WeightedErrorRate))
	t.r.op(checkRepro(reproErrors{random: t5.Random.WeightedErrorRate, conceptVector: t5.ConceptVector.WeightedErrorRate, interest: t5.BestInterest.WeightedErrorRate, combined: t5.Combined.WeightedErrorRate}))
	t.set("core.table3_s", d3)
	t.set("core.table4_s", d4)
	t.set("core.table5_s", d5)

	groups := in.Dataset([]relevance.Resource{relevance.Snippets})
	t.set("core.dataset_s", span(func() { groups = in.Dataset([]relevance.Resource{relevance.Snippets}) }))
	// Table V's RBF ablation, configured as Table5 configures it.
	var busy, support atomic.Int64
	rbf := &timedMethod{inner: &core.LearnedMethod{
		Label: "Interestingness + Relevance (RBF)", UseRelevance: true, Resource: relevance.Snippets,
		Options: ranksvm.Options{Seed: cv, Kernel: ranksvm.RBF, MaxPairsPerGroup: 10},
	}, busy: &busy, support: &support}
	res, err := core.CrossValidateWorkers(groups, rbf, reproFolds, cv, procs)
	if err != nil {
		return 0, 0, err
	}
	// The wrapped run must reproduce Table V's RBF row exactly.
	if res.WeightedErrorRate != t5.CombinedRBF.WeightedErrorRate {
		t.r.op(fmt.Errorf("repro: timed RBF run weighted error %.6f, Table V says %.6f", res.WeightedErrorRate, t5.CombinedRBF.WeightedErrorRate))
	} else {
		t.r.op(nil)
	}
	t.set("ranksvm.fit_rbf_s", time.Duration(busy.Load()).Seconds())
	t.set("ranksvm.rbf_support_pairs", float64(support.Load())/reproFolds)
	coverage = (d3 + d4 + d5) / traced
	if t.own != "offline-repro" {
		return coverage, 0, nil
	}
	untraced := span(func() {
		_, e3 = in.Table3(reproFolds, cv)
		_, e4 = in.Table4(reproFolds, cv)
		_, e5 = in.Table5(reproFolds, cv)
	})
	for _, e := range []error{e3, e4, e5} {
		if e != nil {
			return 0, 0, e
		}
	}
	return coverage, 100 * (traced - untraced) / untraced, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
