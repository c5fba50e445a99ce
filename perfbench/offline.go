package main

import (
	"context"
	"time"

	"contextrank"
	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// The offline workloads run the library in-process. Build and training
// time depend on the generated world, so each run covers several worlds
// derived from its seed and reports medians across them: that keeps one
// unusual world from moving a run.
//
// offline-build: for each world, a paper-scale contextrank.Build followed
// by TrainRanker, which produces the artifact cmd/serve ships. Its latency
// metrics are the per-document AnnotateCtx latency of each freshly built
// artifact over documents generated from its world.
//
// offline-repro: for each world, a small-scale Build, then Tables III, IV
// and V with 5-fold cross-validation. Its latency metrics are the per-table
// wall clocks.

const (
	buildDocs       = 300 // documents annotated with each freshly built artifact
	buildSecsPerRep = 3.75
	reproFolds      = 5 // the paper's 5-fold cross-validation
	reproSecsPerRep = 7.5
)

// repsFor is the number of worlds a run of secs seconds covers at about
// perRep seconds each (at least one). The count depends only on --seconds,
// so every run with the same arguments does the same work.
func repsFor(secs, perRep float64) int {
	return max(1, int(secs/perRep+0.5))
}

// worldSeeds derives a run's world seeds from its seed.
func worldSeeds(seed int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = seed*1000 + int64(i)
	}
	return s
}

// paperConfig is the paper-scale configuration of a seed at procs workers.
func paperConfig(seed int64) contextrank.Config {
	cfg := contextrank.PaperConfig(seed)
	cfg.Workers = procs
	return cfg
}

// paperWorld generates the world Build(paperConfig(seed)) builds, so the
// documents can be generated before the clock starts (core.Build derives
// the world seed as Seed+1).
func paperWorld(seed int64) *world.World {
	wc := paperConfig(seed).World
	wc.Seed = seed + 1
	return world.New(wc)
}

// buildRep is one offline-build repetition.
type buildRep struct {
	build, train time.Duration
	sys          *contextrank.System
	ranker       *contextrank.Ranker
}

func runBuildRep(cfg contextrank.Config) (*buildRep, error) {
	t0 := time.Now()
	sys := contextrank.Build(cfg)
	t1 := time.Now()
	ranker, err := sys.TrainRanker()
	if err != nil {
		return nil, err
	}
	return &buildRep{build: t1.Sub(t0), train: time.Since(t1), sys: sys, ranker: ranker}, nil
}

// artifactOf reads the table sizes a check needs through public surfaces:
// the MemoryFootprint sizes, per-concept pack sizes and the index stats.
func artifactOf(rt *framework.Runtime, eng *searchsim.Engine, concepts []string) artifact {
	st := eng.Stats()
	a := artifact{concepts: rt.Interest.Len(), interestBytes: rt.Interest.MemoryBytes(), rawBytes: st.RawBytes, frozenBytes: st.FrozenBytes}
	for _, c := range concepts {
		a.maxPackBytes = max(a.maxPackBytes, rt.Packs.BytesFor(c))
	}
	return a
}

// builtArtifact is artifactOf for a built repetition.
func builtArtifact(rep *buildRep) artifact {
	names := make([]string, 0, len(rep.sys.Concepts()))
	for _, c := range rep.sys.Concepts() {
		names = append(names, c.Name)
	}
	return artifactOf(rep.ranker.Runtime(), rep.sys.Internal().Engine, names)
}

// annotateInProcess runs AnnotateCtx on each document, timing each call,
// and checks every result the way the served workloads check responses.
func annotateInProcess(r *run, rt *framework.Runtime, docs []doc, inventory map[string]bool) []float64 {
	lat := make([]float64, len(docs))
	ctx := context.Background()
	for i := range docs {
		t := time.Now()
		anns, err := rt.AnnotateCtx(ctx, docs[i].Text, annotateTop)
		lat[i] = time.Since(t).Seconds() * 1e3
		if err != nil {
			r.op(err)
			continue
		}
		r.op(checkAnnotations(docs[i].Text, wireAnnotations(anns), docs[i].Patterns, annotateTop, inventory))
	}
	return lat
}

// wireAnnotations converts runtime annotations to the checked form.
func wireAnnotations(anns []framework.Annotation) []annotation {
	out := make([]annotation, len(anns))
	for i, a := range anns {
		out[i] = annotation{Text: a.Detection.Text, Concept: a.Detection.Norm, Kind: a.Detection.Kind.String(), Start: a.Detection.Start, End: a.Detection.End}
		if a.Detection.Kind == detect.KindPattern {
			out[i].Type = a.Detection.PatternType
		}
	}
	return out
}

// offlineBuildWorkload runs offline-build untraced.
func offlineBuildWorkload(r *run) error {
	seeds := worldSeeds(r.seed, repsFor(r.seconds, buildSecsPerRep))
	docs := make([][]doc, len(seeds))
	for i, s := range seeds {
		docs[i] = genDocs(paperWorld(s), s, 3, buildDocs)
	}
	var setup, work, lat []float64
	for i, s := range seeds {
		rep, err := runBuildRep(paperConfig(s))
		if err != nil {
			return err
		}
		setup = append(setup, rep.build.Seconds())
		work = append(work, (rep.build + rep.train).Seconds())
		r.op(checkArtifact(builtArtifact(rep)))
		lat = append(lat, annotateInProcess(r, rep.ranker.Runtime(), docs[i], inventoryOf(rep.sys))...)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("work_s", median(work), "s")
	r.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	logLatency(lat, nil, work)
	return nil
}

// reproRep is one offline-repro world: its small Builds (each world is
// built twice, for the set-up median), then the three tables.
type reproRep struct {
	builds []float64       // s
	tables []time.Duration // Table III, IV, V
}

func smallConfig(seed int64) contextrank.Config {
	cfg := contextrank.SmallConfig(seed)
	cfg.Workers = procs
	return cfg
}

// runReproRep builds one world and runs the tables on it, with the world
// seed as the CV seed; checks count one operation per table. Table V
// carries the ordering check; every table's Random baseline must be a coin
// flip.
func runReproRep(r *run, seed int64) (*reproRep, error) {
	rep := &reproRep{}
	var sys *contextrank.System
	for range 2 {
		t0 := time.Now()
		sys = contextrank.Build(smallConfig(seed))
		rep.builds = append(rep.builds, time.Since(t0).Seconds())
	}
	in := sys.Internal()
	t := time.Now()
	t3, err := in.Table3(reproFolds, seed)
	if err != nil {
		return nil, err
	}
	rep.tables = append(rep.tables, time.Since(t))
	r.op(checkRandom(t3.Random.WeightedErrorRate))

	t = time.Now()
	t4, err := in.Table4(reproFolds, seed)
	if err != nil {
		return nil, err
	}
	rep.tables = append(rep.tables, time.Since(t))
	r.op(checkRandom(t4.Random.WeightedErrorRate))

	t = time.Now()
	t5, err := in.Table5(reproFolds, seed)
	if err != nil {
		return nil, err
	}
	rep.tables = append(rep.tables, time.Since(t))
	r.op(checkRepro(reproErrors{
		random:        t5.Random.WeightedErrorRate,
		conceptVector: t5.ConceptVector.WeightedErrorRate,
		interest:      t5.BestInterest.WeightedErrorRate,
		combined:      t5.Combined.WeightedErrorRate,
	}))
	return rep, nil
}

// offlineReproWorkload runs offline-repro untraced.
func offlineReproWorkload(r *run) error {
	var setup, work, lat []float64
	for _, s := range worldSeeds(r.seed, repsFor(r.seconds, reproSecsPerRep)) {
		rep, err := runReproRep(r, s)
		if err != nil {
			return err
		}
		setup = append(setup, rep.builds...)
		var total time.Duration
		for _, d := range rep.tables {
			total += d
			lat = append(lat, d.Seconds()*1e3)
		}
		work = append(work, total.Seconds())
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("work_s", median(work), "s")
	r.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	logLatency(lat, nil, work)
	return nil
}
