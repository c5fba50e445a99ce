package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"contextrank/internal/newsgen"
	"contextrank/internal/world"
)

// Input generation. Everything here runs before any clock starts and is a
// pure function of the seed; the program only ever sees the results.

// lengthClass is one band of the document length mix.
type lengthClass struct {
	share              float64
	minSents, maxSents int
}

// lengthMix is the document length mix: short briefs, regular stories and
// long features (a news sentence is ~12 words, ~90 bytes).
var lengthMix = []lengthClass{
	{0.30, 3, 8},
	{0.50, 10, 30},
	{0.20, 40, 80},
}

// patternShare is the share of documents that get planted emails, URLs and
// phone numbers; the rest contain none.
const patternShare = 0.3

// planted is one pattern entity inserted into a document at a known offset.
type planted struct {
	Type       string // "email", "url" or "phone"
	Start, End int
}

// doc is one generated request document.
type doc struct {
	Text     string
	Patterns []planted
}

// genDocs generates n distinct news documents from the world: the length
// mix above, patternShare of them carrying 1–3 planted patterns. The stream
// for a seed is fixed; salt separates independent streams of one run.
func genDocs(w *world.World, seed, salt int64, n int) []doc {
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	// Draw each document's length class first, then generate each class's
	// stories in one newsgen call and deal them back out in draw order.
	classOf := make([]int, n)
	counts := make([]int, len(lengthMix))
	for i := range classOf {
		u, c := rng.Float64(), 0
		for c < len(lengthMix)-1 && u >= lengthMix[c].share {
			u -= lengthMix[c].share
			c++
		}
		classOf[i] = c
		counts[c]++
	}
	stories := make([][]newsgen.Story, len(lengthMix))
	for c, lc := range lengthMix {
		if counts[c] == 0 {
			continue
		}
		// Generate a few spares: duplicates are dropped below.
		stories[c] = newsgen.Generate(w, newsgen.Config{
			Seed:         rng.Int63(),
			NumStories:   counts[c] + counts[c]/20 + 4,
			MinSentences: lc.minSents,
			MaxSentences: lc.maxSents,
		})
	}
	seen := make(map[string]bool, n)
	next := make([]int, len(lengthMix))
	docs := make([]doc, 0, n)
	for _, c := range classOf {
		for next[c] < len(stories[c]) {
			text := stories[c][next[c]].Text
			next[c]++
			if seen[text] {
				continue
			}
			seen[text] = true
			d := doc{Text: text}
			if rng.Float64() < patternShare {
				d = plantPatterns(text, rng, len(docs))
			}
			docs = append(docs, d)
			break
		}
	}
	return docs
}

// plantPatterns inserts 1–3 pattern entities at sentence starts and records
// where they landed. Each pattern is followed by ". " so it is a sentence
// of its own and no regex can run into the surrounding words; id makes the
// strings unique per document.
func plantPatterns(text string, rng *rand.Rand, id int) doc {
	var starts []int // byte offsets just after ". "
	for i := 0; i+2 <= len(text); i++ {
		if text[i] == '.' && i+1 < len(text) && text[i+1] == ' ' {
			starts = append(starts, i+2)
		}
	}
	starts = append([]int{0}, starts...)
	k := 1 + rng.Intn(3)
	if k > len(starts) {
		k = len(starts)
	}
	rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	at := starts[:k]
	sort.Ints(at)

	var b strings.Builder
	var out []planted
	prev := 0
	for j, pos := range at {
		b.WriteString(text[prev:pos])
		typ, s := patternText(rng, id, j)
		start := b.Len()
		b.WriteString(s)
		out = append(out, planted{Type: typ, Start: start, End: start + len(s)})
		b.WriteString(". ")
		prev = pos
	}
	b.WriteString(text[prev:])
	return doc{Text: b.String(), Patterns: out}
}

// patternText renders one pattern entity of a random type.
func patternText(rng *rand.Rand, id, j int) (string, string) {
	switch rng.Intn(3) {
	case 0:
		return "email", fmt.Sprintf("desk%d.%d@news%d.example.com", id, j, rng.Intn(90)+10)
	case 1:
		return "url", fmt.Sprintf("https://www.example.org/story/%d/%d-%d", id, j, rng.Intn(900)+100)
	default:
		return "phone", fmt.Sprintf("(%d) %03d-%04d", 200+rng.Intn(700), rng.Intn(1000), rng.Intn(10000))
	}
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range n {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

// step is one entry of the annotate-hot schedule: every connection sends
// doc (a flash crowd) when all is set, otherwise one connection sends it.
type step struct {
	doc int
	all bool
}

// hotSchedule builds n request steps over a working set of base documents
// (indices [0, base)) drawn from a Zipf(zipfS) popularity, with a flash
// crowd for a new document (indices from flashFrom upward) every flashEvery
// steps. It returns the steps and the number of flash documents used.
func hotSchedule(rng *rand.Rand, n, base, flashFrom, flashEvery int) ([]step, int) {
	z := newZipf(base, zipfS)
	steps := make([]step, 0, n)
	flash := 0
	for i := range n {
		if flashEvery > 0 && i%flashEvery == flashEvery-1 {
			steps = append(steps, step{doc: flashFrom + flash, all: true})
			flash++
			continue
		}
		steps = append(steps, step{doc: z.draw(rng)})
	}
	return steps, flash
}
