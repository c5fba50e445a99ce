package main

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"regexp"
	"testing"

	"contextrank/internal/world"
)

// validCase is a document with one planted pattern and its correct
// /v1/annotate response: the pattern first, then two concepts.
func validCase() (doc, annotateResponse, map[string]bool) {
	text := "Alpha beta met in town. desk1.0@news12.example.com. Gamma spoke."
	d := doc{Text: text, Patterns: []planted{{Type: "email", Start: 24, End: 50}}}
	resp := annotateResponse{Text: text, Annotations: []annotation{
		{Text: "desk1.0@news12.example.com", Concept: "desk1.0@news12.example.com", Kind: "pattern", Type: "email", Start: 24, End: 50},
		{Text: "Alpha beta", Concept: "alpha beta", Kind: "concept", Start: 0, End: 10},
		{Text: "Gamma", Concept: "gamma", Kind: "named", Type: "person", Start: 52, End: 57},
	}}
	return d, resp, map[string]bool{"alpha beta": true, "gamma": true}
}

func encode(t *testing.T, resp annotateResponse) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckAnnotateAcceptsValid(t *testing.T) {
	d, resp, inv := validCase()
	if err := checkAnnotate(200, encode(t, resp), &d, 3, inv); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
}

// Each corruption of a valid response must be rejected.
func TestCheckAnnotateRejectsCorrupted(t *testing.T) {
	cases := []struct {
		name    string
		status  int
		top     int
		corrupt func(d *doc, r *annotateResponse)
	}{
		{"non-200", 503, 3, func(*doc, *annotateResponse) {}},
		{"degraded", 200, 3, func(_ *doc, r *annotateResponse) { r.Degraded = true }},
		{"text differs", 200, 3, func(_ *doc, r *annotateResponse) { r.Text = r.Text[1:] }},
		{"offset off by one", 200, 3, func(_ *doc, r *annotateResponse) { r.Annotations[1].End-- }},
		{"offset past end", 200, 3, func(_ *doc, r *annotateResponse) { r.Annotations[2].End = 999 }},
		{"pattern after concept", 200, 3, func(_ *doc, r *annotateResponse) {
			r.Annotations[0], r.Annotations[1] = r.Annotations[1], r.Annotations[0]
		}},
		{"planted pattern missing", 200, 3, func(_ *doc, r *annotateResponse) { r.Annotations = r.Annotations[1:] }},
		{"pattern wrong type", 200, 3, func(_ *doc, r *annotateResponse) { r.Annotations[0].Type = "url" }},
		{"pattern where none planted", 200, 3, func(d *doc, _ *annotateResponse) { d.Patterns = nil }},
		{"too many concepts", 200, 1, func(*doc, *annotateResponse) {}},
		{"concept outside inventory", 200, 3, func(_ *doc, r *annotateResponse) { r.Annotations[1].Concept = "alpha" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, resp, inv := validCase()
			c.corrupt(&d, &resp)
			if err := checkAnnotate(c.status, encode(t, resp), &d, c.top, inv); err == nil {
				t.Fatal("corrupted response accepted")
			}
		})
	}
	d, _, inv := validCase()
	if err := checkAnnotate(200, []byte("{not json"), &d, 3, inv); err == nil {
		t.Fatal("undecodable body accepted")
	}
}

func TestSameBody(t *testing.T) {
	if err := sameBody([]byte("abc"), []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := sameBody([]byte("abc"), []byte("abd")); err == nil {
		t.Fatal("different bodies accepted")
	}
	if err := sameServed([]byte("x\n"), []byte("x")); err == nil {
		t.Fatal("served body differing from in-process output accepted")
	}
}

func TestIngestChecks(t *testing.T) {
	words := []string{"the", "red", "fox", "ran"}
	if !containsPhrase(words, []string{"red", "fox"}) || containsPhrase(words, []string{"fox", "red"}) ||
		containsPhrase(words, []string{"ran", "off"}) || containsPhrase(words, nil) {
		t.Fatal("containsPhrase is not a contiguous-sequence test")
	}
	if checkCount("red fox", 3, 3) != nil || checkCount("red fox", 4, 3) == nil {
		t.Fatal("checkCount must accept equal counts and reject a wrong one")
	}
	if checkMonotone("p", 3, 3) != nil || checkMonotone("p", 3, 2) == nil {
		t.Fatal("checkMonotone must reject a falling count only")
	}
	if checkDocCount(110, 100, 10) != nil || checkDocCount(109, 100, 10) == nil {
		t.Fatal("checkDocCount must reject a lost document")
	}
	if checkSearchHit("red fox", 1, words, []string{"red", "fox"}) != nil ||
		checkSearchHit("blue fox", 1, words, []string{"blue", "fox"}) == nil {
		t.Fatal("checkSearchHit must reject a hit without its phrase")
	}
}

func TestCheckArtifact(t *testing.T) {
	good := artifact{concepts: 10, interestBytes: 180, maxPackBytes: 400, rawBytes: 100, frozenBytes: 30}
	if err := checkArtifact(good); err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]artifact{
		"interest bytes":     {concepts: 10, interestBytes: 200, maxPackBytes: 400, rawBytes: 100, frozenBytes: 30},
		"pack too large":     {concepts: 10, interestBytes: 180, maxPackBytes: 404, rawBytes: 100, frozenBytes: 30},
		"frozen not smaller": {concepts: 10, interestBytes: 180, maxPackBytes: 400, rawBytes: 100, frozenBytes: 100},
		"frozen missing":     {concepts: 10, interestBytes: 180, maxPackBytes: 400, rawBytes: 100, frozenBytes: 0},
	} {
		if checkArtifact(a) == nil {
			t.Errorf("%s: corrupted artifact accepted", name)
		}
	}
}

func TestCheckRepro(t *testing.T) {
	good := reproErrors{random: 0.51, conceptVector: 0.42, interest: 0.22, combined: 0.16}
	if err := checkRepro(good); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]reproErrors{
		"random biased":            {random: 0.40, conceptVector: 0.30, interest: 0.22, combined: 0.16},
		"combined not best":        {random: 0.51, conceptVector: 0.42, interest: 0.16, combined: 0.22},
		"concept vector beats ml":  {random: 0.51, conceptVector: 0.20, interest: 0.22, combined: 0.16},
		"random beats cv":          {random: 0.47, conceptVector: 0.48, interest: 0.22, combined: 0.16},
		"combined equals interest": {random: 0.51, conceptVector: 0.42, interest: 0.20, combined: 0.20},
	} {
		if checkRepro(e) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The generator is a pure function of the seed, its documents are
// distinct, and every planted pattern sits at its recorded offsets in the
// form the program's scanners detect.
func TestGenDocs(t *testing.T) {
	w := world.New(world.Config{Seed: 3, VocabSize: 2000, NumTopics: 10, NumConcepts: 300})
	a := genDocs(w, 7, 1, 200)
	b := genDocs(w, 7, 1, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different documents")
	}
	if reflect.DeepEqual(a, genDocs(w, 8, 1, 200)) {
		t.Fatal("different seeds gave the same documents")
	}
	forms := map[string]*regexp.Regexp{
		"email": regexp.MustCompile(`^desk\d+\.\d+@news\d+\.example\.com$`),
		"url":   regexp.MustCompile(`^https://www\.example\.org/story/\d+/\d+-\d+$`),
		"phone": regexp.MustCompile(`^\(\d{3}\) \d{3}-\d{4}$`),
	}
	seen := make(map[string]bool)
	withPatterns := 0
	for _, d := range a {
		if seen[d.Text] {
			t.Fatal("duplicate document")
		}
		seen[d.Text] = true
		if len(d.Patterns) > 0 {
			withPatterns++
		}
		for _, p := range d.Patterns {
			s := d.Text[p.Start:p.End]
			if !forms[p.Type].MatchString(s) {
				t.Fatalf("planted %s %q has the wrong form", p.Type, s)
			}
			if p.End+2 > len(d.Text) || d.Text[p.End:p.End+2] != ". " {
				t.Fatalf("planted %q is not followed by a sentence break", s)
			}
		}
	}
	if withPatterns < 30 || withPatterns > 90 {
		t.Fatalf("%d of 200 documents carry patterns, want about %v", withPatterns, patternShare*200)
	}
}

func TestHotSchedule(t *testing.T) {
	steps, flash := hotSchedule(rand.New(rand.NewSource(1)), 1000, 100, 500, 25)
	if flash != 40 {
		t.Fatalf("%d flash crowds, want 40", flash)
	}
	counts := make(map[int]int)
	for i, s := range steps {
		if s.all != (i%25 == 24) {
			t.Fatalf("step %d: flash flag %v", i, s.all)
		}
		if s.all && s.doc < 500 || !s.all && s.doc >= 100 {
			t.Fatalf("step %d: doc %d outside its range", i, s.doc)
		}
		counts[s.doc]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("popularity is not skewed toward low ranks")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if median(xs) != 2.5 || quantile(xs, 0) != 1 || quantile(xs, 1) != 4 {
		t.Fatalf("median %v, q0 %v, q1 %v", median(xs), quantile(xs, 0), quantile(xs, 1))
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}
