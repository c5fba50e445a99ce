package main

import (
	"encoding/json"
	"math"
)

// Output checks. None compares against a saved copy of earlier output: each
// states a property the program's output must have for the generated input.
// Every check returns a non-nil error on a violation, which the workloads
// count as a failed operation.

// annotation and annotateResponse mirror the /v1/annotate wire format.
type annotation struct {
	Text    string `json:"text"`
	Concept string `json:"concept"`
	Kind    string `json:"kind"`
	Type    string `json:"type"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
}

type annotateResponse struct {
	Text        string       `json:"text"`
	Annotations []annotation `json:"annotations"`
	Degraded    bool         `json:"degraded"`
}

// checkAnnotate validates one /v1/annotate response for document d
// requested with top-N: not degraded, the echoed text is the document, each
// annotation's offsets select its text, patterns come first, every planted
// pattern is reported with its type at its offsets and no other pattern is,
// and there are at most top distinct concepts, each in the inventory.
func checkAnnotate(status int, body []byte, d *doc, top int, inventory map[string]bool) error {
	if status != 200 {
		return errf("annotate: status %d", status)
	}
	var resp annotateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return errf("annotate: decode: %v", err)
	}
	if resp.Degraded {
		return errDegraded
	}
	if resp.Text != d.Text {
		return errf("annotate: response text differs from the document")
	}
	return checkAnnotations(resp.Text, resp.Annotations, d.Patterns, top, inventory)
}

func checkAnnotations(text string, anns []annotation, patterns []planted, top int, inventory map[string]bool) error {
	concepts := make(map[string]bool)
	var gotPatterns []annotation
	for i, a := range anns {
		if a.Start < 0 || a.End < a.Start || a.End > len(text) || text[a.Start:a.End] != a.Text {
			return errf("annotate: annotation %d %q: offsets [%d,%d) do not select its text", i, a.Text, a.Start, a.End)
		}
		if a.Kind == "pattern" {
			if len(concepts) > 0 {
				return errf("annotate: pattern %q after a concept annotation", a.Text)
			}
			gotPatterns = append(gotPatterns, a)
			continue
		}
		if !inventory[a.Concept] {
			return errf("annotate: concept %q is not in the world's inventory", a.Concept)
		}
		concepts[a.Concept] = true
	}
	if len(concepts) > top {
		return errf("annotate: %d distinct concepts, want at most %d", len(concepts), top)
	}
	if len(gotPatterns) != len(patterns) {
		return errf("annotate: %d pattern annotations, %d planted", len(gotPatterns), len(patterns))
	}
	for _, p := range patterns {
		found := false
		for _, a := range gotPatterns {
			if a.Start == p.Start && a.End == p.End && a.Type == p.Type {
				found = true
				break
			}
		}
		if !found {
			return errf("annotate: planted %s at [%d,%d) not reported", p.Type, p.Start, p.End)
		}
	}
	return nil
}

// containsPhrase reports whether the word sequence phrase occurs
// contiguously in words (the brute-force reference for ResultCount).
func containsPhrase(words, phrase []string) bool {
	if len(phrase) == 0 {
		return false
	}
outer:
	for i := 0; i+len(phrase) <= len(words); i++ {
		for j, p := range phrase {
			if words[i+j] != p {
				continue outer
			}
		}
		return true
	}
	return false
}

// checkCount compares an index count against the brute-force reference.
func checkCount(phrase string, got, want int) error {
	if got != want {
		return errf("ingest: ResultCount(%q) = %d, brute force counts %d", phrase, got, want)
	}
	return nil
}

// checkMonotone reports a probe count that went down during ingest: the
// live index only ever appends.
func checkMonotone(phrase string, prev, cur int) error {
	if cur < prev {
		return errf("ingest: ResultCount(%q) fell from %d to %d during ingest", phrase, prev, cur)
	}
	return nil
}

// checkDocCount compares the final visible document count with the base
// corpus plus everything ingested.
func checkDocCount(got, base, ingested int) error {
	if got != base+ingested {
		return errf("ingest: NumDocs = %d, want base %d + ingested %d", got, base, ingested)
	}
	return nil
}

// artifact holds the packed-table sizes of a built ranker.
type artifact struct {
	concepts      int
	interestBytes int
	maxPackBytes  int
	rawBytes      int
	frozenBytes   int
}

// checkArtifact validates the offline build's output: the quantized
// interestingness store is 18 B per concept, every keyword pack fits the
// paper's 400 B budget, and the frozen index is smaller than the raw one.
func checkArtifact(a artifact) error {
	if a.interestBytes != 18*a.concepts {
		return errf("build: interest table %d B for %d concepts, want 18 B each", a.interestBytes, a.concepts)
	}
	if a.maxPackBytes > 400 {
		return errf("build: largest keyword pack %d B exceeds 400 B", a.maxPackBytes)
	}
	if a.frozenBytes <= 0 || a.frozenBytes >= a.rawBytes {
		return errf("build: frozen index %d B is not smaller than raw %d B", a.frozenBytes, a.rawBytes)
	}
	return nil
}

// reproErrors are the weighted error rates the ordering check reads.
type reproErrors struct {
	random, conceptVector, interest, combined float64
}

// randomTolerance is how far the Random baseline's weighted error may sit
// from 50%. Over the ~240 click groups of the small world its seed-to-seed
// standard deviation is about 0.017, so 0.07 is four deviations: a broken
// shuffle or evaluator lands outside, an unlucky partition does not.
const randomTolerance = 0.07

// checkRandom validates that the Random baseline is a coin flip.
func checkRandom(weighted float64) error {
	if math.Abs(weighted-0.5) > randomTolerance {
		return errf("repro: Random weighted error %.4f is not within %.2f of 0.5", weighted, randomTolerance)
	}
	return nil
}

// checkRepro validates the paper's qualitative result: Random is a coin
// flip, and Combined < Interestingness < Concept-vector < Random.
func checkRepro(e reproErrors) error {
	if err := checkRandom(e.random); err != nil {
		return err
	}
	if !(e.combined < e.interest && e.interest < e.conceptVector && e.conceptVector < e.random) {
		return errf("repro: want Combined %.4f < Interestingness %.4f < Concept-vector %.4f < Random %.4f",
			e.combined, e.interest, e.conceptVector, e.random)
	}
	return nil
}

// checkSearchHit reports a Search hit whose document lacks the phrase.
func checkSearchHit(phrase string, docID int, words []string, terms []string) error {
	if !containsPhrase(words, terms) {
		return errf("ingest: Search(%q) hit doc %d, which does not contain it", phrase, docID)
	}
	return nil
}

// sameBody reports two responses for one document that differ.
func sameBody(first, got []byte) error {
	if string(first) != string(got) {
		return errf("annotate: repeated request got a different body (%d vs %d bytes)", len(first), len(got))
	}
	return nil
}
