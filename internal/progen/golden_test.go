package progen

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generate_golden.json from the current generator")

// generateGoldenPath holds one digest of the generator's output per shape
// and per TestGeneratedProgramsTerminate feature mix.
const generateGoldenPath = "testdata/generate_golden.json"

// goldenShapeSeeds is the number of seeds per shape in the golden corpus.
const goldenShapeSeeds = 2000

// TestGenerateGolden pins the generator's output byte for byte: one
// sha256 per shape over Generate(ShapeParams(shape, seed)) for every seed
// in [0, goldenShapeSeeds), and one per feature mix over the seeds
// TestGeneratedProgramsTerminate runs. Every recorded fingerprint
// downstream (Stats, scheduler blocks, experiment tables) is computed
// over generated programs, so the generator may change how it builds its
// text but never the text. Run with -update to re-record (only
// legitimate for an intentional change to the generated programs).
func TestGenerateGolden(t *testing.T) {
	got := map[string]string{}
	for _, shape := range Shapes() {
		h := sha256.New()
		for seed := int64(0); seed < goldenShapeSeeds; seed++ {
			fmt.Fprintf(h, "seed %d\n", seed)
			io.WriteString(h, Generate(ShapeParams(shape, seed)))
		}
		got["shape/"+shape.String()] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for i, mix := range terminateMixes {
		h := sha256.New()
		for seed := int64(0); seed < terminateSeeds; seed++ {
			p := mix
			p.Seed = seed
			fmt.Fprintf(h, "seed %d\n", seed)
			io.WriteString(h, Generate(p))
		}
		got[fmt.Sprintf("mix/%d", i)] = fmt.Sprintf("%x", h.Sum(nil))
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(generateGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d digests to %s", len(got), generateGoldenPath)
		return
	}
	data, err := os.ReadFile(generateGoldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus size changed: golden has %d digests, corpus produced %d", len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got { //determinism:allow sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: generated programs changed\n  got  %s\n  want %s", k, got[k], want[k])
		}
	}
}
